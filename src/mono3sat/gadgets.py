"""Gadget catalogue: constructors plus declared boundary predicates.

Each clause list is stored as a data table (one string per clause, slot
placeholders for boundary variables, letters for auxiliaries) so the
transcription can be reviewed line by line.  Composite gadgets (EQ_NE, F, B,
BBAR) are assembled from the table-backed ones with disjoint fresh
auxiliaries per instantiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .formulas import NAE, SAT, Clause, Literal, VerificationReport, evaluate_clause
from .oracle import BoundaryPredicate, check_extension_property


class FreshAllocator:
    """Hands out strictly increasing variable ids, never colliding."""

    def __init__(self, next_id: int = 0):
        self.next_id = next_id

    def fresh(self, k: int) -> list[int]:
        out = list(range(self.next_id, self.next_id + k))
        self.next_id += k
        return out

    def fresh1(self) -> int:
        return self.fresh(1)[0]


@dataclass(frozen=True)
class GadgetInstance:
    kind: str
    boundary: tuple[int, ...]  # slot values; repetitions permitted
    aux: tuple[int, ...]
    clauses: tuple[Clause, ...]
    predicate: BoundaryPredicate  # over the distinct boundary variables
    mode: str
    parts: tuple = ()  # sub-gadgets of composite kinds
    connectors: tuple[Clause, ...] = ()  # composite clauses outside any part


def _any_true(s):
    return any(s)


def _any_false(s):
    return not all(s)


def _all_equal(s):
    return all(b == s[0] for b in s)


def _differ(s):
    return s[0] != s[1]


def _equal(s):
    return s[0] == s[1]


def _always(s):
    return True


def _chain22(s):
    return s[0] == s[2] == s[4] and s[1] == s[3] == s[5] and s[0] != s[1]


def _chain22_neg(s):
    return not (s[0] and s[1] and s[5]) and not (s[2] and s[3] and s[4])


def _forced_true(s):
    return s[0]


@dataclass(frozen=True)
class GadgetRow:
    name: str
    arity: int
    num_aux: int
    num_clauses: int
    mode: str
    slot_predicate: Callable
    slots: tuple[str, ...] = ()
    aux_names: tuple[str, ...] = ()
    table: tuple[str, ...] = ()
    multiset: bool = False
    compositional: bool = False  # verified via parts, not one big enumeration


def _rows(text: str) -> tuple[str, ...]:
    return tuple(line.strip() for line in text.strip().splitlines())


_NE6 = _rows("""
x y a
x y b
a b u
a b v
a b w
u v w
""")

_P1 = _rows("""
x a b
a c d
a b e
a d e
b c d
b c e
c d e
""")

_NE9 = _rows("""
x a b
y c d
y e f
c e f
b c e
a c f
a d e
a b d
b d f
""")

_EQ13 = _rows("""
x a b
y c d
y e f
a c g
a e d
a h i
b e h
b f h
b g i
c e i
c f g
d g h
d f i
""")

_EQ4L = _rows("""
x a e
x b d
x c f
y a b
y c e
y d f
z a f
z c d
z u b
u a c
u d e
b e f
""")

_S = _rows("""
x a b
y c d
z e f
a c f
a d e
b c e
b d f
~a ~c ~f
~a ~d ~e
~a ~e ~f
~b ~c ~d
~b ~c ~e
~b ~d ~f
""")

_A = _rows("""
~a ~b ~x
~a ~c ~x
~a ~d ~x
~b ~c ~y
~b ~d ~y
~c ~d ~y
a b c
a b d
a c d
b c d
""")

_D = _rows("""
~a ~c ~e
~b ~f ~h
~d ~g ~i
a b d
a d f
a f i
a h i
b c d
b c g
b e g
c g h
c h i
e f g
e f i
a g x1
b i x2
c f x3
d e x4
d h x5
e h x6
""")

_G = _rows("""
~a ~b ~f
~a ~c ~d
~b ~c ~e
~d ~e ~f
a b f
a c d
b c e
d e f
a e x
b d y
c f z
""")

_H = _rows("""
~a ~d ~x
~b ~g ~y
~f ~i ~z
~a ~b ~e
~c ~e ~i
~c ~g ~h
~d ~f ~h
a c f
a f g
a g h
b c d
b e h
b h i
c e i
d e f
d g i
""")

_C12 = _rows("""
~a ~c ~e
~a ~c ~f
~a ~d ~g
~b ~c ~h
~b ~e ~g
~b ~f ~g
~d ~e ~h
~d ~f ~h
a b x
c d x
e f x
g h y
""")

_INC32 = _rows("""
a b x
c d y
e f z
a b c
a b d
a e f
b e f
c d e
c d f
~a ~b ~d
~a ~b ~f
~c ~d ~e
~c ~e ~f
""")

_CHAIN22 = _rows("""
x1 x2
~x2 ~x3
x3 x4
~x4 ~x5
x5 x6
~x6 ~x1
""")

_CHAIN22_NEG = _rows("""
~x1 ~x2 ~x6
~x3 ~x4 ~x5
""")

_STAR22 = _rows("""
x1 y9 y9
~x1 ~y1 ~y1
~x1 ~y2 ~y2
x2 y1 y1
x2 y2 y2
~x2 ~y3 ~y3
x3 y3 y3
~x3 ~y4 ~y4
~x3 ~y5 ~y5
x4 y4 y4
x4 y5 y5
~x4 ~y6 ~y6
x5 y6 y6
~x5 ~y7 ~y7
~x5 ~y8 ~y8
x6 y7 y7
x6 y8 y8
~x6 ~y9 ~y9
""")


def _flip_table(table: tuple[str, ...]) -> tuple[str, ...]:
    out = []
    for line in table:
        toks = []
        for tok in line.split():
            toks.append(tok[1:] if tok.startswith("~") else "~" + tok)
        out.append(" ".join(toks))
    return tuple(out)


_XY = ("x", "y")
_XYZ = ("x", "y", "z")
_X6 = ("x1", "x2", "x3", "x4", "x5", "x6")
_ABCDEF = tuple("abcdef")
_ABCDEFGHI = tuple("abcdefghi")

CATALOGUE: dict[str, GadgetRow] = {}


def _row(row: GadgetRow):
    CATALOGUE[row.name] = row


_row(GadgetRow("NE6", 2, 5, 6, NAE, _differ, _XY, tuple("ab") + tuple("uvw"), _NE6))
_row(GadgetRow("EQ_NE", 2, 13, 14, NAE, _equal, _XY))
_row(GadgetRow("P1", 1, 5, 7, NAE, _always, ("x",), tuple("abcde"), _P1))
_row(GadgetRow("NE9", 2, 6, 9, NAE, _differ, _XY, _ABCDEF, _NE9))
_row(GadgetRow("EQ13", 2, 9, 13, NAE, _equal, _XY, _ABCDEFGHI, _EQ13))
_row(GadgetRow("EQ4L", 4, 6, 12, NAE, _all_equal, ("x", "y", "z", "u"), _ABCDEF, _EQ4L))
_row(GadgetRow("S", 3, 6, 13, SAT, _any_true, _XYZ, _ABCDEF, _S))
_row(GadgetRow("SBAR", 3, 6, 13, SAT, _any_false, _XYZ, _ABCDEF, _flip_table(_S)))
_row(GadgetRow("A", 2, 4, 10, SAT, _any_false, _XY, tuple("abcd"), _A))
_row(GadgetRow("D", 6, 9, 20, SAT, _any_true, _X6, _ABCDEFGHI, _D))
_row(GadgetRow("F", 1, 30, 61, SAT, _forced_true, ("x",), compositional=True))
_row(GadgetRow("G", 3, 6, 11, SAT, _any_true, _XYZ, _ABCDEF, _G))
_row(GadgetRow("H", 3, 9, 16, SAT, _any_false, _XYZ, _ABCDEFGHI, _H))
_row(GadgetRow("C12", 2, 8, 12, SAT, _any_true, _XY, tuple("abcdefgh"), _C12))
_row(GadgetRow("B", 3, 27, 37, SAT, _any_true, _XYZ, compositional=True))
_row(GadgetRow("BBAR", 3, 27, 37, SAT, _any_false, _XYZ, compositional=True))
_row(GadgetRow("CHAIN22", 6, 0, 6, SAT, _chain22, _X6, (), _CHAIN22))
_row(GadgetRow("CHAIN22_NEG", 6, 0, 2, SAT, _chain22_neg, _X6, (), _CHAIN22_NEG))
_row(
    GadgetRow(
        "STAR22", 6, 9, 18, SAT, _all_equal, _X6,
        tuple(f"y{i}" for i in range(1, 10)), _STAR22, multiset=True,
    )
)
_row(GadgetRow("INC32", 3, 6, 13, SAT, _always, _XYZ, _ABCDEF, _INC32))

GADGET_NAMES = tuple(CATALOGUE)


def predicate_for(
    slot_predicate: Callable, boundary: Sequence[int]
) -> BoundaryPredicate:
    """Materialize the slot predicate over the distinct boundary variables."""
    distinct = list(dict.fromkeys(boundary))
    idx = {v: i for i, v in enumerate(distinct)}
    accepted = set()
    for p in range(1 << len(distinct)):
        slots = tuple(bool((p >> idx[v]) & 1) for v in boundary)
        if slot_predicate(slots):
            accepted.add(p)
    return BoundaryPredicate(tuple(distinct), frozenset(accepted))


def _instantiate_table(
    row: GadgetRow, boundary: Sequence[int], aux: Sequence[int]
) -> tuple[Clause, ...]:
    slot_of = {name: boundary[i] for i, name in enumerate(row.slots)}
    aux_of = {name: aux[i] for i, name in enumerate(row.aux_names)}
    clauses = []
    for line in row.table:
        lits = []
        for tok in line.split():
            negated = tok.startswith("~")
            name = tok[1:] if negated else tok
            var = slot_of[name] if name in slot_of else aux_of[name]
            lits.append(Literal(var, negated))
        try:
            clauses.append(Clause(tuple(lits), row.multiset))
        except ValueError:
            raise ValueError(
                f"{row.name}{tuple(boundary)}: substitution makes clause "
                f"'{line}' repeat a variable"
            ) from None
    return tuple(clauses)


def build_gadget(
    kind: str, boundary: Sequence[int], alloc: FreshAllocator
) -> GadgetInstance:
    """Instantiate a catalogue gadget on the given boundary variables.

    Boundary entries may repeat (e.g. D(y, u, u, u, u, u)) as long as no
    set-flavor clause ends up with a duplicated variable.  Auxiliary
    variables are drawn fresh from the allocator.
    """
    row = CATALOGUE[kind]
    boundary = tuple(boundary)
    if len(boundary) != row.arity:
        raise ValueError(
            f"{kind} takes {row.arity} boundary variables, got {len(boundary)}"
        )
    if kind == "EQ_NE":
        return _build_eq_ne(boundary, alloc)
    if kind == "F":
        return _build_f(boundary, alloc)
    if kind in ("B", "BBAR"):
        return _build_b(boundary, alloc, flipped=(kind == "BBAR"))
    aux = tuple(alloc.fresh(row.num_aux))
    clauses = _instantiate_table(row, boundary, aux)
    return GadgetInstance(
        kind, boundary, aux, clauses,
        predicate_for(row.slot_predicate, boundary), row.mode,
    )


def _build_eq_ne(boundary, alloc: FreshAllocator) -> GadgetInstance:
    x, y = boundary
    p, q, r = alloc.fresh(3)
    ne1 = build_gadget("NE6", (p, q), alloc)
    ne2 = build_gadget("NE6", (p, r), alloc)
    connectors = (
        Clause((Literal(x), Literal(q), Literal(r))),
        Clause((Literal(y), Literal(q), Literal(r))),
    )
    return GadgetInstance(
        "EQ_NE", boundary, (p, q, r) + ne1.aux + ne2.aux,
        ne1.clauses + ne2.clauses + connectors,
        predicate_for(_equal, boundary), NAE,
        parts=(ne1, ne2), connectors=connectors,
    )


def _build_f(boundary, alloc: FreshAllocator) -> GadgetInstance:
    (y,) = boundary
    u1, u2, u3 = alloc.fresh(3)
    parts = tuple(
        build_gadget("D", (y, u, u, u, u, u), alloc) for u in (u1, u2, u3)
    )
    connector = Clause((Literal(u1, True), Literal(u2, True), Literal(u3, True)))
    aux = (u1, u2, u3) + tuple(v for g in parts for v in g.aux)
    clauses = tuple(c for g in parts for c in g.clauses) + (connector,)
    return GadgetInstance(
        "F", boundary, aux, clauses,
        predicate_for(_forced_true, boundary), SAT,
        parts=parts, connectors=(connector,),
    )


def _build_b(boundary, alloc: FreshAllocator, flipped: bool) -> GadgetInstance:
    x, y, z = boundary
    u, v, w = alloc.fresh(3)
    parts = tuple(
        build_gadget("C12", pair, alloc) for pair in ((u, x), (v, y), (w, z))
    )
    connector = Clause((Literal(u, True), Literal(v, True), Literal(w, True)))
    if flipped:
        parts = tuple(_flip_instance(g) for g in parts)
        connector = connector.negated()
    aux = (u, v, w) + tuple(vv for g in parts for vv in g.aux)
    clauses = tuple(c for g in parts for c in g.clauses) + (connector,)
    name = "BBAR" if flipped else "B"
    pred = _any_false if flipped else _any_true
    return GadgetInstance(
        name, boundary, aux, clauses, predicate_for(pred, boundary), SAT,
        parts=parts, connectors=(connector,),
    )


def _flip_instance(g: GadgetInstance) -> GadgetInstance:
    """Negate every literal; accepted patterns map to their complements."""
    full = (1 << len(g.predicate.boundary)) - 1
    return GadgetInstance(
        g.kind + "~", g.boundary, g.aux,
        tuple(c.negated() for c in g.clauses),
        BoundaryPredicate(
            g.predicate.boundary, frozenset(full ^ p for p in g.predicate.accepted)
        ),
        g.mode,
        parts=tuple(_flip_instance(p) for p in g.parts),
        connectors=tuple(c.negated() for c in g.connectors),
    )


def fresh_instance(kind: str) -> GadgetInstance:
    """The gadget on distinct fresh boundary variables 0..arity-1."""
    row = CATALOGUE[kind]
    alloc = FreshAllocator(row.arity)
    return build_gadget(kind, tuple(range(row.arity)), alloc)


def verify_gadget(kind: str, cap: int | None = None) -> VerificationReport:
    """Certify a catalogue row's declared accepted set.

    Table-backed rows are checked by direct exhaustive extension checking.
    F, B and BBAR exceed the enumeration cap and are verified
    compositionally: each constituent gadget is certified by enumeration,
    then the boundary-plus-connector abstraction is enumerated using the
    constituents' predicates in place of their clauses.
    """
    row = CATALOGUE[kind]
    g = fresh_instance(kind)
    if len(g.aux) != row.num_aux or len(g.clauses) != row.num_clauses:
        return VerificationReport(
            False,
            f"{kind}: built {len(g.aux)} aux / {len(g.clauses)} clauses, "
            f"catalogue says {row.num_aux} / {row.num_clauses}",
            ("catalogue", kind),
        )
    if not row.compositional:
        return check_extension_property(g, cap)
    return verify_composite(g, cap)


def verify_composite(g: GadgetInstance, cap: int | None = None) -> VerificationReport:
    """Verify a composite gadget from its parts' certified predicates.

    Sound because parts share no auxiliary variables and the connector
    clauses mention only boundary/linking variables, so the gadget's clause
    set is satisfiable for a boundary pattern iff the abstraction over the
    linking variables is.
    """
    for part in g.parts:
        rep = check_extension_property(part, cap)
        if not rep.ok:
            return VerificationReport(
                False, f"{g.kind}: part {part.kind} failed: {rep.reason}", rep.witness
            )
    abstract = list(dict.fromkeys(g.predicate.boundary))
    for part in g.parts:
        for v in part.predicate.boundary:
            if v not in abstract:
                abstract.append(v)
    for c in g.connectors:
        for lit in c.literals:
            if lit.var not in abstract:
                raise AssertionError(
                    f"{g.kind}: connector uses a non-linking variable {lit.var}"
                )
    nb = len(g.predicate.boundary)
    feasible: set[int] = set()
    for p in range(1 << len(abstract)):
        values = {v: bool((p >> i) & 1) for i, v in enumerate(abstract)}
        ok = True
        for part in g.parts:
            pat = 0
            for j, v in enumerate(part.predicate.boundary):
                if values[v]:
                    pat |= 1 << j
            if pat not in part.predicate.accepted:
                ok = False
                break
        if ok:
            ok = all(evaluate_clause(c, values, g.mode) for c in g.connectors)
        if ok:
            feasible.add(p & ((1 << nb) - 1))
    declared = set(g.predicate.accepted)
    if feasible == declared:
        return VerificationReport(True)
    diff = sorted(feasible ^ declared)
    p = diff[0]
    direction = "forbidden extension" if p in feasible else "missing extension"
    return VerificationReport(
        False,
        f"{g.kind}: boundary pattern {p:0{nb}b} is a {direction}",
        {"pattern": p, "direction": direction},
    )
