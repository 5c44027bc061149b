"""Gadget catalogue: constructors plus declared boundary predicates.

Each clause list is stored as a data table (one line per clause, slot
placeholders for boundary variables, names for auxiliaries) so the
transcription can be reviewed line by line; every table is parsed once, at
import.  A polarity-flipped row (SBAR, C12BAR) holds its base table with
every literal negated.  A composite row (EQ_NE, F, B, BBAR) also lists its
parts, the catalogue rows it is assembled from; its own table then holds
only the connector clauses.  A row's own auxiliaries are the names its
table and its parts use that are not slots, in sorted order.  Every row is
built by the one path in `build_gadget`, and every instantiation draws
fresh, disjoint auxiliaries.  A built gadget holds its clauses as literal
codes (see `formulas`): each table is indexed once, each name by its
position, and a build writes the codes from that index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence

from .formulas import NAE, SAT, Codes, VerificationReport
from .oracle import (
    BoundaryPredicate,
    check_extension_property,
    extending_patterns,
    report_mismatch,
    sat_codes,
)

# A parsed clause table: one tuple of (name, negated) pairs per clause.
Table = tuple[tuple[tuple[str, bool], ...], ...]


def parse_table(lines: Iterable[str]) -> Table:
    """Parse clause lines such as "~a b x", one clause per non-blank line."""
    return tuple(
        tuple((t[1:], True) if t.startswith("~") else (t, False) for t in line.split())
        for line in lines
        if line.strip()
    )


class FreshAllocator:
    """Hands out strictly increasing variable ids, never colliding."""

    def __init__(self, next_id: int = 0):
        self.next_id = next_id

    def fresh(self, k: int) -> list[int]:
        out = list(range(self.next_id, self.next_id + k))
        self.next_id += k
        return out


@dataclass(frozen=True)
class GadgetInstance:
    kind: str
    boundary: tuple[int, ...]  # slot values; repetitions permitted
    aux: tuple[int, ...]
    clauses: Codes
    predicate: BoundaryPredicate  # over the distinct boundary variables
    mode: str
    parts: tuple = ()  # sub-gadgets of composite kinds
    connectors: Codes = ()  # composite clauses outside any part


def _any_true(s):
    return any(s)


def _any_false(s):
    return not all(s)


def _all_equal(s):
    return all(b == s[0] for b in s)


def _differ(s):
    return s[0] != s[1]


def _always(s):
    return True


def _chain22(s):
    return s[0] == s[2] == s[4] and s[1] == s[3] == s[5] and s[0] != s[1]


def _chain22_neg(s):
    return not (s[0] and s[1] and s[5]) and not (s[2] and s[3] and s[4])


@dataclass(frozen=True)
class GadgetRow:
    """One catalogue row.  A composite row lists its parts as (kind, slot
    names) pairs, each kind a catalogue row; its table holds the connector
    clauses over its slots and auxiliary names.  Every name in the table or
    a part's slot list that is not a slot names one of the row's own
    auxiliaries, which take ids in sorted name order."""

    name: str
    num_aux: int  # every auxiliary of a built instance, parts' included
    num_clauses: int
    mode: str
    slot_predicate: Callable
    slots: tuple[str, ...]
    table: Table = ()
    parts: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @cached_property
    def aux_names(self) -> tuple[str, ...]:
        names = {name for c in self.table for name, _ in c}
        names.update(name for _, slots in self.parts for name in slots)
        return tuple(sorted(names.difference(self.slots)))


_NE6 = parse_table("""
x y a
x y b
a b u
a b v
a b w
u v w
""".splitlines())

_P1 = parse_table("""
x a b
a c d
a b e
a d e
b c d
b c e
c d e
""".splitlines())

_NE9 = parse_table("""
x a b
y c d
y e f
c e f
b c e
a c f
a d e
a b d
b d f
""".splitlines())

_EQ13 = parse_table("""
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
""".splitlines())

_EQ4L = parse_table("""
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
""".splitlines())

_S = parse_table("""
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
""".splitlines())

_A = parse_table("""
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
""".splitlines())

_D = parse_table("""
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
""".splitlines())

_G = parse_table("""
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
""".splitlines())

_H = parse_table("""
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
""".splitlines())

_C12 = parse_table("""
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
""".splitlines())

_INC32 = parse_table("""
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
""".splitlines())

_CHAIN22 = parse_table("""
x1 x2
~x2 ~x3
x3 x4
~x4 ~x5
x5 x6
~x6 ~x1
""".splitlines())

_CHAIN22_NEG = parse_table("""
~x1 ~x2 ~x6
~x3 ~x4 ~x5
""".splitlines())

_STAR22 = parse_table("""
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
""".splitlines())


def _flip_table(table: Table) -> Table:
    return tuple(tuple((name, not negated) for name, negated in c) for c in table)


_XY = ("x", "y")
_XYZ = ("x", "y", "z")
_X6 = ("x1", "x2", "x3", "x4", "x5", "x6")
_B_SLOTS = (("u", "x"), ("v", "y"), ("w", "z"))

CATALOGUE: dict[str, GadgetRow] = {row.name: row for row in (
    GadgetRow("NE6", 5, 6, NAE, _differ, _XY, _NE6),
    GadgetRow(
        "EQ_NE", 13, 14, NAE, _all_equal, _XY, parse_table(["x q r", "y q r"]),
        parts=(("NE6", ("p", "q")), ("NE6", ("p", "r"))),
    ),
    GadgetRow("P1", 5, 7, NAE, _always, ("x",), _P1),
    GadgetRow("NE9", 6, 9, NAE, _differ, _XY, _NE9),
    GadgetRow("EQ13", 9, 13, NAE, _all_equal, _XY, _EQ13),
    GadgetRow("EQ4L", 6, 12, NAE, _all_equal, ("x", "y", "z", "u"), _EQ4L),
    GadgetRow("S", 6, 13, SAT, _any_true, _XYZ, _S),
    GadgetRow("SBAR", 6, 13, SAT, _any_false, _XYZ, _flip_table(_S)),
    GadgetRow("A", 4, 10, SAT, _any_false, _XY, _A),
    GadgetRow("D", 9, 20, SAT, _any_true, _X6, _D),
    GadgetRow(
        "F", 30, 61, SAT, _any_true, ("y",), parse_table(["~u1 ~u2 ~u3"]),
        parts=tuple(("D", ("y",) + (u,) * 5) for u in ("u1", "u2", "u3")),
    ),
    GadgetRow("G", 6, 11, SAT, _any_true, _XYZ, _G),
    GadgetRow("H", 9, 16, SAT, _any_false, _XYZ, _H),
    GadgetRow("C12", 8, 12, SAT, _any_true, _XY, _C12),
    GadgetRow("C12BAR", 8, 12, SAT, _any_false, _XY, _flip_table(_C12)),
    GadgetRow(
        "B", 27, 37, SAT, _any_true, _XYZ, parse_table(["~u ~v ~w"]),
        parts=tuple(("C12", slots) for slots in _B_SLOTS),
    ),
    GadgetRow(
        "BBAR", 27, 37, SAT, _any_false, _XYZ, parse_table(["u v w"]),
        parts=tuple(("C12BAR", slots) for slots in _B_SLOTS),
    ),
    GadgetRow("CHAIN22", 0, 6, SAT, _chain22, _X6, _CHAIN22),
    GadgetRow("CHAIN22_NEG", 0, 2, SAT, _chain22_neg, _X6, _CHAIN22_NEG),
    GadgetRow("STAR22", 9, 18, SAT, _all_equal, _X6, _STAR22),
    GadgetRow("INC32", 6, 13, SAT, _always, _XYZ, _INC32),
)}

GADGET_NAMES = tuple(CATALOGUE)


def predicate_for(kind: str, boundary: Sequence[int]) -> BoundaryPredicate:
    """Materialize the row's slot predicate over the distinct boundary
    variables; ValueError if the boundary makes a table line gain a repeat."""
    idx: dict[int, int] = {}
    shape = tuple(idx.setdefault(v, len(idx)) for v in boundary)
    line = _merged_line(kind, shape)
    if line is not None:
        raise ValueError(
            f"{kind}{tuple(boundary)}: substitution makes clause '{line}' repeat a variable"
        )
    return BoundaryPredicate(tuple(idx), _accepted(kind, shape))


@cache
def _accepted(kind: str, shape: tuple[int, ...]) -> frozenset[int]:
    """The accepted patterns of a row whose slot j holds distinct boundary
    variable shape[j]; bit i of a pattern is distinct variable i."""
    slot_predicate = CATALOGUE[kind].slot_predicate
    width = len(set(shape))
    return frozenset(
        p for p in range(1 << width)
        if slot_predicate(tuple(bool((p >> i) & 1) for i in shape))
    )


@cache
def _merged_line(kind: str, shape: tuple[int, ...]) -> str | None:
    """The first table line in which the shape puts one boundary variable in
    two slots, as text, or None; auxiliaries are fresh, so only slots merge."""
    row = CATALOGUE[kind]
    var_of = dict(zip(row.slots, shape))
    for c in row.table:
        names = {name for name, _ in c}
        if len({var_of.get(name, name) for name in names}) != len(names):
            return " ".join(("~" if neg else "") + name for name, neg in c)
    return None


@cache
def _indexed_table(kind: str) -> Codes:
    """The row's table with each literal as 2·position | negated, counting
    the slots then the auxiliary names: indices into a build's literal codes."""
    row = CATALOGUE[kind]
    position = {name: i for i, name in enumerate(row.slots + row.aux_names)}
    return tuple(tuple(position[name] << 1 | neg for name, neg in c) for c in row.table)


def build_gadget(
    kind: str, boundary: Sequence[int], alloc: FreshAllocator
) -> GadgetInstance:
    """Instantiate a catalogue gadget on the given boundary variables.

    Boundary entries may repeat (e.g. D(y, u, u, u, u, u)) as long as no
    table line gains a repeated variable (checked first, by `predicate_for`)
    and the allocator's next id lies above every boundary variable.  The
    row's named auxiliaries are drawn fresh from the allocator first, then
    its parts are built in order, then its own table is instantiated; a
    composite's clauses are its parts' clauses followed by its connectors.
    """
    row = CATALOGUE[kind]
    boundary = tuple(boundary)
    if len(boundary) != len(row.slots):
        raise ValueError(
            f"{kind} takes {len(row.slots)} boundary variables, got {len(boundary)}"
        )
    if max(boundary) >= alloc.next_id:
        raise ValueError(f"{kind}{boundary}: fresh ids from {alloc.next_id} meet the boundary")
    predicate = predicate_for(kind, boundary)
    values = boundary + tuple(alloc.fresh(len(row.aux_names)))
    var_of = dict(zip(row.slots + row.aux_names, values))
    parts = tuple(build_gadget(k, [var_of[s] for s in slots], alloc) for k, slots in row.parts)
    lits = [x for v in values for x in (v << 1, v << 1 | 1)]
    own = tuple([tuple([lits[i] for i in c]) for c in _indexed_table(kind)])
    return GadgetInstance(
        kind, boundary, values[len(boundary):] + tuple(v for p in parts for v in p.aux),
        tuple(c for p in parts for c in p.clauses) + own, predicate, row.mode,
        parts=parts, connectors=own if parts else (),
    )


def fresh_instance(kind: str) -> GadgetInstance:
    """The gadget on distinct fresh boundary variables 0..len(slots)-1."""
    n = len(CATALOGUE[kind].slots)
    return build_gadget(kind, tuple(range(n)), FreshAllocator(n))


def verify_gadget(kind: str) -> VerificationReport:
    """Certify a catalogue row's declared accepted set.

    A row without parts is checked by direct exhaustive extension checking;
    a composite row is verified compositionally (`verify_composite`).
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
    return verify_composite(g) if g.parts else check_extension_property(g)


def verify_composite(g: GadgetInstance) -> VerificationReport:
    """Verify a composite gadget from its parts' certified predicates.

    Each part is certified first: by enumeration, or by this function when
    it has parts of its own.  Then the boundary-plus-linking abstraction is
    enumerated, by the same kernel call as `check_extension_property`, with
    each part's predicate in place of its clauses: one blocking clause per
    pattern the part rejects.  That is sound when the gadget's clauses are
    exactly its parts' clauses plus its connectors, every part is in the
    gadget's mode, the parts share no auxiliary variable, and no part
    auxiliary is a linking variable (a variable of the gadget's boundary or
    of a part's boundary, the only ones a connector may use); all of this is
    checked here.
    """
    for part in g.parts:
        verify = verify_composite if part.parts else check_extension_property
        rep = verify(part)
        if not rep.ok:
            return VerificationReport(
                False, f"{g.kind}: part {part.kind} failed: {rep.reason}", rep.witness
            )
    premise = _composite_premise(g)
    if premise is not None:
        return VerificationReport(False, f"{g.kind}: {premise}", ("premise", g.kind))
    boundary = g.predicate.boundary
    aux = list(dict.fromkeys(
        v for part in g.parts for v in part.predicate.boundary if v not in boundary
    ))
    # literal (v << 1) | bit is true exactly when v differs from bit
    codes = [
        [(v << 1) | ((p >> j) & 1) for j, v in enumerate(part.predicate.boundary)]
        for part in g.parts
        for p in range(1 << len(part.predicate.boundary))
        if p not in part.predicate.accepted
    ]
    codes += sat_codes(g.connectors, g.mode)
    return report_mismatch(g, extending_patterns(boundary, aux, codes))


def _composite_premise(g: GadgetInstance) -> str | None:
    """The first broken premise of the compositional argument, or None."""
    if Counter(g.clauses) != Counter(
        [c for part in g.parts for c in part.clauses] + list(g.connectors)
    ):
        return "clauses are not exactly the parts' clauses plus the connectors"
    linking = set(g.predicate.boundary)
    for part in g.parts:
        linking.update(part.predicate.boundary)
    seen: set[int] = set()
    for part in g.parts:
        if part.mode != g.mode:
            return f"part {part.kind} is in {part.mode} mode, not {g.mode}"
        if seen & set(part.aux):
            return f"part {part.kind} shares auxiliaries with another part"
        if linking & set(part.aux):
            return f"part {part.kind} has a linking variable among its auxiliaries"
        seen.update(part.aux)
    for c in g.connectors:
        for x in c:
            if x >> 1 not in linking:
                return f"connector uses a non-linking variable {x >> 1}"
    return None
