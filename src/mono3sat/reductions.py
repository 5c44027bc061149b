"""Executable polynomial reductions between the restricted variants.

Every reduction validates its input against the catalogued input variant,
emits a certificate carrying the output instance, a variable back-map for
model pull-back, and a log tracing every introduced variable to the gadget
or structural role that created it.  Gadget-to-clause assignment orders
follow input clause order, so outputs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .formulas import (
    NAE,
    SAT,
    MONOTONE_NAE,
    MONOTONE_SAT,
    CnfInstance,
    Codes,
    VariantSpec,
    VerificationReport,
    _repeating_clause,
    appearance_profile,
    evaluate,
    monotone_sat,
    negate_rename,
    negative,
    positive,
    total,
    validate,
)
from .gadgets import FreshAllocator, GadgetInstance, build_gadget
from .generate import (
    random_22,
    random_32,
    random_k1,
    random_kk,
    random_monotone_nae,
    random_nae_e4,
    random_nae_star,
)
from .oracle import solve_auto, solve_dpll, split_forced


class ReductionInputError(ValueError):
    pass


class BackMapViolation(ValueError):
    pass


@dataclass(frozen=True)
class LogEntry:
    label: str  # gadget kind or structural role ("COPY2", "M_GADGET", ...)
    boundary: tuple[int, ...]
    aux: tuple[int, ...]


@dataclass(frozen=True)
class ReductionCertificate:
    rid: str
    input: CnfInstance
    output: CnfInstance
    # output variable -> (input variable, True when the output variable is
    # intended to carry the negated value)
    back_map: dict[int, tuple[int, bool]]
    gadget_log: tuple[LogEntry, ...]

    def untraced_variables(self) -> list[int]:
        covered = set(self.back_map)
        for e in self.gadget_log:
            covered.update(e.boundary)
            covered.update(e.aux)
        return [v for v in range(self.output.num_vars) if v not in covered]


@dataclass(frozen=True)
class ReductionRow:
    """One catalogued reduction: its variants, its construction and a sampler
    of small random valid inputs.

    The spec functions take k on the k-lifting rows and nothing otherwise.
    apply fills a _Builder made for the input; sample(rng) returns an input
    and its k (None on rows without k), small enough for the exhaustive
    oracle to decide directly.
    """

    rid: str
    input_mode: str
    output_mode: str
    summary: str
    input_spec: Callable[..., VariantSpec]
    output_spec: Callable[..., VariantSpec]
    apply: Callable[["_Builder"], None]
    sample: Callable[[random.Random], tuple[CnfInstance, int | None]]
    needs_k: bool = False
    needs_param: bool = False

    def specs(self, k: int | None = None) -> tuple[VariantSpec, VariantSpec]:
        """The (input, output) variant specs, at k on the k-lifting rows."""
        args = (k,) if self.needs_k else ()
        return self.input_spec(*args), self.output_spec(*args)


def _spec_22() -> VariantSpec:
    return VariantSpec(profile=frozenset({(2, 2)}))


_NAE_MONO = VariantSpec(monotone=MONOTONE_NAE)
_NAE_E4 = VariantSpec(monotone=MONOTONE_NAE, profile=total(4))
_NAE_E4_LINEAR = VariantSpec(monotone=MONOTONE_NAE, profile=total(4), linear="linear")
_NAE_STAR = VariantSpec(duplicates=True, distinct_clauses=False)
_CHOICE_31 = VariantSpec(monotone=MONOTONE_SAT, profile=frozenset({(3, 1), (1, 3)}))


# ---------------------------------------------------------------------------
# Shared construction helpers


class _Builder:
    """Accumulates the output clauses (as literal codes), back-map and trace
    log of one row."""

    def __init__(
        self,
        row: ReductionRow,
        inst: CnfInstance,
        k: int | None = None,
        param: CnfInstance | None = None,
    ):
        self.row = row
        self.input = inst
        self.k = k
        self.param = param
        self.alloc = FreshAllocator(0)
        self.clauses: list[tuple[int, ...]] = []
        self.back_map: dict[int, tuple[int, bool]] = {}
        self.log: list[LogEntry] = []

    def add_gadget(self, kind: str, boundary) -> GadgetInstance:
        g = build_gadget(kind, boundary, self.alloc)
        self.clauses.extend(g.clauses)
        self.log.append(LogEntry(kind, tuple(boundary), g.aux))
        return g

    def note(self, label: str, variables) -> None:
        self.log.append(LogEntry(label, tuple(variables), ()))

    def fresh(self, label: str, n: int = 1) -> int:
        """n fresh consecutive variables logged under label; the first id."""
        base = self.alloc.next_id
        self.note(label, self.alloc.fresh(n))
        return base

    def finish(self) -> ReductionCertificate:
        rid = self.row.rid
        out = CnfInstance.from_codes(self.alloc.next_id, self.clauses, self.row.output_mode)
        _, spec = self.row.specs(self.k)
        rep = validate(out, spec)
        if not rep.ok:
            raise AssertionError(
                f"{rid}: output violates its variant spec: {rep.reason}"
            )
        cert = ReductionCertificate(rid, self.input, out, self.back_map, tuple(self.log))
        untraced = cert.untraced_variables()
        if untraced:
            raise AssertionError(f"{rid}: untraced output variables {untraced}")
        return cert


def _split(b: _Builder, plan, keep_negations: bool = False):
    """Replace every appearance of each input variable by one of its copies.

    plan(u, q), for a variable with u unnegated and q negated appearances,
    gives the copy index of each unnegated appearance, the copy index of each
    negated appearance, and per copy its back-map negation.  Appearances are
    numbered by scanning clauses in order and literals left to right.  A
    negated appearance stays a negative literal only with keep_negations.
    Appends the rebuilt input clauses, in which no two appearances in a
    clause may share a copy, and returns the copies of each input variable.
    """
    queues = []  # per input literal code, its appearances' output codes in order
    copies = []
    for v, (u, q) in enumerate(appearance_profile(b.input)):
        unneg, negd, negations = plan(u, q)
        vc = b.alloc.fresh(len(negations))
        copies.append(vc)
        for c, flip in zip(vc, negations):
            b.back_map[c] = (v, flip)
        queues.append(iter([vc[j] << 1 for j in unneg]))
        queues.append(iter([vc[j] << 1 | keep_negations for j in negd]))
    rebuilt = [tuple([next(queues[x]) for x in c]) for c in b.input.codes]
    i = _repeating_clause(rebuilt)
    if i is not None:
        raise AssertionError(f"{b.row.rid}: the split gives clause {i} one copy twice")
    b.clauses += rebuilt
    return copies


def _keep_input(b: _Builder, flipped: frozenset[int] = frozenset()) -> None:
    """Input variable v as output variable v, and the input clauses; the
    literals of the variables in flipped are negated and those variables
    back-mapped as carrying the negated value."""
    inst = b.input
    b.alloc.fresh(inst.num_vars)
    for v in range(inst.num_vars):
        b.back_map[v] = (v, v in flipped)
    if flipped:
        inst = negate_rename(inst, flipped)
    b.clauses += inst.codes


def _ring_plan(u: int, q: int):
    """One copy per (unnegated) appearance, carrying the input value."""
    return range(u), (), (False,) * u


def _check_input(
    row: ReductionRow, inst: CnfInstance, k: int | None, param: CnfInstance | None
):
    if row.needs_k and k is None:
        raise ReductionInputError(f"{row.rid} needs the appearance parameter k")
    if not row.needs_k and k is not None:
        raise ReductionInputError(f"{row.rid} takes no appearance parameter k")
    if row.needs_param and param is None:
        raise ReductionInputError(
            f"{row.rid} needs an unsatisfiable Monotone 3-Sat-(2,2) parameter instance"
        )
    if not row.needs_param and param is not None:
        raise ReductionInputError(f"{row.rid} takes no parameter instance")
    if param is not None and param.mode != SAT:
        raise ReductionInputError(
            f"{row.rid} expects a sat-mode parameter instance, got {param.mode}"
        )
    if inst.mode != row.input_mode:
        raise ReductionInputError(
            f"{row.rid} expects a {row.input_mode}-mode instance, got {inst.mode}"
        )
    spec, _ = row.specs(k)
    rep = validate(inst, spec)
    if not rep.ok:
        raise ReductionInputError(f"{row.rid} input invalid: {rep.reason}")


# ---------------------------------------------------------------------------
# R1 / R2 / R3: NAE splitting rings


def _apply_r1(b: _Builder) -> None:
    for copies in _split(b, _ring_plan):
        a = len(copies)
        for j in range(a):
            b.add_gadget("EQ_NE", (copies[j], copies[(j + 1) % a]))
        if a == 1:
            # the degenerate ring EQ(c, c) repeats its closing clause; keep one
            c = b.clauses.pop()
            if c != b.clauses[-1]:
                raise AssertionError(f"R1: EQ_NE on copy {copies[0]} ends in no repeated clause")
    _pad_to_four(b)


def _pad_to_four(b: _Builder):
    counts = [0] * b.alloc.next_id
    for c in b.clauses:
        for x in c:
            counts[x >> 1] += 1
    for v in range(len(counts)):
        if counts[v] > 4:
            raise AssertionError(f"variable {v} already appears {counts[v]} times")
        for _ in range(4 - counts[v]):
            b.add_gadget("P1", (v,))


def _apply_r2(b: _Builder) -> None:
    # unnegated appearances take the first u copies, negated ones the rest;
    # the negations are dropped, so those copies carry the complement
    rings = _split(b, lambda u, q: (
        range(u), range(u, u + q), (False,) * u + (True,) * q))
    for copies, (u, _) in zip(rings, appearance_profile(b.input)):
        a = len(copies)
        if a == 0:
            continue
        for j in range(u - 1):
            b.add_gadget("EQ13", (copies[j], copies[j + 1]))
        for j in range(u, a - 1):
            b.add_gadget("EQ13", (copies[j], copies[j + 1]))
        if 0 < u < a:
            b.add_gadget("NE9", (copies[u - 1], copies[u]))
            b.add_gadget("NE9", (copies[a - 1], copies[0]))
        else:
            b.add_gadget("EQ13", (copies[a - 1], copies[0]))


def _apply_r3(b: _Builder) -> None:
    for copies in _split(b, _ring_plan):
        b.add_gadget("EQ4L", tuple(copies))


def _apply_r4(b: _Builder) -> None:
    _keep_input(b)
    b.clauses = [d for c in b.clauses for d in (c, tuple([x ^ 1 for x in c]))]


# ---------------------------------------------------------------------------
# R5 / R7 / R11 / R13: splitting 3-Sat-(2,2)


def _split_22(b: _Builder):
    """x_{i,1} takes the negated appearances, x_{i,2} the unnegated ones."""
    return _split(b, lambda u, q: ((1,) * u, (0,) * q, (True, False)))


def _apply_r5(b: _Builder) -> None:
    pairs = _split_22(b)
    for g in range(_thirds(b, len(pairs), "4n = 3m")):
        y = b.fresh("PAD_FALSE_Y")
        for i in range(3 * g, 3 * g + 3):
            x1, x2 = pairs[i]
            b.clauses.append(positive((x1, x2, y)))
            b.add_gadget("A", (x1, x2))
        b.add_gadget("SBAR", (y, y, y))


def _apply_r7(b: _Builder) -> None:
    pairs = _split_22(b)
    n = len(pairs)
    q = _thirds(b, n, "4n = 3m")
    ys = []
    for x1, x2 in pairs:
        y = b.fresh("Y_RING")
        ys.append(y)
        b.add_gadget("D", (x1, x1, x1, x2, x2, x2))
        b.clauses.append(negative((x1, x2, y)))
        b.add_gadget("F", (y,))
    if q > 1:
        pad = []
        for t in range(q):
            pad.append((ys[3 * t], ys[3 * t + 1], ys[3 * t + 2]))
        for t in range(1, q):
            pad.append((ys[3 * t - 2], ys[3 * t - 1], ys[3 * t]))
        pad.append((ys[n - 2], ys[n - 1], ys[0]))
        if len(set(map(tuple, map(sorted, pad)))) != len(pad):
            raise AssertionError("y-padding clauses must be pairwise distinct")
        b.clauses.extend(map(positive, pad))
    elif q == 1:
        b.add_gadget("D", (ys[0], ys[0], ys[1], ys[1], ys[2], ys[2]))


def _apply_r11(b: _Builder) -> None:
    pairs = _split_22(b)
    k = _thirds(b, len(pairs), "4n = 3m")
    blocks = [b.fresh("UVW_BLOCK", 3) for _ in range(k)]  # u; v = u + 1, w = u + 2
    for i, (x1, x2) in enumerate(pairs):
        u = blocks[i // 3]
        y = b.fresh("FORCED_TRUE_Y")
        b.clauses.append(positive((x1, x2, u)))
        b.clauses.append(negative((x1, x2, y)))
        b.add_gadget("G", (y, y, y))
        b.add_gadget("H", (y, x1, x2))
    for u in blocks:
        v, w = u + 1, u + 2
        b.add_gadget("H", (u, v, w))
        b.add_gadget("H", (u, v, w))
        b.add_gadget("G", (v, v, v))
        b.add_gadget("G", (w, w, w))


def _apply_r13(b: _Builder) -> None:
    pairs = _split_22(b)
    for x1, x2 in pairs:
        y = b.fresh("FORCED_FALSE_Y")
        z = b.fresh("FORCED_TRUE_Z")
        b.clauses.append(positive((x1, x2, y)))
        b.clauses.append(negative((x1, x2, z)))
        b.add_gadget("BBAR", (y, y, y))
        b.add_gadget("B", (z, z, z))


# ---------------------------------------------------------------------------
# R6 / R8: lifting by disjoint copies


def _copies(b: _Builder, k: int) -> list[int]:
    """k+1 disjoint copies of the input; copy 0 carries the back-map.

    Returns the first variable of each copy, and none for an empty input:
    its copies are empty, and its variant leaves k unbounded.
    """
    inst = b.input
    n = inst.num_vars
    if n == 0:
        return []
    _keep_input(b)
    bases = [b.fresh(f"COPY{i}", n) for i in range(1, k + 1)]
    for base in bases:
        b.clauses.extend(_shifted(inst.codes, base))
    return [0] + bases


def _apply_r6(b: _Builder) -> None:
    k, n = b.k, b.input.num_vars
    bases = _copies(b, k)
    y_base, z_base = b.fresh("LINK_Y", n), b.fresh("LINK_Z", n)
    for base in bases:
        for j in range(n):
            link = (base + j, y_base + j, z_base + j)
            b.clauses.append(positive(link))
            b.clauses.append(negative(link))
    _check_size(b, (k + 1) * (b.input.num_clauses + 2 * n), (k + 3) * n)


def _apply_r8(b: _Builder) -> None:
    k, n = b.k, b.input.num_vars
    bases = _copies(b, k)
    q = _thirds(b, n, "each variable once negated, in negative 3-clauses")
    y_base, z_base = b.fresh("LINK_Y", n), b.fresh("LINK_Z", n)
    for base in bases:
        for j in range(n):
            b.clauses.append(positive((base + j, y_base + j, z_base + j)))
    for t in range(q):
        for base in (y_base, z_base):
            b.clauses.append(negative(range(base + 3 * t, base + 3 * t + 3)))
    _check_size(b, (k + 1) * (b.input.num_clauses + n) + 2 * q, (k + 3) * n)


def _shifted(codes, base: int) -> list[tuple[int, ...]]:
    """Copies of the clause codes with every variable moved up by base."""
    shift = 2 * base
    return [tuple([x + shift for x in c]) for c in codes]


def _thirds(b: _Builder, n: int, why: str) -> int:
    """n // 3, for an n the row's input variant makes a multiple of 3."""
    q, r = divmod(n, 3)
    if r:
        raise AssertionError(f"{b.row.rid}: n = {n} is not a multiple of 3 ({why})")
    return q


def _check_size(b: _Builder, num_clauses: int, num_vars: int) -> None:
    """The output size the row's formula predicts, checked before finish()."""
    got = (len(b.clauses), b.alloc.next_id)
    if got != (num_clauses, num_vars):
        raise AssertionError(
            f"{b.row.rid}: output has {got[0]} clauses and {got[1]} variables, "
            f"size formula gives {num_clauses} and {num_vars}"
        )


# ---------------------------------------------------------------------------
# R9: 6-way splitting with the multiset star gadget


def _split_six(b: _Builder, keep_negations: bool):
    """Each positive appearance becomes copy 1/3/5, each negated 2/4/6.

    With keep_negations the negated appearances stay negative literals and
    the star gadget forces all six copies equal, so every copy carries the
    input value.  Without it (chain construction) the negation is dropped:
    the even copies carry the complemented value.
    """
    flip = not keep_negations
    return _split(b, lambda u, q: ((0, 2, 4), (1, 3, 5), (False, flip) * 3), keep_negations)


def _apply_r9(b: _Builder) -> None:
    for six in _split_six(b, keep_negations=True):
        b.add_gadget("STAR22", tuple(six))


# ---------------------------------------------------------------------------
# R10: conditional reduction to Monotone 3-Sat-(2,2)


@dataclass(frozen=True)
class MGadget:
    """Clauses as codes over local variables 0..num_vars-1, plus the forced-false
    literal pools (3q positive and 3q negative literals, as multisets)."""

    num_vars: int
    clauses: Codes
    pos_pool: tuple[int, ...]  # variables whose positive literal is forced false
    neg_pool: tuple[int, ...]
    q: int


def build_m_gadget(param: CnfInstance) -> MGadget:
    """The satisfiable core plus forced literals, doubled with its polarity
    flip so the positive and negative pools balance."""
    try:
        core, forced = split_forced(param)
    except ValueError as exc:
        # apply_reduction has already rejected a parameter not in sat mode
        raise ReductionInputError("R10 parameter instance must be unsatisfiable") from exc
    q = param.num_clauses - len(core)
    if q == 0:
        raise ReductionInputError("parameter instance has no excluded clauses")
    nv = param.num_vars
    kept = [param.codes[i] for i in core]
    # then the flipped copy over shifted variables
    clauses = kept + [tuple([x ^ 1 for x in c]) for c in _shifted(kept, nv)]
    pos_pool: list[int] = []
    neg_pool: list[int] = []
    for x in forced:
        if x & 1:
            neg_pool.append(x >> 1)
            pos_pool.append((x >> 1) + nv)  # flipped copy
        else:
            pos_pool.append(x >> 1)
            neg_pool.append((x >> 1) + nv)
    if not len(pos_pool) == len(neg_pool) == 3 * q:
        raise AssertionError(
            f"M-gadget pools have {len(pos_pool)} and {len(neg_pool)} entries, "
            f"3q = {3 * q}"
        )
    return MGadget(2 * nv, tuple(clauses), tuple(pos_pool), tuple(neg_pool), q)


def _apply_r10(b: _Builder) -> None:
    rep = validate(b.param, monotone_sat(2, 2))
    if not rep.ok:
        raise ReductionInputError(
            f"R10 parameter is not a Monotone 3-Sat-(2,2) instance: {rep.reason}"
        )
    _assemble_r10(b, build_m_gadget(b.param))


def _assemble_r10(b: _Builder, mg: MGadget) -> None:
    q = mg.q
    n = b.input.num_vars
    # each six's CHAIN22 2-clauses by sign, positive then negative; each
    # gets a third literal of its sign from the M-gadgets' forced-false pool
    two: tuple[list, list] = ([], [])
    for copy in range(q):
        sixes = _split_six(b, keep_negations=False)
        if copy > 0:
            # only the first copy carries the back-map
            for six in sixes:
                for cid in six:
                    del b.back_map[cid]
                b.note(f"COPY{copy}", tuple(six))
        for six in sixes:
            # CHAIN22 has no auxiliaries, so building it draws no ids
            for c in build_gadget("CHAIN22", six, b.alloc).clauses:
                two[c[0] & 1].append(c)
            b.add_gadget("CHAIN22_NEG", six)
    pools: tuple[list, list] = ([], [])
    for _ in range(n):
        base = b.fresh("M_GADGET", mg.num_vars)
        b.clauses.extend(_shifted(mg.clauses, base))
        pools[0].extend(base + v for v in mg.pos_pool)
        pools[1].extend(base + v for v in mg.neg_pool)
    for sign in (0, 1):
        if not len(pools[sign]) == len(two[sign]) == 3 * n * q:
            raise AssertionError(
                f"R10: {len(pools[sign])} pad variables for {len(two[sign])} "
                f"2-clauses, 3nq = {3 * n * q}"
            )
        b.clauses.extend(c + (pad << 1 | sign,) for c, pad in zip(two[sign], pools[sign]))


# ---------------------------------------------------------------------------
# R12 / R14


def _apply_r12(b: _Builder) -> None:
    n = b.input.num_vars
    _thirds(b, n, "2n negated appearances fill negative 3-clauses")
    _keep_input(b)
    for t in range(0, n, 3):
        b.add_gadget("INC32", (t, t + 1, t + 2))


def _apply_r14(b: _Builder) -> None:
    prof = appearance_profile(b.input)
    flipped = frozenset(v for v, (p, q) in enumerate(prof) if (p, q) == (1, 3))
    _keep_input(b, flipped)


# ---------------------------------------------------------------------------
# Input samplers: one per input variant, at sizes the exhaustive oracle
# decides directly


def _sample_nae(rng):
    return random_monotone_nae(rng.randint(5, 7), rng.randint(3, 6), rng), None


def _sample_nae_star(rng):
    return random_nae_star(rng.randint(2, 5), rng.randint(2, 6), rng), None


def _sample_nae_e4(rng):
    return random_nae_e4(rng.choice((6, 9)), rng), None


def _sample_nae_e4_linear(rng):
    return apply_reduction("R3", random_nae_e4(6, rng)).output, None


def _sample_22(rng):
    return random_22(rng.choice((3, 6)), rng), None


def _sample_kk(rng):
    k = rng.choice((1, 2, 3))
    return random_kk(6, k, rng), k


def _sample_k1(rng):
    k = rng.choice((1, 2, 3))
    return random_k1(rng.choice((6, 9)), k, rng), k


def _sample_33(rng):
    return random_kk(6, 3, rng), None


def _sample_32(rng):
    return random_32(rng.choice((6, 9)), rng), None


def _sample_choice_31(rng):
    return apply_reduction("R13", random_22(3, rng)).output, None


# ---------------------------------------------------------------------------
# The catalogue


REDUCTIONS: dict[str, ReductionRow] = {row.rid: row for row in (
    ReductionRow(
        "R1", NAE, NAE,
        "Monotone NAE-3-Sat -> Monotone NAE-3-Sat-E4 (equality rings + padding)",
        lambda: _NAE_MONO, lambda: _NAE_E4,
        _apply_r1, _sample_nae),
    ReductionRow(
        "R2", NAE, NAE,
        "NAE-3-Sat* -> Monotone NAE-3-Sat-E4 (equality/non-equality rings)",
        lambda: _NAE_STAR, lambda: _NAE_E4,
        _apply_r2, _sample_nae_star),
    ReductionRow(
        "R3", NAE, NAE,
        "Monotone NAE-3-Sat-E4 -> linear Monotone NAE-3-Sat-E4",
        lambda: _NAE_E4, lambda: _NAE_E4_LINEAR,
        _apply_r3, _sample_nae_e4),
    ReductionRow(
        "R4", NAE, SAT,
        "linear Monotone NAE-3-Sat-E4 -> Monotone 3-Sat-(4,4) (clause doubling)",
        lambda: _NAE_E4_LINEAR, lambda: monotone_sat(4, 4),
        _apply_r4, _sample_nae_e4_linear),
    ReductionRow(
        "R5", SAT, SAT,
        "3-Sat-(2,2) -> Monotone 3-Sat-(3,3) (variable splitting + A + SBAR)",
        _spec_22, lambda: monotone_sat(3, 3),
        _apply_r5, _sample_22),
    ReductionRow(
        "R6", SAT, SAT,
        "Monotone 3-Sat-(k,k) -> (k+1,k+1) (k+1 disjoint copies + C_inc pairs)",
        lambda k: monotone_sat(k, k), lambda k: monotone_sat(k + 1, k + 1),
        _apply_r6, _sample_kk, needs_k=True),
    ReductionRow(
        "R7", SAT, SAT,
        "3-Sat-(2,2) -> Monotone 3-Sat-(5,1) (D + F + y-padding rings)",
        _spec_22, lambda: monotone_sat(5, 1),
        _apply_r7, _sample_22),
    ReductionRow(
        "R8", SAT, SAT,
        "Monotone 3-Sat-(k,1) -> (k+1,1) (copies + positive links + negative triples)",
        lambda k: monotone_sat(k, 1), lambda k: monotone_sat(k + 1, 1),
        _apply_r8, _sample_k1, needs_k=True),
    ReductionRow(
        "R9", SAT, SAT,
        "Monotone 3-Sat-(3,3) -> Monotone 3-Sat*-(2,2) (6-way splitting + STAR22)",
        lambda: monotone_sat(3, 3),
        lambda: VariantSpec(
            duplicates=True, monotone=MONOTONE_SAT, profile=frozenset({(2, 2)})),
        _apply_r9, _sample_33),
    ReductionRow(
        "R10", SAT, SAT,
        "Monotone 3-Sat-(3,3) -> Monotone 3-Sat-(2,2), given an unsat (2,2) instance",
        lambda: monotone_sat(3, 3), lambda: monotone_sat(2, 2),
        _apply_r10, _sample_33, needs_param=True),
    ReductionRow(
        "R11", SAT, SAT,
        "3-Sat-(2,2) -> Monotone 3-Sat-(3,2) (G + H + padding blocks)",
        _spec_22, lambda: monotone_sat(3, 2),
        _apply_r11, _sample_22),
    ReductionRow(
        "R12", SAT, SAT,
        "Monotone 3-Sat-(3,2) -> (4,2) (appearance increase per variable triple)",
        lambda: monotone_sat(3, 2), lambda: monotone_sat(4, 2),
        _apply_r12, _sample_32),
    ReductionRow(
        "R13", SAT, SAT,
        "3-Sat-(2,2) -> Monotone 3-Sat-E4 with per-variable profile (3,1) or (1,3)",
        _spec_22, lambda: _CHOICE_31,
        _apply_r13, _sample_22),
    ReductionRow(
        "R14", SAT, SAT,
        "Monotone E4 {(3,1),(1,3)} -> 3-Sat-E4 uniform (3,1) (negation renaming)",
        lambda: _CHOICE_31,
        lambda: VariantSpec(profile=frozenset({(3, 1)})),
        _apply_r14, _sample_choice_31),
)}


def apply_reduction(
    rid: str,
    inst: CnfInstance,
    k: int | None = None,
    param: CnfInstance | None = None,
) -> ReductionCertificate:
    """Run a catalogued reduction, validating input and output variants."""
    if rid not in REDUCTIONS:
        raise KeyError(f"unknown reduction {rid!r}")
    row = REDUCTIONS[rid]
    _check_input(row, inst, k, param)
    b = _Builder(row, inst, k, param)
    row.apply(b)
    return b.finish()


def check_equisat(
    cert: ReductionCertificate, timeout: float | None = None
) -> VerificationReport:
    """Decide both sides of a certificate, the input by `solve_auto` and the
    output by DPLL, and pull a sat output's model back to the input."""
    left = solve_auto(cert.input, timeout=timeout)
    right = solve_dpll(cert.output, timeout=timeout)
    if "indeterminate" in (left.status, right.status):
        return VerificationReport(False, "indeterminate: oracle timeout", None)
    if left.status != right.status:
        return VerificationReport(
            False,
            f"{cert.rid}: input is {left.status} but output is {right.status}",
            {"input_status": left.status, "output_status": right.status},
        )
    if right.status == "sat":
        try:
            pull_back(cert, right.model)
        except BackMapViolation as exc:
            return VerificationReport(
                False, f"{cert.rid}: pull-back failed: {exc}", {"model": right.model}
            )
    return VerificationReport(True, f"both {left.status}")


def pull_back(cert: ReductionCertificate, model) -> tuple:
    """Map a satisfying output model back to an input assignment."""
    out = cert.output
    if len(model) != out.num_vars:
        raise ValueError("model length does not match the output instance")
    if not evaluate(out, model):
        raise ValueError("model does not satisfy the output instance")
    values: dict[int, bool] = {}
    for out_v, (in_v, negated) in cert.back_map.items():
        val = bool(model[out_v]) ^ negated
        if in_v in values and values[in_v] != val:
            raise BackMapViolation(
                f"output variables mapping to input {in_v} disagree "
                f"(at output variable {out_v})"
            )
        values[in_v] = val
    assignment = tuple(values.get(i, False) for i in range(cert.input.num_vars))
    if not evaluate(cert.input, assignment):
        raise BackMapViolation(
            "pulled-back assignment does not satisfy the input instance"
        )
    return assignment
