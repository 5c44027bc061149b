"""Ground-truth decision procedures.

Exhaustive enumeration (bounded by a variable cap), an exact DPLL solver
with unit propagation and clause learning, whose every decision is its
branching rule's (there is no pure-literal elimination) and whose input is
prepared in one pass over the instance's own variables (which, when some
clause is binary, also substitutes one literal for each class of
equivalent literals: strongly connected components of the binary
implication graph), extension checking for gadget boundary predicates,
and subsumption.

Enumeration runs on the pure-Python big-integer kernel in _bitkernel, which
this module alone calls.  Each kernel call splits every clause once, into a
truth table over the variables that vary inside a chunk of the assignment
space and a condition on the others, then walks the chunks as a tree over
those other variables and skips every subtree that no assignment satisfies.
It gives the smallest model, or, for extension checking, every boundary
pattern that extends, in one walk.  Both solvers decide sat-mode clauses
only: nae clauses are mirrored once, by `sat_codes`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

from . import _bitkernel
from .formulas import (
    NAE,
    CnfInstance,
    VerificationReport,
    assignment_from_bits,
    evaluate,
)


def backend_name() -> str:
    """Name of the enumeration kernel, recorded with benchmark runs."""
    return "python"


ENUM_CAP = 26  # the most variables exhaustive enumeration takes


def enum_cap() -> int:
    """ENUM_CAP, read through this call by the benchmark's workloads."""
    return ENUM_CAP


class CapExceededError(RuntimeError):
    def __init__(self, needed: int):
        super().__init__(
            f"enumeration over {needed} variables exceeds cap {ENUM_CAP}; "
            "solve_dpll decides larger instances"
        )
        self.needed = needed


class SolveResult(NamedTuple):
    status: str  # "sat" | "unsat" | "indeterminate"
    model: tuple | None  # tuple[bool, ...] when status == "sat"


def clause_masks(codes: Iterable[Sequence[int]], var_map=None) -> list[tuple[int, int]]:
    """(positive, negative) variable bitmasks per clause of literal codes,
    optionally remapped."""
    out = []
    for c in codes:
        pos = 0
        neg = 0
        for x in c:
            bit = 1 << (x >> 1 if var_map is None else var_map[x >> 1])
            if x & 1:
                neg |= bit
            else:
                pos |= bit
        out.append((pos, neg))
    return out


def sat_codes(codes: Iterable[Sequence[int]], mode: str) -> list[Sequence[int]]:
    """Sat-mode clauses equivalent to the codes under mode: in nae mode each
    clause's literal-wise negation (`x ^ 1`) follows all of them, in order
    (the paper's clause doubling, R4), as some literal must also be false."""
    out = list(codes)
    if mode == NAE:
        out += [[x ^ 1 for x in c] for c in out]
    return out


def solve_exhaustive(inst: CnfInstance) -> SolveResult:
    """Exact result by enumerating all 2^n assignments (n capped)."""
    if inst.num_vars > ENUM_CAP:
        raise CapExceededError(inst.num_vars)
    bits = _bitkernel.solve(inst.num_vars, clause_masks(sat_codes(inst.codes, inst.mode)))
    if bits is None:
        return SolveResult("unsat", None)
    return _checked_model(inst, assignment_from_bits(bits, inst.num_vars), "enumeration kernel")


def _checked_model(inst: CnfInstance, model: tuple[bool, ...], solver: str) -> SolveResult:
    """A sat result, after re-evaluating the model against the instance."""
    if not evaluate(inst, model):
        raise AssertionError(f"{solver} returned an assignment that is not a model")
    return SolveResult("sat", model)


# ---------------------------------------------------------------------------
# DPLL


def _dpll_clauses(inst: CnfInstance) -> tuple[list[list[int]], list[int] | None] | None:
    """`_dpll`'s clauses for the instance, over its own variables, and the
    lift; None when an empty clause, or a literal equivalent to its
    negation, makes the instance unsat.

    Repeated literals are merged and tautological clauses dropped before the
    nae mirror is added (`sat_codes`).  A clause of three distinct
    variables, the shape of every catalogued variant's clauses, needs
    neither and is only sorted.  When some clause is binary, equivalent
    literals are substituted (Brafman 2001): every literal becomes rep[x],
    the smallest literal of its class (`_literal_classes`), clauses this
    makes tautological are dropped, and lift[v] = rep[2v] is the literal
    that variable v equals.  The lift is None when no clause is binary.
    """
    out = []
    binary = False
    for c in inst.codes:
        if len(c) == 3:
            a, b, d = c
            if (a ^ b) > 1 and (a ^ d) > 1 and (b ^ d) > 1:
                out.append(sorted(c))
                continue
        lits = set(c)
        if len({lit >> 1 for lit in lits}) < len(lits):
            continue  # tautology: some variable occurs in both polarities
        if not lits:
            return None
        if len(lits) == 2:
            binary = True
        out.append(sorted(lits))
    # the literals of a kept clause have distinct variables, so the mirror's
    # flipped low bits keep them sorted
    clauses = sat_codes(out, inst.mode)
    if not binary:
        return clauses, None
    rep = _literal_classes(2 * inst.num_vars, clauses)
    lift = rep[::2]
    if any(r == s for r, s in zip(lift, rep[1::2])):
        return None
    out = []
    for c in clauses:
        if len(c) == 2:  # most of them, where the classes come from
            a, b = rep[c[0]], rep[c[1]]
            if a ^ b != 1:  # else a tautology
                out.append([a] if a == b else [a, b] if a < b else [b, a])
            continue
        lits = {rep[x] for x in c}
        if len({x >> 1 for x in lits}) == len(lits):
            out.append(sorted(lits))
    return out, lift


def solve_dpll(inst: CnfInstance, timeout: float | None = None) -> SolveResult:
    """Complete DPLL with unit propagation and clause learning; every
    decision is the branching rule's (no pure-literal elimination).

    One preprocessing pass, `_dpll_clauses`, gives `_dpll` its clauses over
    the instance's own variables, in sat mode.  When some clause is binary
    it replaces each literal by the smallest literal of its strongly
    connected component in the binary implication graph, so an R9 output,
    whose stars make the copies of a variable equal through binary clauses,
    reaches `_dpll` as its input formula over one copy of each variable.
    Every rewritten clause is RUP (reverse unit propagation) with respect to
    the input: falsifying its literals makes unit propagation along the
    binary chains falsify every literal of the clause it came from.  A model
    is lifted back literal by literal, and a literal equivalent to its
    negation answers unsat without a search.  A timeout (seconds) yields
    "indeterminate".
    """
    prepared = _dpll_clauses(inst)
    if prepared is None:
        return SolveResult("unsat", None)
    clauses, lift = prepared
    status, model = _dpll(inst.num_vars, clauses, timeout)
    if status != "sat":
        return SolveResult(status, None)
    if lift is not None:
        # variable v equals the literal lift[v]
        model = tuple([model[x >> 1] != (x & 1) for x in lift])
    return _checked_model(inst, model, "DPLL")


def _literal_classes(size: int, clauses: list[list[int]]) -> list[int]:
    """rep[x]: the smallest literal code in x's strongly connected component
    of the implication graph of the binary clauses, which has the edges
    ¬a → b and ¬b → a for each clause a ∨ b (Aspvall, Plass & Tarjan 1979).

    Tarjan's algorithm, with an explicit stack of (literal, edge iterator)
    in place of recursion.  The graph is its own mirror under negation, so
    rep[x ^ 1] == rep[x] ^ 1 unless x and ¬x share a component.
    """
    succ: list[list[int]] = [[] for _ in range(size)]
    for c in clauses:
        if len(c) == 2:
            a, b = c
            succ[a ^ 1].append(b)
            succ[b ^ 1].append(a)
    rep = list(range(size))
    done = size + 1  # the order of a literal already in a component
    order = [0] * size  # discovery number, 0 while unvisited
    low = [0] * size
    stack: list[int] = []  # visited literals not yet in a component
    count = 0
    for root in range(size):
        if order[root] or not succ[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if not order[w]:
                    count += 1
                    order[w] = low[w] = count
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                path.pop()
                if low[v] == order[v]:
                    i = stack.index(v)
                    component = stack[i:]
                    del stack[i:]
                    r = min(component)
                    for w in component:
                        rep[w] = r
                        order[w] = done
                elif low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
    return rep


def _dpll(num_vars: int, clauses: list[list[int]], timeout: float | None):
    """Counter-based DPLL with first-UIP conflict learning and backjumping;
    a model is returned as a tuple of bools.

    Unit propagation is always on, and every decision is the literal that
    pick() returns: there is no pure-literal rule.  Branching picks the most
    frequent free literal among the shortest unsatisfied input clauses, ties
    going to the smallest encoded literal, and the search answers sat once
    every input clause is satisfied.  A learned clause follows from the
    input clauses, so it only yields units and conflicts; it never steers a
    decision.  It enters asserting (GRASP; MiniSat): the backjump keeps its
    other literals assigned and false and frees its first, which is queued.
    The shortest input clauses come from an index, by_free[k], of the
    unsatisfied input clauses with exactly k non-false literals, which
    assignments and backjumps keep as clauses move.  Only what a decision
    reads is counted: cnt counts the literals of the unsatisfied input
    clauses, which pick reads when the longest bucket is the shortest and
    every count fits in a byte; any other bucket is counted when pick is
    called.  Deterministic; no restarts.  The clauses are non-empty:
    `solve_dpll` answers an empty one before calling.
    """
    m = len(clauses)
    deadline = None if timeout is None else time.monotonic() + timeout

    occ: list[list[int]] = [[] for _ in range(2 * num_vars)]
    for ci, lits in enumerate(clauses):
        for lit in lits:
            occ[lit].append(ci)
    # cnt[lit]: occurrences of lit in not-yet-satisfied input clauses, free
    # or false; a bytearray, which pick searches with memchr, when every
    # count fits in a byte.  No entry ever exceeds its initial count.
    counts = [len(o) for o in occ]
    top_cnt = max(counts, default=0)
    cnt = bytearray(counts) if top_cnt < 256 else counts
    nfree = [len(c) for c in clauses]
    ntrue = [0] * m
    # by_free[k]: unsatisfied input clauses with k non-false literals
    longest = max(nfree, default=0)
    by_free: list[set[int]] = [set() for _ in range(longest + 1)]
    for ci, k in enumerate(nfree):
        by_free[k].add(ci)
    n_input = m
    clauses = list(clauses)  # learned clauses are appended

    NO_REASON = -1
    val = [-1] * num_vars  # -1 unassigned, else 0/1
    level = [0] * num_vars
    reason = [NO_REASON] * num_vars
    trail: list[int] = []
    units: list[tuple[int, int]] = [  # (implied lit, reason clause)
        (c[0], ci) for ci, c in enumerate(clauses) if len(c) == 1
    ]
    cur_level = 0
    ticks = 0

    def assign(lit: int, why: int) -> int:
        """Make lit true; returns a conflicting clause index or -1."""
        v = lit >> 1
        for ci in occ[lit]:  # literal made true
            ntrue[ci] += 1
            if ntrue[ci] == 1 and ci < n_input:
                by_free[nfree[ci]].remove(ci)
                for l in clauses[ci]:
                    cnt[l] -= 1
        val[v] = 1 - (lit & 1)
        level[v] = cur_level
        reason[v] = why
        trail.append(v)
        conflict = -1
        for ci in occ[lit ^ 1]:  # literal made false
            k = nfree[ci] - 1
            nfree[ci] = k
            if ntrue[ci] == 0:
                if ci < n_input:
                    by_free[k + 1].remove(ci)
                    by_free[k].add(ci)
                if k == 0:
                    conflict = ci
                elif k == 1:
                    for l in clauses[ci]:
                        if val[l >> 1] == -1:
                            units.append((l, ci))
                            break
        return conflict

    def unassign_top():
        v = trail.pop()
        f = (v << 1) | val[v]  # the literal that was false
        for ci in occ[f]:
            k = nfree[ci]
            nfree[ci] = k + 1
            if ntrue[ci] == 0 and ci < n_input:
                by_free[k].remove(ci)
                by_free[k + 1].add(ci)
        val[v] = -1
        for ci in occ[f ^ 1]:
            ntrue[ci] -= 1
            if ntrue[ci] == 0 and ci < n_input:
                by_free[nfree[ci]].add(ci)
                for l in clauses[ci]:
                    cnt[l] += 1

    def backjump(target: int):
        nonlocal cur_level
        while trail and level[trail[-1]] > target:
            unassign_top()
        cur_level = target
        units.clear()

    def propagate() -> int:
        """Exhausts the unit queue; returns a conflict clause index or -1.

        Stale entries are skipped: any real conflict was already returned by
        the assign() call that falsified the clause's last literal.
        """
        while units:
            lit, why = units.pop()
            if val[lit >> 1] != -1:
                continue
            conflict = assign(lit, why)
            if conflict != -1:
                return conflict
        return -1

    def analyze(conflict: int) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to jump back to."""
        learned: list[int] = []
        seen = [False] * num_vars
        counter = 0
        cur = clauses[conflict]
        idx = len(trail) - 1
        while True:
            for lit in cur:
                v = lit >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learned.append(lit)
            while not seen[trail[idx]]:
                idx -= 1
            v = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                learned.insert(0, (v << 1) | val[v])  # the asserting literal
                break
            if reason[v] == NO_REASON:
                raise AssertionError("resolving past a decision")
            # v, whose literal this clause implied, is seen: the loop skips it
            cur = clauses[reason[v]]
        jump = 0
        for lit in learned[1:]:
            jump = max(jump, level[lit >> 1])
        return learned, jump

    def add_learned(lits: list[int]) -> int:
        ci = len(clauses)
        clauses.append(lits)
        ntrue.append(0)  # asserting: lits[0] free, the others false
        nfree.append(1)
        for l in lits:
            occ[l].append(ci)
        return ci

    def pick() -> int | None:
        """Most frequent free literal among the shortest unsatisfied input
        clauses; ties go to the smallest literal.

        The shortest bucket is at least 2 here: a clause left with one free
        literal is queued as a unit and propagated before any decision, and
        one left with none is a conflict.  When it is by_free[longest], no
        unsatisfied input clause is shorter or has a false literal, so cnt
        counts exactly their literals and reads 0 on every assigned one: the
        answer is the first index of cnt's largest value, found by searching
        the bytes for each value from the initial maximum down.  Any other
        bucket is counted here, as is the longest when a count of 256 or
        more makes cnt a list; counting it gives the same literal.
        """
        for k, bucket in enumerate(by_free):
            if bucket:
                break
        if k < 2:
            return None
        if k == longest and top_cnt < 256:
            for top in range(top_cnt, 0, -1):
                lit = cnt.find(top)
                if lit >= 0:
                    return lit
            return None
        counts: dict[int, int] = {}
        get = counts.get
        for ci in bucket:
            for l in clauses[ci]:
                if val[l >> 1] == -1:
                    counts[l] = get(l, 0) + 1
        if not counts:
            return None
        top = max(counts.values())
        return min(compress(counts, map(top.__eq__, counts.values())))

    def handle(conflict: int) -> bool:
        """Learn from the conflict; False when unsat at level 0."""
        nonlocal cur_level
        if cur_level == 0:
            return False
        learned, jump = analyze(conflict)
        backjump(jump)
        if val[learned[0] >> 1] != -1:
            raise AssertionError("learned clause is not asserting after the backjump")
        units.append((learned[0], add_learned(learned)))
        return True

    while True:
        ticks += 1
        if (
            deadline is not None
            and (ticks == 1 or ticks % 512 == 0)
            and time.monotonic() > deadline
        ):
            return "indeterminate", None
        conflict = propagate()
        if conflict != -1:
            if not handle(conflict):
                return "unsat", None
            continue
        if not any(by_free):  # every input clause is satisfied
            return "sat", tuple([x == 1 for x in val])
        lit = pick()
        # some clause is unsatisfied and no conflict is pending, so the
        # shortest unsatisfied clauses have free literals
        if lit is None:
            raise AssertionError("unsatisfied clause without free literals")
        # checked before the push, as propagate skips an assigned literal
        if val[lit >> 1] != -1:
            raise AssertionError("pick returned an assigned literal")
        cur_level += 1
        units.append((lit, NO_REASON))


def solve_auto(inst: CnfInstance, timeout: float | None = None) -> SolveResult:
    """Exhaustive when the instance fits under the cap, DPLL otherwise."""
    if inst.num_vars <= ENUM_CAP:
        return solve_exhaustive(inst)
    return solve_dpll(inst, timeout)


# ---------------------------------------------------------------------------
# Boundary predicates and the extension property


@dataclass(frozen=True)
class BoundaryPredicate:
    """Accepted assignments of an ordered boundary, as bit patterns.

    Bit j of a pattern is the value of boundary[j].
    """

    boundary: tuple[int, ...]
    accepted: frozenset[int]


def check_extension_property(gadget) -> VerificationReport:
    """Certify a gadget's boundary predicate by exhaustive extension checking.

    Passes iff for every assignment beta of the (distinct) boundary
    variables: an extension over the auxiliary variables that satisfies (or
    nae-satisfies) all gadget clauses exists exactly when beta is accepted.
    """
    boundary = tuple(dict.fromkeys(gadget.boundary))
    if boundary != gadget.predicate.boundary:
        raise ValueError("gadget predicate boundary does not match the instance")
    codes = sat_codes(gadget.clauses, gadget.mode)
    return report_mismatch(gadget, extending_patterns(boundary, gadget.aux, codes))


def extending_patterns(
    boundary: Sequence[int], aux: Sequence[int], codes: Iterable[Sequence[int]]
) -> set[int]:
    """The patterns of the boundary (bit j is boundary[j]) that some
    assignment of aux extends to a model of the sat-mode codes; boundary and
    aux hold every variable of codes, and their number is capped."""
    n = len(boundary) + len(aux)
    if n > ENUM_CAP:
        raise CapExceededError(n)
    var_map = {v: i for i, v in enumerate(aux)}
    for j, v in enumerate(boundary):
        var_map[v] = len(aux) + j
    masks = clause_masks(codes, var_map)
    return _bitkernel.accepted_patterns(len(aux), len(boundary), masks)


def report_mismatch(gadget, feasible: set[int]) -> VerificationReport:
    """Compare the boundary patterns that extend with the declared ones.

    Passes iff they agree; otherwise reports the smallest differing pattern
    as {"pattern": {var: bool}, "direction": "missing extension" (accepted
    but no extension) or "forbidden extension" (extends but not accepted)}.
    """
    declared = gadget.predicate.accepted
    if feasible == declared:
        return VerificationReport(True)
    p = min(feasible ^ declared)
    direction = "forbidden extension" if p in feasible else "missing extension"
    boundary = gadget.predicate.boundary
    return VerificationReport(
        False,
        f"{gadget.kind}: boundary pattern {p:0{len(boundary)}b} is a {direction}",
        {"pattern": {v: bool((p >> j) & 1) for j, v in enumerate(boundary)},
         "direction": direction},
    )


# ---------------------------------------------------------------------------
# Subsumption


def subsumes(
    cover: Iterable[Sequence[int]], target: Iterable[Sequence[int]]
) -> VerificationReport:
    """Pass iff every target clause contains some cover clause as a subset;
    clauses are literal codes."""
    cover_sets = [frozenset(c) for c in cover]
    for i, t in enumerate(target):
        tset = frozenset(t)
        if not any(cs <= tset for cs in cover_sets):
            return VerificationReport(
                False, f"target clause {i} is not subsumed", ("clause", i, tuple(t))
            )
    return VerificationReport(True)
