"""Ground-truth decision procedures.

Exhaustive enumeration (bounded by a variable cap), an exact DPLL solver
with unit propagation and clause learning, whose every decision is its
branching rule's (there is no pure-literal elimination) and which, when
some clause is binary, first substitutes one literal for each class of
equivalent literals (strongly connected components of the binary
implication graph), extension checking for gadget boundary predicates,
subsumption, and the forced-literal split used by the conditional (2,2)
machinery.

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

import os
import time
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

from . import _bitkernel
from .formulas import (
    ASCII_INT,
    NAE,
    SAT,
    CnfInstance,
    VerificationReport,
    assignment_from_bits,
    evaluate,
)


def backend_name() -> str:
    """Name of the enumeration kernel, recorded with benchmark runs."""
    return "python"


DEFAULT_ENUM_CAP = 26


class EnumCapError(ValueError):
    """MONO3SAT_ENUM_CAP is set to something other than a non-negative
    ASCII integer."""


def enum_cap() -> int:
    env = os.environ.get("MONO3SAT_ENUM_CAP")
    if not env:
        return DEFAULT_ENUM_CAP
    cap = int(env) if ASCII_INT.fullmatch(env) else -1
    if cap < 0:
        raise EnumCapError(
            f"MONO3SAT_ENUM_CAP must be a non-negative integer, got {env!r}"
        )
    return cap


class CapExceededError(RuntimeError):
    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"enumeration over {needed} variables exceeds cap {cap}; "
            f"raise MONO3SAT_ENUM_CAP to at least {needed}"
        )
        self.needed = needed
        self.cap = cap


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
    cap = enum_cap()
    if inst.num_vars > cap:
        raise CapExceededError(inst.num_vars, cap)
    bits = _bitkernel.solve(inst.num_vars, clause_masks(sat_codes(inst.codes, inst.mode)))
    if bits is None:
        return SolveResult("unsat", None)
    return _checked_model(inst, bits, "enumeration kernel")


def _checked_model(inst: CnfInstance, bits: int, solver: str) -> SolveResult:
    """A sat result, after re-evaluating the model against the instance."""
    model = assignment_from_bits(bits, inst.num_vars)
    if not evaluate(inst, model):
        raise AssertionError(f"{solver} returned an assignment that is not a model")
    return SolveResult("sat", model)


# ---------------------------------------------------------------------------
# DPLL


def _encoded_clauses(inst: CnfInstance) -> tuple[list[list[int]], bool] | None:
    """The instance's clause codes as sorted literal lists, through
    `sat_codes`, and whether some clause has two literals.

    Repeated literals are merged and tautological clauses dropped before the
    nae mirror is added; returns None when some clause is empty.
    """
    out = []
    binary = False
    for c in inst.codes:
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
    return sat_codes(out, inst.mode), binary


def solve_dpll(inst: CnfInstance, timeout: float | None = None) -> SolveResult:
    """Complete DPLL with unit propagation and clause learning; every
    decision is the branching rule's (no pure-literal elimination).

    nae mode is reduced to sat mode by `sat_codes`.  When some clause is
    binary, equivalent literals are substituted first (`_substituted`): each
    literal becomes the smallest literal of its strongly connected component
    in the binary implication graph, so an R9 output, whose stars make the
    copies of a variable equal through binary clauses, reaches `_dpll` as
    its input formula.  Every rewritten clause is RUP (reverse unit
    propagation) with respect to the input, read over the representatives'
    own variables: falsifying its literals makes unit propagation along the
    binary chains falsify every literal of the clause it came from.  A
    model of the rewritten clauses is lifted back literal by literal, and a
    literal equivalent to its negation answers unsat without a search.
    `_dpll` and its branching rule are the same on both paths, and an input
    with no binary clause reaches it unchanged.  A timeout (seconds) yields
    "indeterminate".
    """
    encoded = _encoded_clauses(inst)
    if encoded is None:
        return SolveResult("unsat", None)
    clauses, binary = encoded
    num_vars, lift = inst.num_vars, None
    if binary:
        substituted = _substituted(inst.num_vars, clauses)
        if substituted is None:
            return SolveResult("unsat", None)
        num_vars, clauses, lift = substituted
    status, bits = _dpll(num_vars, clauses, timeout)
    if status != "sat":
        return SolveResult(status, None)
    if lift is not None:
        # variable v equals the rewritten literal lift[v]
        bits = sum(((bits >> (x >> 1) & 1) ^ (x & 1)) << v for v, x in enumerate(lift))
    return _checked_model(inst, bits, "DPLL")


def _substituted(
    num_vars: int, clauses: list[list[int]]
) -> tuple[int, list[list[int]], list[int]] | None:
    """Equivalent-literal substitution (Brafman 2001): (number of variables,
    rewritten clauses, lift), or None when some literal is equivalent to its
    negation.

    The variables that represent a class are numbered densely in their
    order; every literal maps to its representative's new code, and clauses
    that this makes tautological are dropped.  lift[v] is the new literal
    that variable v equals.
    """
    rep = _literal_classes(2 * num_vars, clauses)
    code = [0] * (2 * num_vars)
    k = 0
    for v in range(num_vars):
        r = rep[2 * v]
        if rep[2 * v + 1] == r:
            return None
        if r == 2 * v:
            code[r] = 2 * k
            code[r + 1] = 2 * k + 1
            k += 1
        else:  # the representative's variable is smaller, so already numbered
            code[2 * v] = code[r]
            code[2 * v + 1] = code[r] ^ 1
    out = []
    for c in clauses:
        if len(c) == 2:  # most of them, where the classes come from
            a, b = code[c[0]], code[c[1]]
            if a ^ b != 1:  # else a tautology
                out.append([a] if a == b else [a, b] if a < b else [b, a])
            continue
        lits = {code[x] for x in c}
        if len({x >> 1 for x in lits}) == len(lits):
            out.append(sorted(lits))
    return k, out, code[::2]


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
    """Counter-based DPLL with first-UIP conflict learning and backjumping.

    Unit propagation is always on, and every decision is the literal that
    pick() returns: there is no pure-literal rule.  Branching picks the most
    frequent free literal among the shortest unsatisfied clauses, ties going
    to the smallest encoded literal.  The shortest clauses come from an
    index, by_free[k], of the unsatisfied clauses (learned ones included)
    with exactly k non-false literals, and the free literals of each bucket
    are counted, in lc[k] and, for the input clauses of the longest bucket,
    in cnt, where assignments, backjumps and learning move a clause into,
    out of or between buckets; a decision reads its literal off those counts
    instead of recounting.  Deterministic; no restarts.  The clauses are
    non-empty: `solve_dpll` answers an empty one before calling.
    """
    m = len(clauses)
    if m == 0:
        return "sat", 0
    deadline = None if timeout is None else time.monotonic() + timeout

    occ: list[list[int]] = [[] for _ in range(2 * num_vars)]
    # cnt[lit]: occurrences of lit in not-yet-satisfied input clauses, free
    # or false; pick reads it only as the count of the input clauses in
    # by_free[longest], when they are all the unsatisfied input clauses
    cnt = [0] * (2 * num_vars)
    nfree = [len(c) for c in clauses]
    ntrue = [0] * m
    # by_free[k]: unsatisfied clauses with k non-false literals; grows when
    # a learned clause is longer than every clause before it
    longest = max(nfree)
    by_free: list[set[int]] = [set() for _ in range(longest + 1)]
    # lc[k][lit]: occurrences of the free literal lit in the clauses of
    # by_free[k], deleted when it reaches 0.  Only what a decision reads is
    # counted (see pick): not buckets 0 and 1, empty at every decision, and
    # not the input clauses of by_free[longest], whose literals cnt counts
    # already.  lc_in is lc as input clauses see it; None marks a bucket
    # whose counts leave the clause out.
    lc: list[dict[int, int] | None] = [{} if k > 1 else None for k in range(longest + 1)]
    lc_in = lc[:-1] + [None]
    for ci, lits in enumerate(clauses):
        by_free[len(lits)].add(ci)
        counts = lc_in[len(lits)]
        for lit in lits:
            occ[lit].append(ci)
            cnt[lit] += 1
            if counts is not None:
                counts[lit] = counts.get(lit, 0) + 1
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

    def shift(ci: int, src: dict | None, dst: dict | None) -> int:
        """Moves the counts of clause ci's free literals from src to dst
        (None: a bucket that leaves ci out); returns one of them."""
        free = -1
        for l in clauses[ci]:
            if val[l >> 1] == -1:
                free = l
                if src is not None:
                    c = src[l]
                    if c == 1:
                        del src[l]
                    else:
                        src[l] = c - 1
                if dst is not None:
                    dst[l] = dst.get(l, 0) + 1
        return free

    def assign(lit: int, why: int) -> int:
        """Make lit true; returns a conflicting clause index or -1."""
        v = lit >> 1
        # clauses are satisfied while lit still reads as free, so that shift
        # takes its count out with the others'
        for ci in occ[lit]:  # literal made true
            ntrue[ci] += 1
            if ntrue[ci] == 1:
                k = nfree[ci]
                by_free[k].remove(ci)
                if ci < n_input:
                    for l in clauses[ci]:
                        cnt[l] -= 1
                    counts = lc_in[k]
                else:
                    counts = lc[k]
                if counts is not None:
                    shift(ci, counts, None)
        val[v] = 1 - (lit & 1)
        level[v] = cur_level
        reason[v] = why
        trail.append(v)
        conflict = -1
        f = lit ^ 1
        for ci in occ[f]:  # literal made false
            k = nfree[ci] - 1
            nfree[ci] = k
            if ntrue[ci] == 0:
                by_free[k + 1].remove(ci)
                by_free[k].add(ci)
                row = lc_in if ci < n_input else lc
                src = row[k + 1]
                if src is not None:
                    c = src[f]
                    if c == 1:
                        del src[f]
                    else:
                        src[f] = c - 1
                free = shift(ci, src, row[k])
                if k == 0:
                    conflict = ci
                elif k == 1:
                    units.append((free, ci))
        return conflict

    def unassign_top():
        v = trail.pop()
        b = val[v]
        f = (v << 1) | b  # the literal that was false
        # clauses regain f while it still reads as assigned, so that shift
        # leaves its count to the line below
        for ci in occ[f]:
            k = nfree[ci]
            nfree[ci] = k + 1
            if ntrue[ci] == 0:
                by_free[k].remove(ci)
                by_free[k + 1].add(ci)
                row = lc_in if ci < n_input else lc
                dst = row[k + 1]
                shift(ci, row[k], dst)
                if dst is not None:
                    dst[f] = dst.get(f, 0) + 1
        val[v] = -1
        reason[v] = NO_REASON
        for ci in occ[f ^ 1]:
            ntrue[ci] -= 1
            if ntrue[ci] == 0:
                k = nfree[ci]
                by_free[k].add(ci)
                if ci < n_input:
                    for l in clauses[ci]:
                        cnt[l] += 1
                    counts = lc_in[k]
                else:
                    counts = lc[k]
                if counts is not None:
                    shift(ci, None, counts)

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
            cur = [l for l in clauses[reason[v]] if l >> 1 != v]
        jump = 0
        for lit in learned[1:]:
            jump = max(jump, level[lit >> 1])
        return learned, jump

    def add_learned(lits: list[int]) -> int:
        ci = len(clauses)
        clauses.append(lits)
        ntrue.append(sum(1 for l in lits if val[l >> 1] == 1 - (l & 1)))
        nfree.append(sum(1 for l in lits if val[l >> 1] != (l & 1)))
        # backjumps can unassign every literal of the clause
        while len(by_free) <= len(lits):
            by_free.append(set())
            lc.append({})
        if ntrue[ci] == 0:
            # one free literal, the asserting one: lc counts no clause of
            # by_free[1], and backjumps count it once it has more
            by_free[nfree[ci]].add(ci)
        for l in lits:
            occ[l].append(ci)
        return ci

    def pick() -> int | None:
        """Most frequent free literal among the shortest unsatisfied clauses,
        read off their bucket's counts; ties go to the smallest literal.

        The shortest bucket is at least 2 here: a clause left with one free
        literal is queued as a unit and propagated before any decision, and
        one left with none is a conflict.  When it is by_free[longest], no
        unsatisfied input clause is shorter or has a false literal, so cnt
        counts exactly their literals and reads 0 on every assigned one.
        """
        k = next(k for k, b in enumerate(by_free) if b)
        counts = lc[k]
        if counts is None:
            return None
        if k == longest:
            total = cnt[:]
            for lit, c in counts.items():
                total[lit] += c
            top = max(total)
            return total.index(top) if top else None
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
        ci = add_learned(learned)
        if val[learned[0] >> 1] == -1:
            units.append((learned[0], ci))
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
        if not any(by_free):  # every clause is satisfied
            bits = 0
            for v in range(num_vars):
                if val[v] == 1:
                    bits |= 1 << v
            return "sat", bits
        lit = pick()
        # some clause is unsatisfied and no conflict is pending, so the
        # shortest unsatisfied clauses have free literals
        if lit is None:
            raise AssertionError("unsatisfied clause without free literals")
        cur_level += 1
        conflict = assign(lit, NO_REASON)
        if conflict != -1 and not handle(conflict):
            return "unsat", None


def solve_auto(inst: CnfInstance, timeout: float | None = None) -> SolveResult:
    """Exhaustive when the instance fits under the cap, DPLL otherwise."""
    if inst.num_vars <= enum_cap():
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
    cap = enum_cap()
    n = len(boundary) + len(aux)
    if n > cap:
        raise CapExceededError(n, cap)
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


# ---------------------------------------------------------------------------
# Forced-literal split (maximal satisfiable subset, greedy in input order)


def split_forced(inst: CnfInstance) -> tuple[list[int], list[int]]:
    """Split an unsatisfiable sat-mode instance into a maximal satisfiable
    clause subset plus the multiset of literal codes of the excluded clauses.

    Clauses are considered in input order, so the result is deterministic.
    Every returned literal is false under every model of the kept subset;
    this is re-checked literal by literal against the oracle.
    """
    if inst.mode != SAT:
        raise ValueError("split_forced is defined for sat mode")
    if solve_auto(inst).status != "unsat":
        raise ValueError("split_forced requires an unsatisfiable instance")

    kept: list[tuple[int, ...]] = []
    core: list[int] = []
    for i, c in enumerate(inst.codes):
        if solve_auto(CnfInstance.from_codes(inst.num_vars, kept + [c])).status == "sat":
            kept.append(c)
            core.append(i)
    core_set = set(core)
    forced = [x for i, c in enumerate(inst.codes) if i not in core_set for x in c]
    for x in set(forced):
        probe = CnfInstance.from_codes(inst.num_vars, kept + [(x,)])
        if solve_auto(probe).status != "unsat":
            raise AssertionError(
                f"literal code {x} from an excluded clause is not forced false"
            )
    return core, forced
