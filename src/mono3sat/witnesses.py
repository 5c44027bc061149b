"""Explicit unsatisfiable instances, transversal combinatorics behind the
satisfiability bounds for once-negated variants, and the search engines for
the two open challenges (an unsatisfiable Monotone 3-Sat-(2,2) instance;
hardness of Monotone 3-Sat-(k,1) for k in {3,4})."""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .formulas import (
    MONOTONE_SAT,
    SAT,
    CnfInstance,
    VariantSpec,
    VerificationReport,
    evaluate,
    monotone_sat,
    negative,
    positive,
    validate,
)
from .gadgets import FreshAllocator, GadgetInstance, build_gadget, parse_table
from .generate import GenerationError, random_k1
from .oracle import (
    BoundaryPredicate,
    enum_cap,
    solve_dpll,
    solve_exhaustive,
)

# The 9-variable, 18-clause unsatisfiable Monotone 3-Sat-(3,3) instance,
# transcribed as a frozen table (variables a..i are ids 0..8).
NINE_VAR_TABLE = (
    "~a ~d ~g",
    "~a ~f ~i",
    "~b ~d ~h",
    "~b ~e ~f",
    "~c ~e ~g",
    "~c ~h ~i",
    "a d g",
    "a f i",
    "b d h",
    "b e f",
    "c e g",
    "c h i",
    "a b c",
    "d e i",
    "f g h",
    "~a ~e ~h",
    "~b ~g ~i",
    "~c ~d ~f",
)

WITNESS_NAMES = ("ss_bar", "nine_var", "mon51", "hitting27")


def _nine_var() -> CnfInstance:
    codes = [
        tuple([(ord(name) - ord("a")) << 1 | negated for name, negated in c])
        for c in parse_table(NINE_VAR_TABLE)
    ]
    return CnfInstance.from_codes(9, codes, SAT)


def _ss_bar() -> CnfInstance:
    alloc = FreshAllocator(1)
    s = build_gadget("S", (0, 0, 0), alloc)
    sbar = build_gadget("SBAR", (0, 0, 0), alloc)
    return CnfInstance.from_codes(alloc.next_id, s.clauses + sbar.clauses, SAT)


def mon51_structure() -> GadgetInstance:
    """The 204-clause construction as a gadget on an empty boundary that
    accepts nothing: three true-enforcers F on y1, y2, y3 whose outputs share
    the negative connector clause (~y1 ~y2 ~y3), padded by one more D
    instance.  Its clauses are the enforcers', the connector, then the pad's,
    so `verify_composite` of it certifies mon51 unsatisfiable."""
    alloc = FreshAllocator(3)
    ys = (0, 1, 2)
    fs = tuple(build_gadget("F", (y,), alloc) for y in ys)
    connector = negative(ys)
    pad = build_gadget("D", (0, 0, 1, 1, 2, 2), alloc)
    parts = fs + (pad,)
    return GadgetInstance(
        "MON51", (), ys + tuple(v for g in parts for v in g.aux),
        tuple(c for f in fs for c in f.clauses) + (connector,) + pad.clauses,
        BoundaryPredicate((), frozenset()), SAT,
        parts=parts, connectors=(connector,),
    )


def _mon51() -> CnfInstance:
    g = mon51_structure()
    return CnfInstance.from_codes(len(g.aux), g.clauses, SAT)


def _hitting27() -> CnfInstance:
    triples = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    codes = [negative(tri) for tri in triples]
    codes += map(positive, itertools.product(*triples))
    return CnfInstance.from_codes(9, codes, SAT)


def known_unsat(name: str) -> CnfInstance:
    builders = {
        "ss_bar": _ss_bar,
        "nine_var": _nine_var,
        "mon51": _mon51,
        "hitting27": _hitting27,
    }
    if name not in builders:
        raise KeyError(f"unknown witness {name!r}; choices: {WITNESS_NAMES}")
    return builders[name]()


# ---------------------------------------------------------------------------
# Canonical shape: n/3 disjoint negative triples covering all variables,
# plus positive 3-clauses.

DEFAULT_TRANSVERSAL_CAP = 15  # at most 3^15 transversals


def canonical_shape(inst: CnfInstance):
    """Split into (negative triples, positive clauses as codes); raises on
    mismatch.

    The shape is a set-flavor monotone 3-Sat instance in which every
    variable is negated exactly once, so its negative clauses are disjoint
    triples covering all variables.
    """
    if inst.mode != SAT:
        raise ValueError("canonical shape is defined for sat mode")
    once_negated = frozenset((p, 1) for p in range(inst.num_clauses + 1))
    spec = VariantSpec(monotone=MONOTONE_SAT, profile=once_negated, distinct_clauses=False)
    rep = validate(inst, spec)
    if not rep.ok:
        raise ValueError(f"canonical shape needs set-flavor monotone triples, "
                         f"each variable negated once: {rep.reason}")
    return _shape_parts(inst)


def _shape_parts(inst: CnfInstance):
    """canonical_shape's split of an instance already known to have it."""
    triples = [tuple(x >> 1 for x in c) for c in inst.codes if c[0] & 1]
    positives = [c for c in inst.codes if not c[0] & 1]
    return triples, positives


def transversal_count(n: int) -> int:
    if n % 3 != 0:
        raise ValueError("n must be a multiple of 3")
    return 3 ** (n // 3)


def check_sat_via_transversal(inst: CnfInstance) -> VerificationReport:
    """Decide a canonical-shape instance by searching for a transversal that
    contains no positive clause.

    Pass means satisfiable, with the witness transversal (the variables set
    false), checked to satisfy the instance; fail means unsatisfiable (every
    transversal is blocked).
    Raises ValueError on more than DEFAULT_TRANSVERSAL_CAP negative triples,
    a fixed cap that MONO3SAT_ENUM_CAP does not move.
    """
    triples, positives = canonical_shape(inst)
    if len(triples) > DEFAULT_TRANSVERSAL_CAP:
        raise ValueError(
            f"transversal search over {len(triples)} negative triples exceeds the fixed cap "
            f"of {DEFAULT_TRANSVERSAL_CAP} triples"
        )
    found = _witness_transversal(triples, positives)
    if found is None:
        return VerificationReport(False, "every transversal contains a positive clause")
    _check_witness(inst, found)
    return VerificationReport(True, "witness transversal", {"false_vars": found})


def _check_witness(inst: CnfInstance, false_vars) -> None:
    """Raise unless false_vars set false, every other variable true, satisfies inst."""
    model = [True] * inst.num_vars
    for v in false_vars:
        model[v] = False
    if not evaluate(inst, model):
        raise AssertionError("a witness transversal is not a model")


def _witness_transversal(triples, positives) -> tuple[int, ...] | None:
    """One variable from each negative triple such that no positive clause
    has all three of its variables chosen, or None when every transversal
    is blocked; depth-first over the triples in order."""
    k = len(triples)
    clause_vars = [[x >> 1 for x in c] for c in positives]
    by_var: dict[int, list[int]] = {}
    for idx, vs in enumerate(clause_vars):
        for v in vs:
            by_var.setdefault(v, []).append(idx)
    hits = [0] * len(clause_vars)

    chosen: list[int] = []

    def dfs(t: int) -> tuple[int, ...] | None:
        if t == k:
            return tuple(chosen)
        for v in triples[t]:
            blocked = False
            for idx in by_var.get(v, ()):
                hits[idx] += 1
                if hits[idx] == 3:
                    blocked = True
            if not blocked:
                chosen.append(v)
                got = dfs(t + 1)
                if got is not None:
                    return got
                chosen.pop()
            for idx in by_var.get(v, ()):
                hits[idx] -= 1
        return None

    return dfs(0)


def bound_satisfiable(inst: CnfInstance) -> str | None:
    """A satisfiability guarantee from the counting bound, or None.

    None means no guarantee, not unsatisfiability.  Guaranteed when there
    are fewer than 27 positive clauses (`min_transversal_hitting_set`).
    The appearance bound (every variable unnegated fewer than 81/n times)
    is implied: the unnegated counts sum to 3m over m positive clauses, so
    max_p·n < 81 gives m < 27.
    """
    _, positives = canonical_shape(inst)
    if len(positives) < 27:
        return f"only {len(positives)} positive clauses < 27"
    return None


def min_transversal_hitting_set(n: int) -> int:
    """Size of the smallest positive-3-clause set blocking every transversal.

    Defined for n >= 9 (for n in {3, 6} a transversal has fewer than three
    variables, so no 3-clause fits inside one and no blocking set exists).
    Only a blocking triple (one variable from each of three of the n/3
    negative triples) lies in a transversal.  It lies in 3^(n/3 - 3) of the
    3^(n/3) transversals, so at least 27 are needed, and the 27 triples
    across the first three negative triples block them all.  Both bounds
    are counted here over the transversals, not assumed.
    """
    if n % 3 != 0:
        raise ValueError("n must be a multiple of 3")
    k = n // 3
    if k < 3:
        raise ValueError(
            "no hitting set exists for n < 9: transversals contain no 3-subset"
        )
    transversals = list(itertools.product(range(3), repeat=k))
    choices = list(itertools.product(range(3), repeat=3))

    def blocked(groups, choice) -> set[int]:
        return {i for i, tv in enumerate(transversals)
                if all(tv[g] == c for g, c in zip(groups, choice))}

    every = set(range(len(transversals)))
    if set().union(*(blocked((0, 1, 2), c) for c in choices)) != every:
        raise AssertionError("the 27 first-group triples miss a transversal")
    most = max(len(blocked(groups, c))
               for groups in itertools.combinations(range(k), 3) for c in choices)
    lower = -(-len(transversals) // most)
    if lower != len(choices):
        raise AssertionError(
            f"bounds differ at n={n}: at least {lower}, at most {len(choices)}"
        )
    return lower


# ---------------------------------------------------------------------------
# Unsatisfiable-instance search


@dataclass
class SearchBudget:
    max_n: int = 9
    max_candidates: int = 100_000
    seed: int = 0
    time_limit: float | None = None


@dataclass
class SearchOutcome:
    profile: tuple[int, int]
    found: CnfInstance | None = None
    records: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "profile": list(self.profile),
            "found": self.found is not None,
            "found_num_vars": None if self.found is None else self.found.num_vars,
            "records": self.records,
        }


# profile -> smallest n worth searching: a (k,1) instance on n variables has
# k·n/3 positive clauses, and fewer than 27 guarantee satisfiability
SEARCH_PROFILES: dict[tuple[int, int], int] = {
    (2, 2): 3, **{(k, 1): 3 * -(-27 // k) for k in (3, 4, 5)}
}


def regular_hypergraphs_exhaustive(n: int, degree: int):
    """All degree-regular 3-uniform hypergraphs with lexicographically
    increasing distinct edges; each isomorphism class appears at least once.

    The smallest vertex with remaining degree must head the next edge, which
    keeps the enumeration both complete and duplicate-free.
    """
    m = degree * n // 3
    deg = [degree] * n
    chosen: list[tuple[int, int, int]] = []

    def rec(last):
        if len(chosen) == m:
            yield tuple(chosen)
            return
        v = next((u for u in range(n) if deg[u] > 0), None)
        if v is None:
            return
        rest = [u for u in range(v + 1, n) if deg[u] > 0]
        for bi in range(len(rest)):
            for cj in range(bi + 1, len(rest)):
                t = (v, rest[bi], rest[cj])
                if t <= last:
                    continue
                deg[v] -= 1
                deg[t[1]] -= 1
                deg[t[2]] -= 1
                chosen.append(t)
                yield from rec(t)
                chosen.pop()
                deg[v] += 1
                deg[t[1]] += 1
                deg[t[2]] += 1

    yield from rec((-1, -1, -1))


def canonical_signature(clauses: list[tuple[tuple[int, ...], bool]]) -> tuple:
    """Relabel variables by first appearance in the sorted clause list."""
    key = sorted((sorted(vs), negd) for vs, negd in clauses)
    relabel: dict[int, int] = {}
    out = []
    for vs, negd in key:
        for v in vs:
            if v not in relabel:
                relabel[v] = len(relabel)
        out.append((tuple(sorted(relabel[v] for v in vs)), negd))
    return tuple(sorted(out))


def _certify_unsat_candidate(inst: CnfInstance, spec: VariantSpec) -> bool:
    """Whether a candidate is unsatisfiable, each verdict on two paths.

    A sat-mode candidate valid for a once-negated profile such as {(k,1)}
    is in canonical shape; with at most DEFAULT_TRANSVERSAL_CAP negative
    triples it is decided by transversal search.  A witness transversal,
    set false with every other variable true, must satisfy the candidate
    (`evaluate`), and an all-blocked answer must be DPLL's answer too.
    Other candidates are decided by DPLL.  Every unsat answer is re-checked
    by enumeration when it fits.
    """
    if not validate(inst, spec).ok:
        raise AssertionError("search produced an out-of-profile candidate")
    n = inst.num_vars
    once_negated = (inst.mode == SAT and spec.monotone == MONOTONE_SAT and not spec.duplicates
                    and spec.profile is not None and all(q == 1 for _, q in spec.profile))
    if once_negated and n <= 3 * DEFAULT_TRANSVERSAL_CAP:
        found = _witness_transversal(*_shape_parts(inst))
        if found is not None:
            _check_witness(inst, found)
            return False
        if solve_dpll(inst).status != "unsat":
            raise AssertionError("DPLL finds a model where every transversal is blocked")
    elif solve_dpll(inst).status != "unsat":
        return False
    if n <= enum_cap() and solve_exhaustive(inst).status != "unsat":
        raise AssertionError("enumeration finds a model DPLL missed")
    return True


def _canonical_pairs(n: int):
    """Every (2,2) candidate on n variables once per canonical signature:
    positive side outer, negative side inner, both drawn from
    regular_hypergraphs_exhaustive in its order.  Sides are generated only
    when the pairs first reach them and kept for the inner loop to reuse."""
    source = regular_hypergraphs_exhaustive(n, 2)
    sides: list[tuple] = []

    def each_side():
        for i in itertools.count():
            if i == len(sides):
                side = next(source, None)
                if side is None:
                    return
                sides.append(side)
            yield sides[i]

    seen: set[tuple] = set()
    for p_edges in each_side():
        p_sig = [(t, False) for t in p_edges]
        p_codes = tuple(map(positive, p_edges))
        for n_edges in each_side():
            sig = canonical_signature(p_sig + [(t, True) for t in n_edges])
            if sig in seen:
                continue
            seen.add(sig)
            yield CnfInstance.from_codes(n, p_codes + tuple(map(negative, n_edges)), SAT)


def _samples(n: int, k: int, quota: int, rng: random.Random):
    """Up to quota random (k,1) instances on n variables; stops at the first
    size the generator cannot fill."""
    for _ in range(quota):
        try:
            yield random_k1(n, k, rng)
        except GenerationError:
            return


def search_unsat(
    profile: tuple[int, int], budget: SearchBudget, journal=None
) -> SearchOutcome:
    """Look for an unsatisfiable instance with the given monotone profile.

    (2,2): deterministic exhaustive enumeration per n, modulo the
    lexicographic canonical form, until the candidate budget runs out.
    (k,1): random sampling, starting only at the n where the counting bound
    stops guaranteeing satisfiability (k·n/3 positive clauses reach 27: n =
    27, 21, 18 for k = 3, 4, 5).  (5,1): the explicit 204-clause
    construction is probed first, as one candidate of the budget, when the
    budget and the time limit leave room for it.
    A size counts as exhausted only when its exhaustive stream ran dry
    within the budget and the time limit; absence of a find is a valid
    outcome and no claim is made beyond the exhausted range.  Each size's
    record says why it ended: "exhausted", "budget" (the candidate budget
    ran out), "time limit" (the last record: the search stops there),
    "sample quota" (a sampled size drew its share of the budget),
    "generator failed" (the sampler could not fill the size) or "found".
    """
    if profile not in SEARCH_PROFILES:
        raise KeyError(f"unsupported profile {profile}")
    spec, min_n = monotone_sat(*profile), SEARCH_PROFILES[profile]
    outcome = SearchOutcome(profile)
    rng = random.Random(budget.seed)
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit

    def emit(event: dict):
        if journal is not None:
            journal(event)

    def timed_out() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    remaining = budget.max_candidates

    if profile == (5, 1) and budget.max_n >= 102 and remaining > 0 and not timed_out():
        remaining -= 1
        cand = known_unsat("mon51")
        if _certify_unsat_candidate(cand, spec):
            outcome.found = cand
            outcome.records.append(
                {"n": cand.num_vars, "candidates": 1, "exhausted": False, "ended": "found",
                 "note": "constructed from the D/F enforcers"}
            )
            emit({"event": "found", "n": cand.num_vars, "source": "construction"})
            return outcome

    for n in range(min_n, budget.max_n + 1, 3):
        if remaining <= 0:
            break
        emit({"event": "n-start", "n": n, "profile": list(profile)})
        # (candidate stream, sampling quota or None, progress interval)
        if profile == (2, 2):
            stream, quota, every = _canonical_pairs(n), None, 2000
        else:
            quota = min(remaining, max(1, budget.max_candidates // 4))
            stream, every = _samples(n, profile[0], quota, rng), 200
        checked = 0
        ended = "budget"
        while remaining > 0:
            if timed_out():
                ended = "time limit"
                break
            inst = next(stream, None)
            if inst is None:
                ended = ("exhausted" if quota is None
                         else "sample quota" if checked == quota else "generator failed")
                break
            checked += 1
            remaining -= 1
            if _certify_unsat_candidate(inst, spec):
                outcome.found = inst
                outcome.records.append(
                    {"n": n, "candidates": checked, "exhausted": False, "ended": "found"})
                emit({"event": "found", "n": n, "candidates": checked})
                return outcome
            if checked % every == 0:
                emit({"event": "progress", "n": n, "candidates": checked})
        exhausted = ended == "exhausted"
        outcome.records.append(
            {"n": n, "candidates": checked, "exhausted": exhausted, "ended": ended})
        emit({"event": "n-done", "n": n, "candidates": checked, "exhausted": exhausted,
              "ended": ended})
        if ended == "time limit":
            break
    return outcome
