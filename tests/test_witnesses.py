import itertools
import random

import pytest

from mono3sat.formulas import (
    SAT,
    CnfInstance,
    appearance_profile,
    evaluate,
    monotone_sat,
    neg,
    negative,
    pos,
    positive,
)
from mono3sat import witnesses as W
from mono3sat.dimacs import emit_dimacs, parse_dimacs
from mono3sat.gadgets import verify_composite
from mono3sat.generate import GenerationError, random_k1
from mono3sat.oracle import solve_dpll, solve_exhaustive
from mono3sat.witnesses import (
    NINE_VAR_TABLE,
    SearchBudget,
    bound_satisfiable,
    canonical_shape,
    canonical_signature,
    check_sat_via_transversal,
    known_unsat,
    min_transversal_hitting_set,
    mon51_structure,
    search_unsat,
    transversal_count,
)


def test_nine_var_transcription_before_solving():
    inst = known_unsat("nine_var")
    assert inst.num_vars == 9 and inst.num_clauses == 18
    assert len(NINE_VAR_TABLE) == 18
    # frozen table: first clause {~a,~d,~g}, clause 13 {a,b,c}, clause 18 {~c,~d,~f}
    assert set(inst.codes[0]) == set(negative((0, 3, 6)))
    assert set(inst.codes[12]) == set(positive((0, 1, 2)))
    assert set(inst.codes[17]) == set(negative((2, 3, 5)))
    assert appearance_profile(inst) == [(3, 3)] * 9


def test_ss_bar_shape():
    inst = known_unsat("ss_bar")
    assert inst.num_vars == 13 and inst.num_clauses == 26
    assert appearance_profile(inst) == [(3, 3)] * 13


def test_mon51_shape():
    inst = known_unsat("mon51")
    assert inst.num_vars == 102 and inst.num_clauses == 204
    assert appearance_profile(inst) == [(5, 1)] * 102


def test_hitting27_shape():
    inst = known_unsat("hitting27")
    assert inst.num_vars == 9 and inst.num_clauses == 30
    prof = appearance_profile(inst)
    assert all(p == 9 and q == 1 for p, q in prof)  # 9 = 81/9 unnegated


def test_all_witnesses_unsat():
    for name in ("nine_var", "ss_bar", "hitting27"):
        assert solve_exhaustive(known_unsat(name)).status == "unsat"
    assert solve_dpll(known_unsat("mon51"), timeout=60).status == "unsat"
    assert verify_composite(mon51_structure()).ok


def test_unknown_witness():
    with pytest.raises(KeyError):
        known_unsat("nope")


def test_transversal_counts():
    for n in (3, 6, 9, 12, 15):
        assert transversal_count(n) == 3 ** (n // 3)
        triples = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(n // 3)]
        assert sum(1 for _ in itertools.product(*triples)) == 3 ** (n // 3)


def test_coverage_count_n12():
    # a fixed transversal 3-clause lies in exactly 3^(12/3-3) = 3 members
    triples = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    for clause in ((0, 3, 6), (1, 5, 8), (2, 4, 7)):
        cnt = sum(
            1 for X in itertools.product(*triples) if set(clause) <= set(X)
        )
        assert cnt == 3


def _canonical_instance(k, positives):
    n = 3 * k
    cls = [negative(range(3 * i, 3 * i + 3)) for i in range(k)]
    cls += map(positive, positives)
    return CnfInstance.from_codes(n, cls, SAT)


def test_transversal_hitting27_unsat():
    rep = check_sat_via_transversal(known_unsat("hitting27"))
    assert not rep.ok  # every transversal is hit


def test_transversal_empty_positives_sat():
    inst = _canonical_instance(3, [])
    rep = check_sat_via_transversal(inst)
    assert rep.ok


def test_transversal_shape_mismatch():
    with pytest.raises(ValueError):
        check_sat_via_transversal(known_unsat("nine_var"))


def test_transversal_cap_counts_triples():
    inst = _canonical_instance(W.DEFAULT_TRANSVERSAL_CAP + 1, [])
    with pytest.raises(ValueError, match="16 negative triples exceeds the fixed cap of 15"):
        check_sat_via_transversal(inst)


def test_transversal_agrees_with_oracle():
    rng = random.Random(55)
    for _ in range(60):
        k = rng.randint(1, 5)
        n = 3 * k
        m = rng.randint(0, 3 * k)
        seen = set()
        for _ in range(m):
            tri = tuple(sorted(rng.sample(range(n), 3)))
            seen.add(tri)
        inst = _canonical_instance(k, sorted(seen))
        a = check_sat_via_transversal(inst).ok
        b = solve_exhaustive(inst).status == "sat"
        assert a == b


def test_bound_appearance_route():
    # n = 30, every variable unnegated at most twice: 2 < 81/30, which
    # bounds the positive clauses by 2·30/3 = 20 < 27
    k = 10
    positives = [(3 * i, 3 * i + 4, 3 * i + 8) for i in range(k - 3)]
    inst = _canonical_instance(k, positives)
    assert max(p for p, _ in appearance_profile(inst)) <= 2
    assert bound_satisfiable(inst) is not None
    assert solve_dpll(inst).status == "sat"


def test_bound_clause_count_route():
    # 26 positive clauses < 27 guarantee satisfiability regardless of profile
    rng = random.Random(8)
    tris = set()
    while len(tris) < 26:
        tris.add(tuple(sorted(rng.sample(range(9), 3))))
    inst = _canonical_instance(3, sorted(tris))
    assert bound_satisfiable(inst) is not None
    assert solve_exhaustive(inst).status == "sat"


def test_bound_no_guarantee_on_hitting27():
    # both bounds are tight here (9 = 81/9 and 27 positive clauses)
    assert bound_satisfiable(known_unsat("hitting27")) is None


def test_bound_never_contradicts_oracle():
    rng = random.Random(13)
    for _ in range(60):
        k = rng.randint(1, 5)
        n = 3 * k
        tris = set()
        for _ in range(rng.randint(0, 4 * k)):
            tris.add(tuple(sorted(rng.sample(range(n), 3))))
        inst = _canonical_instance(k, sorted(tris))
        if bound_satisfiable(inst) is not None:
            assert solve_exhaustive(inst).status == "sat"


def test_min_hitting_set_n9():
    assert min_transversal_hitting_set(9) == 27


def test_min_hitting_set_n12():
    assert min_transversal_hitting_set(12) == 27


def test_min_hitting_set_small_n_undefined():
    # a transversal of n < 9 variables has no 3-element subset, so no
    # positive 3-clause can block one
    with pytest.raises(ValueError):
        min_transversal_hitting_set(6)
    with pytest.raises(ValueError):
        min_transversal_hitting_set(3)


def test_canonical_shape_rejects_mixed():
    inst = CnfInstance.from_codes(3, [(pos(0), neg(1), pos(2))], SAT)
    with pytest.raises(ValueError):
        canonical_shape(inst)


def test_canonical_shape_judges_repeats_not_the_flag():
    text = emit_dimacs(known_unsat("hitting27"))
    flagged = parse_dimacs(text.replace("c duplicates forbidden", "c duplicates allowed"))
    assert not check_sat_via_transversal(flagged).ok
    assert bound_satisfiable(flagged) is None
    repeating = CnfInstance.from_codes(3, [negative((0, 0, 1)), positive((0, 1, 2))], SAT)
    with pytest.raises(ValueError, match="set-flavor"):
        canonical_shape(repeating)


def test_canonical_signature_dedup_properties():
    # the signature is a sound dedup key, not a full canonical form: it is
    # invariant under clause reordering and idempotent under its own
    # relabeling, and equal signatures imply isomorphic instances
    rng = random.Random(21)
    base = [((0, 1, 2), False), ((0, 3, 4), True), ((1, 3, 5), False)]
    sig = canonical_signature(base)
    shuffled = base[:]
    for _ in range(5):
        rng.shuffle(shuffled)
        assert canonical_signature(shuffled) == sig
    assert canonical_signature(list(sig)) == sig  # idempotent


def test_search_22_exhausts_n3_and_n6():
    events = []
    out = search_unsat((2, 2), SearchBudget(max_n=6, max_candidates=10_000),
                       journal=events.append)
    assert out.found is None
    recs = {r["n"]: r for r in out.records}
    assert recs[3]["candidates"] == 0 and recs[3]["exhausted"]
    assert recs[6]["exhausted"] and recs[6]["candidates"] == 819
    assert any(e["event"] == "n-done" for e in events)


def test_search_22_budget_truncation_at_n9(monkeypatch):
    # n=6 takes 819 canonical candidates, so n=9 starts and is then cut off;
    # its sides are generated only as far as the 181 remaining pairs reach
    drawn = {}
    enumerate_sides = W.regular_hypergraphs_exhaustive

    def counted(n, degree):
        for side in enumerate_sides(n, degree):
            drawn[n] = drawn.get(n, 0) + 1
            yield side

    monkeypatch.setattr(W, "regular_hypergraphs_exhaustive", counted)
    out = search_unsat((2, 2), SearchBudget(max_n=9, max_candidates=1000))
    rec9 = [r for r in out.records if r["n"] == 9]
    assert rec9 and not rec9[0]["exhausted"]
    assert rec9[0]["candidates"] == 181
    assert drawn[9] < 2000  # of the 122,220 sides at n=9


def test_search_41_below_bound_is_empty():
    # k·n/3 < 27 positive clauses is always satisfiable: nothing to search
    # below n = 21 for (4,1), nor below n = 18 for (5,1)
    for profile, max_n in (((4, 1), 18), ((5, 1), 15)):
        out = search_unsat(profile, SearchBudget(max_n=max_n, max_candidates=100))
        assert out.found is None and out.records == [], profile


def test_search_41_samples_above_bound():
    out = search_unsat((4, 1), SearchBudget(max_n=21, max_candidates=40, seed=3))
    assert out.found is None  # a find would falsify the paper's corollary
    assert out.records and out.records[0]["n"] == 21


def test_search_51_probe_finds_construction():
    out = search_unsat((5, 1), SearchBudget(max_n=102, max_candidates=5))
    assert out.found is not None
    assert out.found.num_vars == 102
    prof = appearance_profile(out.found)
    assert all(pq == (5, 1) for pq in prof)


def test_search_time_limit_ends_the_search():
    # the size the time limit cuts is the last one walked and recorded
    events = []
    out = search_unsat((2, 2), SearchBudget(max_n=30, time_limit=0), journal=events.append)
    assert out.records == [{"n": 3, "candidates": 0, "exhausted": False, "ended": "time limit"}]
    assert [e["event"] for e in events] == ["n-start", "n-done"]


def test_search_51_probe_is_a_candidate_within_the_limits(monkeypatch):
    # the mon51 probe spends one candidate of the budget, and runs only when
    # the budget and the time limit leave room for it
    decided = []
    monkeypatch.setattr(W, "_certify_unsat_candidate",
                        lambda inst, spec: decided.append(inst.num_vars) and False)
    for budget in (SearchBudget(max_n=102, max_candidates=0),
                   SearchBudget(max_n=102, max_candidates=5, time_limit=0)):
        assert search_unsat((5, 1), budget).found is None
    assert decided == []
    out = search_unsat((5, 1), SearchBudget(max_n=102, max_candidates=5))
    assert decided[0] == 102 and len(decided) == 5
    assert sum(r["candidates"] for r in out.records) == 4


def test_certify_path_agrees_with_dpll(monkeypatch):
    # 300 seeded (k,1) samples at the first searched size and at the
    # transversal cap (15 triples): the certify path's verdict is DPLL's,
    # and every witness transversal it turns into a model satisfies its sample
    checked = []

    def spy(inst, model):
        checked.append(evaluate(inst, model))
        return checked[-1]

    monkeypatch.setattr(W, "evaluate", spy)
    rng = random.Random(2024)
    sat = 0
    for k, sizes in ((3, (27, 45)), (4, (21, 45)), (5, (18, 45))):
        spec = monotone_sat(k, 1)
        for n in sizes:
            for _ in range(50):
                inst = random_k1(n, k, rng)
                unsat = W._certify_unsat_candidate(inst, spec)
                assert unsat == (solve_dpll(inst).status == "unsat"), (k, n)
                sat += not unsat
    assert len(checked) == sat and all(checked)


def test_certify_blocked_transversals_run_dpll_and_the_kernel(monkeypatch):
    # hitting27 blocks every transversal; DPLL and the enumeration kernel
    # must both confirm it before the candidate counts as unsatisfiable
    calls = []
    for name in ("solve_dpll", "solve_exhaustive"):
        solve = getattr(W, name)
        monkeypatch.setattr(
            W, name, lambda inst, solve=solve, name=name: calls.append(name) or solve(inst))
    assert W._certify_unsat_candidate(known_unsat("hitting27"), monotone_sat(9, 1)) is True
    assert calls == ["solve_dpll", "solve_exhaustive"]


def test_search_reports_a_sampler_that_gives_up(monkeypatch):
    def give_up(n, k, rng):
        raise GenerationError("no sample")

    monkeypatch.setattr(W, "random_k1", give_up)
    out = search_unsat((4, 1), SearchBudget(max_n=21, max_candidates=40))
    assert out.records == [
        {"n": 21, "candidates": 0, "exhausted": False, "ended": "generator failed"}]


def test_search_unknown_profile():
    with pytest.raises(KeyError):
        search_unsat((9, 9), SearchBudget())
