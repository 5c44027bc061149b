"""Acceptance suite: one test per criterion, each printing a pass line.

The reduction corpus (criteria 3 and 4) is built once per session: fifty
random valid inputs per catalogued row, at sizes the exhaustive oracle can
decide directly.
"""

import itertools
import random
import time
import zlib

import pytest

from mono3sat.formulas import validate
from mono3sat import generate as G
from mono3sat import reductions as R
from mono3sat.gadgets import GADGET_NAMES, verify_composite, verify_gadget
from mono3sat.oracle import solve_dpll, solve_exhaustive
from mono3sat import witnesses as W

RUNS_PER_ROW = 50
ROWS = [r for r in R.REDUCTIONS if r != "R10"]  # R10 awaits Challenge 1


@pytest.fixture(scope="module")
def reduction_corpus():
    corpus = {}
    for rid in ROWS:
        rng = random.Random(0xC0FFEE ^ zlib.crc32(rid.encode()))
        rows = []
        for _ in range(RUNS_PER_ROW):
            inst, k = R.REDUCTIONS[rid].sample(rng)
            cert = R.apply_reduction(rid, inst, k=k)
            rows.append((inst, k, cert))
        corpus[rid] = rows
    return corpus


def test_criterion_1_gadget_lemma_suite():
    t0 = time.perf_counter()
    failures = []
    for kind in GADGET_NAMES:
        rep = verify_gadget(kind)
        if not rep.ok:
            failures.append((kind, rep.reason, rep.witness))
    elapsed = time.perf_counter() - t0
    assert not failures, f"gadget lemma failures: {failures}"
    assert elapsed < 30.0, f"gadget suite took {elapsed:.1f}s (budget 30s)"
    print(f"\nACCEPTANCE 1 gadget lemma suite ({len(GADGET_NAMES)} rows, "
          f"{elapsed:.2f}s): PASS")


def test_criterion_2_witness_suite():
    nine = W.known_unsat("nine_var")
    assert nine.num_vars == 9
    assert solve_exhaustive(nine).status == "unsat"
    ss = W.known_unsat("ss_bar")
    assert ss.num_vars == 13
    assert solve_exhaustive(ss).status == "unsat"
    h27 = W.known_unsat("hitting27")
    assert h27.num_vars == 9
    assert solve_exhaustive(h27).status == "unsat"
    m51 = W.known_unsat("mon51")
    assert m51.num_vars == 102 and m51.num_clauses == 204
    t0 = time.perf_counter()
    res = solve_dpll(m51, timeout=60)
    elapsed = time.perf_counter() - t0
    assert res.status == "unsat" and elapsed < 60
    comp = verify_composite(W.mon51_structure())
    assert comp.ok, comp.reason
    print(f"\nACCEPTANCE 2 witness suite (mon51 DPLL {elapsed:.2f}s "
          f"+ compositional): PASS")


def test_criterion_3_reduction_structural_suite(reduction_corpus):
    violations = []
    for rid, rows in reduction_corpus.items():
        row = R.REDUCTIONS[rid]
        for inst, k, cert in rows:
            _, spec = row.specs(k)
            rep = validate(cert.output, spec)
            if not rep.ok:
                violations.append((rid, rep.reason))
            if rid == "R6":
                n, m = inst.num_vars, inst.num_clauses
                if cert.output.num_clauses != (k + 1) * (m + 2 * n):
                    violations.append((rid, "size formula"))
            if rid == "R8":
                n, m = inst.num_vars, inst.num_clauses
                if cert.output.num_clauses != (k + 1) * (m + n) + 2 * (n // 3):
                    violations.append((rid, "size formula"))
    assert not violations, violations
    total = sum(len(v) for v in reduction_corpus.values())
    print(f"\nACCEPTANCE 3 reduction structural suite "
          f"({len(reduction_corpus)} rows x {RUNS_PER_ROW} = {total} runs): PASS")


def test_criterion_4_equisatisfiability_suite(reduction_corpus):
    mismatches = []
    for rid, rows in reduction_corpus.items():
        for _, _, cert in rows:
            rep = R.check_equisat(cert, timeout=60)
            if not rep.ok:
                mismatches.append((rid, rep.reason))
    assert not mismatches, mismatches
    print("\nACCEPTANCE 4 equisatisfiability suite (check_equisat: solve_auto "
          "vs DPLL, pull-backs checked): PASS")


def test_criterion_5_transversal_combinatorics():
    for n in (3, 6, 9, 12, 15):
        k = n // 3
        triples = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)]
        assert W.transversal_count(n) == 3 ** k
        assert sum(1 for _ in itertools.product(*triples)) == 3 ** k
    # per-clause coverage at n = 12
    triples = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    for clause in itertools.islice(
        itertools.product((0, 1, 2), (3, 4, 5), (6, 7, 8)), 9
    ):
        cnt = sum(1 for X in itertools.product(*triples) if set(clause) <= set(X))
        assert cnt == 3 ** (4 - 3)
    # transversal decision agrees with the oracle on 200 random canonical
    # instances, and the bounds never bless an unsatisfiable instance
    from mono3sat.formulas import SAT, CnfInstance, negative, positive

    rng = random.Random(0xACCE)
    for _ in range(200):
        k = rng.randint(1, 5)
        n = 3 * k
        tris = set()
        for _ in range(rng.randint(0, 4 * k)):
            tris.add(tuple(sorted(rng.sample(range(n), 3))))
        cls = [negative(range(3 * i, 3 * i + 3)) for i in range(k)]
        cls += map(positive, sorted(tris))
        inst = CnfInstance.from_codes(n, cls, SAT)
        oracle_sat = solve_exhaustive(inst).status == "sat"
        assert W.check_sat_via_transversal(inst).ok == oracle_sat
        if W.bound_satisfiable(inst) is not None:
            assert oracle_sat, "a bound guaranteed an unsatisfiable instance"
    assert W.min_transversal_hitting_set(9) == 27
    print("\nACCEPTANCE 5 transversal combinatorics (200 cross-checks, "
          "min hitting set 27): PASS")


@pytest.mark.parametrize("profile,n_bound", [((4, 1), 21), ((3, 1), 27)])
def test_criterion_6_bound_consistency(profile, n_bound):
    k = profile[0]
    rng = random.Random(0xB0A + k)
    ns = [n for n in range(9, n_bound, 3)]
    for trial in range(500):
        n = ns[trial % len(ns)]
        inst = G.random_k1(n, k, rng)
        res = solve_dpll(inst, timeout=60)
        if res.status != "sat":
            pytest.fail(
                f"LOUD ABORT: random Monotone 3-Sat-({k},1) instance with "
                f"n={n} < {n_bound} reported {res.status}; this contradicts "
                f"the satisfiability bound and would falsify the result"
            )
    print(f"\nACCEPTANCE 6 bound consistency ({k},1) x500 below n={n_bound}: PASS")


def test_criterion_7_challenge_scaffolding():
    events = []
    budget = W.SearchBudget(max_n=9, max_candidates=1500, seed=0)
    out = W.search_unsat((2, 2), budget, journal=events.append)
    assert out.found is None
    recs = {r["n"]: r for r in out.records}
    # n = 3 exhausted: no candidate instances exist at all
    assert recs[3]["exhausted"] and recs[3]["candidates"] == 0
    # n = 6 exhausted modulo the canonical form: every candidate satisfiable
    assert recs[6]["exhausted"] and recs[6]["candidates"] > 0
    # n = 9 ran under the budget and is reported truncated, never "all sat"
    assert 9 in recs and not recs[9]["exhausted"]
    assert any(e["event"] == "n-done" for e in events)
    print(f"\nACCEPTANCE 7 challenge scaffolding (n=3: empty, "
          f"n=6: {recs[6]['candidates']} candidates all satisfiable, "
          f"n=9: truncated at {recs[9]['candidates']}): PASS")
