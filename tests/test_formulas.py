import random
import re
from collections import Counter

import pytest

from mono3sat.formulas import (
    NAE,
    SAT,
    MONOTONE_NAE,
    Clause,
    CnfInstance,
    Literal,
    VariantSpec,
    appearance_profile,
    evaluate,
    is_linear,
    monotone_sat,
    neg,
    negate_rename,
    negative,
    pos,
    positive,
    total,
    validate,
)
from mono3sat import generate as G
from mono3sat.gadgets import FreshAllocator, build_gadget
from mono3sat.oracle import solve_exhaustive
from mono3sat.cli import parse_variant
from mono3sat.reductions import ReductionInputError, apply_reduction
from mono3sat.witnesses import known_unsat, regular_hypergraphs_exhaustive


def _views(codes):
    """The benchmark's `Clause` views of clause codes."""
    return tuple(Clause(tuple(Literal(x >> 1, bool(x & 1)) for x in c)) for c in codes)


def test_clause_multiset_reads_its_literals():
    # the benchmark reads `multiset` off the decoded view
    inst = CnfInstance.from_codes(3, [
        (pos(0), pos(0), pos(1)),
        (pos(0), neg(0), pos(1)),  # complementary pair
        (pos(0), neg(1), pos(2)),
        (),
    ], SAT)
    assert [c.multiset for c in inst.clauses] == [True, True, False, False]
    assert inst.clauses == _views(inst.codes)
    first = inst.clauses[0].literals
    assert first[0] is first[1] is inst.clauses[1].literals[0]  # one Literal per code


def test_instance_checks_variable_range():
    # both doors, the benchmark's views and codes, run the same checks with
    # the same messages
    cases = [
        ((1, ((pos(1),),), SAT), "clause 0 uses variable 1 >= num_vars=1"),
        ((2, ((pos(0),), (pos(1), neg(-3))), SAT), "clause 1 uses negative variable id -3"),
        ((1, (), "maybe"), "unknown mode 'maybe'"),
        ((-3, (), SAT), "negative num_vars -3"),
    ]

    def from_views(num_vars, codes, mode):
        return CnfInstance(num_vars, _views(codes), mode)

    for args, message in cases:
        for door in (from_views, CnfInstance.from_codes):
            with pytest.raises(ValueError, match=re.escape(message)):
                door(*args)
    codes = ((pos(0), neg(2)), (neg(1),))
    views, coded = from_views(3, codes, NAE), CnfInstance.from_codes(3, codes, NAE)
    assert views == coded and hash(views) == hash(coded)
    assert repr(views) == "CnfInstance(num_vars=3, codes=((0, 5), (3,)), mode='nae')"
    lists = CnfInstance.from_codes(3, [[0, 5], [3]], NAE)
    assert lists.codes == ((0, 5), (3,)) and all(type(c) is tuple for c in lists.codes)
    assert lists == views and lists.clauses == _views(codes)


def test_appearance_profile_nine_var():
    prof = appearance_profile(known_unsat("nine_var"))
    assert prof == [(3, 3)] * 9


def test_appearance_profile_empty():
    assert appearance_profile(CnfInstance.from_codes(0, (), SAT)) == []


def test_appearance_profile_multiset_duplicates_counted():
    prof = appearance_profile(CnfInstance.from_codes(3, [(pos(0), pos(0), pos(2))], SAT))
    assert prof[0] == (2, 0)
    assert prof[2] == (1, 0)


def test_profile_totals_match_clause_lengths():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 8)
        cls = []
        for _ in range(rng.randint(0, 10)):
            k = rng.randint(1, 3)
            if rng.random() < 0.3:
                cls.append([rng.randrange(n) << 1 | (rng.random() < 0.5) for _ in range(k)])
            else:
                vs = rng.sample(range(n), min(k, n))
                cls.append([v << 1 | (rng.random() < 0.5) for v in vs])
        inst = CnfInstance.from_codes(n, cls, SAT)
        prof = appearance_profile(inst)
        assert sum(p + q for p, q in prof) == sum(len(c) for c in inst.codes)


def test_validate_nine_var_profiles():
    nine = known_unsat("nine_var")
    assert validate(nine, monotone_sat(3, 3)).ok
    rep = validate(nine, VariantSpec(monotone=MONOTONE_NAE))
    assert not rep.ok
    assert rep.witness == ("clause", 0)  # the first negative clause


def test_validate_r3_output_is_linear_nae_e4():
    rng = random.Random(7)
    out = apply_reduction("R3", G.random_nae_e4(6, rng)).output
    spec = VariantSpec(monotone=MONOTONE_NAE, profile=total(4), linear="linear")
    assert validate(out, spec).ok


def test_validate_individual_predicates_recheck():
    rng = random.Random(3)
    inst = G.random_kk(6, 3, rng)
    spec = monotone_sat(3, 3)
    assert validate(inst, spec).ok
    # re-check each predicate independently
    assert all(len(c) == 3 for c in inst.codes)
    assert all(sum(x & 1 for x in c) in (0, 3) for c in inst.codes)
    assert appearance_profile(inst) == [(3, 3)] * 6


def test_monotone_counting_identity():
    # exact (p,q) with arity 3 and sat-monotone forces 3*#neg = n*q etc.
    rng = random.Random(11)
    for k in (1, 2, 3):
        inst = G.random_kk(6, k, rng)
        n = inst.num_vars
        npos = sum(1 for c in inst.codes if not any(x & 1 for x in c))
        nneg = sum(1 for c in inst.codes if all(x & 1 for x in c))
        assert npos * 3 == n * k
        assert nneg * 3 == n * k


def test_regular_hypergraph_law_is_uniform():
    # the configuration model is uniform over simple configurations, and each
    # labelled 2-regular hypergraph on 6 vertices has the same number of them
    # (2! per vertex), so the 75 hypergraphs come out equally often.  The
    # test reads the law, not the stream: any sampler with that law passes.
    graphs = list(regular_hypergraphs_exhaustive(6, 2))
    assert len(graphs) == len(set(graphs)) == 75
    rng = random.Random(0)
    draws = 15000
    counts = Counter(tuple(sorted(G.regular_hypergraph(6, 2, rng))) for _ in range(draws))
    assert set(counts) == set(graphs)
    expected = draws / len(graphs)
    chi2 = sum((counts[g] - expected) ** 2 / expected for g in graphs)
    # about the 0.999 quantile of chi-square on 74 degrees of freedom
    assert chi2 < 117, chi2


def test_regular_hypergraph_without_one_raises():
    # at n=3 a 2-regular hypergraph needs the one triple twice
    with pytest.raises(G.GenerationError, match="n=3"):
        G.regular_hypergraph(3, 2, random.Random(0))


def test_validate_names_the_first_variable_out_of_profile():
    # an exact (p1q1), a total (e4) and a choice spec, each failed by one
    # variable; the witness names it, whatever the reason says
    exact = CnfInstance.from_codes(6, [
        positive((0, 1, 2)), negative((0, 1, 2)), positive((3, 4, 5)), negative((3, 2, 5)),
    ], SAT)  # x2 is (1,2), x4 is (1,0)
    e4 = CnfInstance.from_codes(4, [
        positive((0, 1, 2)), negative((0, 1, 2)),
        (pos(0), neg(1), pos(2)), (neg(0), pos(1), neg(2)),
    ], SAT)  # x0..x2 are (2,2), x3 never appears
    choice = CnfInstance.from_codes(3, [
        positive((0, 1, 2)), (pos(0), neg(1), neg(2)),
        (pos(0), neg(1), pos(2)), negative((0, 1, 2)),
    ], SAT)  # x0 is (3,1), x1 is (1,3), x2 is (2,2)
    for inst, text, v in ((exact, "mono-sat-p1q1", 2), (e4, "e4", 3),
                          (choice, "choice-31-13", 2)):
        rep = validate(inst, parse_variant(text))
        assert not rep.ok and rep.witness == ("variable", v), text
    assert validate(e4, parse_variant("p2q2-e4")).witness == ("variable", 3)
    # a reduction refuses an input outside its input profile: R5 wants (2,2)
    with pytest.raises(ReductionInputError):
        apply_reduction("R5", e4)


def test_validate_distinct_clauses():
    inst = CnfInstance.from_codes(3, [positive((0, 1, 2))] * 2, SAT)
    rep = validate(inst, VariantSpec())
    assert not rep.ok and rep.witness == ("clause_pair", 0, 1)
    assert validate(inst, VariantSpec(distinct_clauses=False)).ok


def test_is_linear_eq4l_gadget():
    g = build_gadget("EQ4L", (0, 1, 2, 3), FreshAllocator(4))
    inst = CnfInstance.from_codes(10, g.clauses, NAE)
    assert is_linear(inst).ok


def test_is_linear_two_shared():
    rep = is_linear(CnfInstance.from_codes(4, [positive((0, 1, 2)), positive((0, 1, 3))], SAT))
    assert not rep.ok
    assert rep.witness == ("clause_pair", 0, 1)


def test_is_linear_nine_var_fails_on_clauses_1_and_7():
    rep = is_linear(known_unsat("nine_var"))
    assert not rep.ok
    assert rep.witness == ("clause_pair", 0, 6)  # share a, d, g


def test_is_linear_rejects_multiset():
    with pytest.raises(ValueError):
        is_linear(CnfInstance.from_codes(2, [positive((0, 0, 1))], SAT))


def test_linear_spec_judges_repeats_not_the_flag():
    flagged = CnfInstance.from_codes(3, [positive((0, 1, 2))], SAT)
    assert is_linear(flagged).ok
    assert validate(flagged, VariantSpec(linear="linear")).ok
    repeating = CnfInstance.from_codes(2, [positive((0, 0, 1))], SAT)
    rep = validate(repeating, VariantSpec(duplicates=True, linear="linear"))
    assert not rep.ok and rep.witness == ("clause", 0)


def test_exact_linear():
    # three clauses pairwise sharing exactly one variable
    cls = map(positive, ((0, 1, 2), (0, 3, 4), (1, 3, 5)))
    assert is_linear(CnfInstance.from_codes(6, cls, SAT), exact=True).ok
    disjoint = map(positive, ((0, 1, 2), (3, 4, 5)))
    assert not is_linear(CnfInstance.from_codes(6, disjoint, SAT), exact=True).ok


def _pairwise_linear(inst, exact):
    """(ok, reason, witness) of the all-pairs definition of linearity."""
    sets = [{x >> 1 for x in c} for c in inst.codes]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            k = len(sets[i] & sets[j])
            if k > 1:
                return False, f"clauses {i} and {j} share {k} variables", ("clause_pair", i, j)
            if exact and k != 1:
                return False, f"clauses {i} and {j} share no variable", ("clause_pair", i, j)
    return True, "", None


FANO_LINES = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))


def test_is_linear_matches_pairwise_reference():
    rng = random.Random(71)
    seen = set()
    for t in range(600):
        kind = t % 3
        n = rng.randint(7, 12)
        if kind == 0:  # random clauses, mostly not linear
            vsets = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(rng.randint(0, 8))]
        elif kind == 1:  # greedy linear, then perhaps one clause that breaks it
            vsets = []
            for _ in range(rng.randint(0, 20)):
                vs = rng.sample(range(n), 3)
                if all(len(set(vs) & set(o)) <= 1 for o in vsets):
                    vsets.append(vs)
            if vsets and rng.random() < 0.5:
                vs = rng.choice(vsets)[:2] + [rng.choice(range(n))]
                if len(set(vs)) == 3:
                    vsets.insert(rng.randint(0, len(vsets)), vs)
        else:  # exact linear: relabelled Fano lines, perhaps plus one clause
            perm = rng.sample(range(n), n)
            vsets = [[perm[v] for v in line] for line in rng.sample(FANO_LINES, rng.randint(0, 7))]
            if rng.random() < 0.5:
                vsets.insert(rng.randint(0, len(vsets)), rng.sample(range(n), 3))
        inst = CnfInstance.from_codes(n, [
            [v << 1 | (rng.random() < 0.3) for v in vs] for vs in vsets
        ], SAT)
        for exact in (False, True):
            rep = is_linear(inst, exact)
            assert (rep.ok, rep.reason, rep.witness) == _pairwise_linear(inst, exact)
            seen.add((kind, exact, rep.ok))
    assert len(seen) == 12


def test_negate_rename_profile_flip():
    # a variable appearing three times negated, once unnegated
    inst = CnfInstance.from_codes(5, [
        (neg(0), pos(1), pos(2)),
        (neg(0), pos(1), pos(3)),
        (neg(0), pos(2), pos(3)),
        (pos(0), pos(1), pos(4)),
    ], SAT)
    assert appearance_profile(inst)[0] == (1, 3)
    flipped = negate_rename(inst, [0])
    assert appearance_profile(flipped)[0] == (3, 1)


def test_negate_rename_involution_and_sat_preservation():
    nine = known_unsat("nine_var")
    flipped = negate_rename(nine, range(9))
    assert solve_exhaustive(flipped).status == "unsat"
    assert negate_rename(flipped, range(9)) == nine
    rng = random.Random(4)
    for _ in range(20):
        inst = G.random_22(6, rng)
        sel = [v for v in range(6) if rng.random() < 0.5]
        out = negate_rename(inst, sel)
        assert negate_rename(out, sel) == inst
        assert solve_exhaustive(out).status == solve_exhaustive(inst).status


def test_negate_rename_range_check():
    with pytest.raises(ValueError):
        negate_rename(CnfInstance.from_codes(2, (), SAT), [5])


def test_evaluate_modes():
    inst_sat = CnfInstance.from_codes(3, [positive((0, 1, 2))], SAT)
    inst_nae = CnfInstance.from_codes(3, [positive((0, 1, 2))], NAE)
    assert evaluate(inst_sat, (True, True, True))
    assert not evaluate(inst_nae, (True, True, True))
    assert evaluate(inst_nae, (True, False, True))
    with pytest.raises(ValueError):
        evaluate(inst_sat, (True,))
