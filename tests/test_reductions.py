import dataclasses
import hashlib
import random
import zlib
from collections import Counter

import pytest

from mono3sat.formulas import (
    NAE,
    SAT,
    Clause,
    CnfInstance,
    Literal,
    neg,
    negative,
    pos,
    positive,
    validate,
)
from mono3sat import generate as G
from mono3sat.dimacs import emit_dimacs, parse_dimacs
from mono3sat import reductions as R
from mono3sat.gadgets import GADGET_NAMES, verify_gadget
from mono3sat.oracle import solve_dpll, solve_exhaustive, split_forced
from mono3sat.witnesses import (
    WITNESS_NAMES,
    SearchBudget,
    _canonical_pairs,
    known_unsat,
    search_unsat,
)

# a frozen 9-variable unsatisfiable Monotone NAE-3-Sat-E4 instance: a
# 4-regular 3-uniform hypergraph with no proper 2-coloring, found by random
# search and certified by exhaustive enumeration in the test below
UNSAT_NAE_E4_TRIPLES = (
    (0, 3, 7), (0, 3, 5), (1, 2, 6), (4, 6, 7), (2, 5, 6), (2, 7, 8),
    (0, 1, 8), (2, 4, 8), (1, 5, 7), (3, 6, 8), (0, 4, 5), (1, 3, 4),
)

# a monotone (2,2) instance that is satisfiable in sat mode and not in nae mode
NAE_UNSAT_PARAM = """c mode nae
p cnf 9 12
3 8 9 0
3 7 9 0
4 5 8 0
1 2 7 0
1 5 6 0
2 4 6 0
-1 -5 -6 0
-1 -3 -4 0
-2 -8 -9 0
-4 -7 -9 0
-2 -3 -5 0
-6 -7 -8 0
"""


def unsat_nae_e4() -> CnfInstance:
    return CnfInstance.from_codes(9, map(positive, UNSAT_NAE_E4_TRIPLES), NAE)


def seed_22() -> CnfInstance:
    """The 3-variable (2,2) seed: {xyz}, {~x~y~z}, {x~y~z}, {~xyz}."""
    return CnfInstance.from_codes(3, [
        positive((0, 1, 2)),
        negative((0, 1, 2)),
        (pos(0), neg(1), neg(2)),
        (neg(0), pos(1), pos(2)),
    ], SAT)


def tiny_unsat_nae_star() -> CnfInstance:
    return CnfInstance.from_codes(2, [
        positive((0, 0, 1)),
        (pos(0), pos(0), neg(1)),
    ], NAE)


UNCONDITIONAL = [r for r in R.REDUCTIONS if r != "R10"]

# SHA-256 over the DIMACS text, back-map and gadget log of the first 8
# sampled outputs of every unconditional row, then the four witnesses'
# DIMACS text; a change that only simplifies the code must leave it as is.
# The inputs are those of the anchored-triple configuration-model sampler;
# the previous reductions, run on them read back from DIMACS, gave the same
# digest
PINNED_OUTPUTS_SHA256 = "212e014b0b9d023113d7a45eb9596cc48cdb236aa6318dddd82d2b4d361b453b"


def test_reduction_outputs_are_pinned():
    digest = hashlib.sha256()
    for rid in UNCONDITIONAL:
        row = R.REDUCTIONS[rid]
        rng = random.Random(zlib.crc32(rid.encode()))
        for _ in range(8):
            inst, k = row.sample(rng)
            cert = R.apply_reduction(rid, inst, k=k)
            digest.update(emit_dimacs(cert.output).encode())
            digest.update(repr(sorted(cert.back_map.items())).encode())
            digest.update(repr(cert.gadget_log).encode())
    for name in WITNESS_NAMES:
        digest.update(emit_dimacs(known_unsat(name)).encode())
    assert digest.hexdigest() == PINNED_OUTPUTS_SHA256


def test_build_path_makes_no_views(monkeypatch):
    # codes are the one clause form: the reductions, generators, witnesses,
    # DIMACS input and the (2,2) candidate stream write them, and the
    # solvers, the gadget verifier, the equisat check, the forced-literal
    # split and the unsat search read them, without a Literal or a Clause
    # (the benchmark's view) in between
    inputs = []
    for rid in UNCONDITIONAL:
        row = R.REDUCTIONS[rid]
        rng = random.Random(zlib.crc32(rid.encode()))
        inputs += [(rid, *row.sample(rng)) for _ in range(8)]
    made = Counter()
    literal_new, clause_init = Literal.__new__, Clause.__init__

    def counting_new(cls, *args):
        made["Literal"] += 1
        return literal_new(cls, *args)

    def counting_init(self, *args):
        made["Clause"] += 1
        clause_init(self, *args)

    monkeypatch.setattr(Literal, "__new__", counting_new)
    monkeypatch.setattr(Clause, "__init__", counting_init)
    Clause((Literal(0, False),))
    assert made == {"Literal": 1, "Clause": 1}  # the counters count
    made.clear()
    certs = [R.apply_reduction(rid, inst, k=k) for rid, inst, k in inputs]
    rng = random.Random(1)
    G.random_monotone_nae(6, 4, rng)
    G.random_nae_e4(6, rng)
    G.random_nae_star(4, 5, rng)
    G.random_kk(6, 2, rng)
    G.random_32(6, rng)
    G.random_k1(6, 2, rng)
    G.random_22(6, rng)
    for name in WITNESS_NAMES:
        parse_dimacs(emit_dimacs(known_unsat(name)))
    assert len(list(_canonical_pairs(6))) == 819
    assert made == {}
    for name in ("nine_var", "ss_bar", "hitting27"):
        assert solve_exhaustive(known_unsat(name)).status == "unsat"
        assert solve_dpll(known_unsat(name)).status == "unsat"
    for kind in GADGET_NAMES:
        assert verify_gadget(kind).ok, kind
    for cert in certs:
        assert R.check_equisat(cert, timeout=60).ok, cert.rid
    assert split_forced(known_unsat("nine_var"))[0] == list(range(17))
    assert search_unsat((2, 2), SearchBudget(max_n=6)).found is None
    assert made == {}


@pytest.mark.parametrize("rid", UNCONDITIONAL)
def test_structural_and_equisat(rid):
    rng = random.Random(zlib.crc32(rid.encode()))
    row = R.REDUCTIONS[rid]
    for _ in range(8):
        inst, k = row.sample(rng)
        cert = R.apply_reduction(rid, inst, k=k)
        _, spec = row.specs(k)
        assert validate(cert.output, spec).ok
        assert cert.untraced_variables() == []
        assert cert.output.mode == row.output_mode
        rep = R.check_equisat(cert, timeout=60)
        assert rep.ok, f"{rid}: {rep.reason}"


def test_split_refuses_one_copy_twice_in_a_clause():
    # a plan that gives both appearances of x0 in the clause copy 0
    star = CnfInstance.from_codes(2, [positive((0, 0, 1))], NAE)
    b = R._Builder(R.REDUCTIONS["R2"], star)
    with pytest.raises(AssertionError, match="R2: the split gives clause 0 one copy twice"):
        R._split(b, lambda u, q: ((0,) * u, (0,) * q, (False,)))


def test_r6_size_formula():
    rng = random.Random(6)
    for k in (1, 2, 3):
        inst = G.random_kk(6, k, rng)
        cert = R.apply_reduction("R6", inst, k=k)
        n, m = inst.num_vars, inst.num_clauses
        assert cert.output.num_clauses == (k + 1) * (m + 2 * n)
        assert cert.output.num_vars == (k + 3) * n


def test_r8_size_formula():
    rng = random.Random(8)
    for k in (1, 2, 3):
        inst = G.random_k1(9, k, rng)
        cert = R.apply_reduction("R8", inst, k=k)
        n, m = inst.num_vars, inst.num_clauses
        q = n // 3
        assert cert.output.num_clauses == (k + 1) * (m + n) + 2 * q
        assert cert.output.num_vars == (k + 3) * n


def test_r5_on_seed():
    seed = seed_22()
    assert solve_exhaustive(seed).status == "sat"
    cert = R.apply_reduction("R5", seed)
    assert validate(cert.output, R.REDUCTIONS["R5"].output_spec()).ok
    assert solve_dpll(cert.output).status == "sat"


def test_r7_q1_and_q2_branches():
    # n=3 exercises the D-padding branch (q=1), n=6 the clause rings (q=2)
    seed = seed_22()
    cert1 = R.apply_reduction("R7", seed)
    assert validate(cert1.output, R.REDUCTIONS["R7"].output_spec()).ok
    assert any(e.label == "D" for e in cert1.gadget_log[-1:])
    rng = random.Random(17)
    cert2 = R.apply_reduction("R7", G.random_22(6, rng))
    assert validate(cert2.output, R.REDUCTIONS["R7"].output_spec()).ok
    # ring padding clauses: 2q = 4 positive triples over the y variables
    ys = [e.boundary[0] for e in cert2.gadget_log if e.label == "Y_RING"]
    pad = [
        c for c in cert2.output.codes
        if not any(x & 1 for x in c) and {x >> 1 for x in c} <= set(ys)
    ]
    assert len(pad) == 4
    assert len({tuple(sorted(c)) for c in pad}) == 4  # pairwise distinct


def test_r13_on_seed_both_sat():
    rep = R.check_equisat(R.apply_reduction("R13", seed_22()), timeout=60)
    assert rep.ok and "sat" in rep.reason


def test_check_equisat_reports_a_bad_back_map():
    # one copy's negation flipped: the output model no longer pulls back, and
    # the check says so for the row instead of raising
    cert = R.apply_reduction("R5", seed_22())
    assert R.check_equisat(cert, timeout=60).ok
    out_v, (in_v, negated) = next(iter(cert.back_map.items()))
    bad = dataclasses.replace(
        cert, back_map={**cert.back_map, out_v: (in_v, not negated)}
    )
    rep = R.check_equisat(bad, timeout=60)
    assert rep.ok is False
    assert rep.reason.startswith("R5: pull-back failed"), rep.reason


def test_check_equisat_reports_a_consistent_but_wrong_back_map():
    # every copy of input variable 1 negation-flipped: the copies still agree,
    # so only the check that the pulled-back assignment satisfies the input
    # can reject the map
    cert = R.apply_reduction("R5", seed_22())
    flipped = {o: (i, negated ^ (i == 1)) for o, (i, negated) in cert.back_map.items()}
    rep = R.check_equisat(dataclasses.replace(cert, back_map=flipped), timeout=60)
    assert rep.ok is False
    assert rep.reason == (
        "R5: pull-back failed: pulled-back assignment does not satisfy the input instance"
    ), rep.reason


def _patch_r5(monkeypatch, apply):
    monkeypatch.setitem(
        R.REDUCTIONS, "R5", dataclasses.replace(R.REDUCTIONS["R5"], apply=apply)
    )


def test_finish_rejects_an_output_outside_its_spec(monkeypatch):
    def with_a_stray_clause(b):
        R._apply_r5(b)
        b.clauses.append(positive((0, 1, 2)))  # a fourth positive x0

    _patch_r5(monkeypatch, with_a_stray_clause)
    with pytest.raises(AssertionError, match="^R5: output violates its variant spec"):
        R.apply_reduction("R5", seed_22())


def test_finish_rejects_an_unlogged_auxiliary(monkeypatch):
    def without_the_sbar_entry(b):
        R._apply_r5(b)
        b.log = [e for e in b.log if e.label != "SBAR"]

    _patch_r5(monkeypatch, without_the_sbar_entry)
    with pytest.raises(AssertionError, match=r"^R5: untraced output variables \[19, "):
        R.apply_reduction("R5", seed_22())


def test_r4_clause_pair_property():
    # from a linear input, no output pair shares two variables together with
    # more than one literal
    rng = random.Random(44)
    linear = R.apply_reduction("R3", G.random_nae_e4(6, rng)).output
    out = R.apply_reduction("R4", linear).output
    sets = [set(c) for c in out.codes]
    varsets = [{x >> 1 for x in c} for c in out.codes]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(varsets[i] & varsets[j]) == 2:
                assert len(sets[i] & sets[j]) <= 1


def test_r2_on_duplicated_literal_instance():
    inst = tiny_unsat_nae_star()
    assert solve_exhaustive(inst).status == "unsat"
    rep = R.check_equisat(R.apply_reduction("R2", inst), timeout=60)
    assert rep.ok and "unsat" in rep.reason


def test_r2_ring_structure_on_model():
    rng = random.Random(23)
    inst = G.random_nae_star(3, 4, rng)
    cert = R.apply_reduction("R2", inst)
    res = solve_dpll(cert.output, timeout=60)
    if res.status == "sat":
        # copies agree inside each polarity block and flip across blocks
        groups = {}
        for out_v, (in_v, flipped) in cert.back_map.items():
            groups.setdefault(in_v, []).append(bool(res.model[out_v]) ^ flipped)
        for vals in groups.values():
            assert len(set(vals)) == 1


def test_r3_copies_agree_in_model():
    rng = random.Random(29)
    inst = G.random_nae_e4(6, rng)
    cert = R.apply_reduction("R3", inst)
    res = solve_dpll(cert.output, timeout=60)
    assert res.status == "sat"
    groups = {}
    for out_v, (in_v, _) in cert.back_map.items():
        groups.setdefault(in_v, []).append(res.model[out_v])
    for vals in groups.values():
        assert len(set(vals)) == 1
    back = R.pull_back(cert, res.model)
    assert len(back) == 6


def test_unsat_flows():
    nine = known_unsat("nine_var")
    assert R.check_equisat(R.apply_reduction("R6", nine, k=3), timeout=60).ok
    assert R.check_equisat(R.apply_reduction("R9", nine), timeout=60).ok
    r11 = R.apply_reduction("R11", seed_22()).output
    assert R.check_equisat(R.apply_reduction("R12", r11), timeout=60).ok
    seed = unsat_nae_e4()
    assert solve_exhaustive(seed).status == "unsat"
    r3 = R.apply_reduction("R3", seed)
    assert R.check_equisat(r3, timeout=90).ok
    assert R.check_equisat(R.apply_reduction("R4", r3.output), timeout=90).ok


def test_pull_back_rejects_non_model():
    cert = R.apply_reduction("R5", seed_22())
    bad = tuple(False for _ in range(cert.output.num_vars))
    with pytest.raises(ValueError):
        R.pull_back(cert, bad)


def test_pull_back_model_satisfies_input():
    seed = seed_22()
    cert = R.apply_reduction("R5", seed)
    res = solve_dpll(cert.output, timeout=60)
    assert res.status == "sat"
    back = R.pull_back(cert, res.model)
    from mono3sat.formulas import evaluate

    assert evaluate(seed, back)


def test_input_validation():
    rng = random.Random(2)
    with pytest.raises(R.ReductionInputError):
        R.apply_reduction("R5", G.random_kk(6, 3, rng))  # (3,3), not (2,2)
    with pytest.raises(R.ReductionInputError):
        R.apply_reduction("R1", G.random_22(3, rng))  # sat mode into a nae row
    with pytest.raises(R.ReductionInputError):
        R.apply_reduction("R6", G.random_kk(6, 2, rng), k=3)  # wrong k
    # a k or a parameter instance that the row does not take
    nae, nine = G.random_monotone_nae(6, 4, rng), known_unsat("nine_var")
    with pytest.raises(R.ReductionInputError, match="R1 takes no appearance parameter k"):
        R.apply_reduction("R1", nae, k=7)
    with pytest.raises(R.ReductionInputError, match="R1 takes no parameter instance"):
        R.apply_reduction("R1", nae, param=nine)
    with pytest.raises(R.ReductionInputError, match="R6 takes no parameter instance"):
        R.apply_reduction("R6", nine, k=3, param=nine)
    with pytest.raises(R.ReductionInputError, match="R10 takes no appearance parameter k"):
        R.apply_reduction("R10", nine, k=3, param=nine)
    with pytest.raises(KeyError):
        R.apply_reduction("R99", seed_22())


def test_r1_degenerate_ring_keeps_one_closing_clause(monkeypatch):
    # a variable with one appearance gets EQ_NE(c, c), whose repeated closing
    # clause is kept once; a ring gadget that ends in no repeat is refused
    inst = CnfInstance.from_codes(3, [positive((0, 1, 2))], NAE)
    out = R.apply_reduction("R1", inst).output
    assert len(set(out.codes)) == len(out.codes)
    build = R.build_gadget

    def no_repeat(kind, boundary, alloc):
        g = build(kind, boundary, alloc)
        return dataclasses.replace(g, clauses=g.clauses[:-1])

    monkeypatch.setattr(R, "build_gadget", no_repeat)
    with pytest.raises(AssertionError, match="ends in no repeated clause"):
        R.apply_reduction("R1", inst)


def test_r10_error_paths():
    rng = random.Random(5)
    inst33 = G.random_kk(6, 3, rng)
    with pytest.raises(R.ReductionInputError):
        R.apply_reduction("R10", inst33)  # no parameter
    sat_param = G.random_22(3, rng)
    # the parameter must be monotone (2,2): a mixed-polarity one is rejected
    with pytest.raises(R.ReductionInputError):
        R.apply_reduction("R10", inst33, param=sat_param)
    # a satisfiable monotone (2,2)-shaped parameter is rejected as satisfiable
    sides = ((0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5))
    mono = CnfInstance.from_codes(6, [*map(positive, sides), *map(negative, sides)], SAT)
    with pytest.raises(R.ReductionInputError, match="unsatisfiable"):
        R.apply_reduction("R10", inst33, param=mono)
    # a nae-mode parameter is rejected for its mode before anything is
    # solved: this one is sat in sat mode and unsat in nae mode
    with pytest.raises(R.ReductionInputError, match="sat-mode parameter.*got nae"):
        R.apply_reduction("R10", inst33, param=parse_dimacs(NAE_UNSAT_PARAM))


def test_r10_assembly_structure():
    # The assembly step is exercised with a synthetic forced-literal gadget
    # whose bookkeeping matches the real one (satisfiable core, balanced
    # pools of 3q literals, per-variable core+pool profile (2,2)); only the
    # forcing property is fictional, so the check here is structural.
    mg = R.MGadget(
        num_vars=3,
        clauses=(positive((0, 1, 2)), negative((0, 1, 2))),
        pos_pool=(0, 1, 2),
        neg_pool=(0, 1, 2),
        q=1,
    )
    rng = random.Random(10)
    inst = G.random_kk(6, 3, rng)
    b = R._Builder(R.REDUCTIONS["R10"], inst)
    R._assemble_r10(b, mg)
    cert = b.finish()
    out = cert.output
    spec = R.REDUCTIONS["R10"].output_spec()
    assert validate(out, spec).ok
    assert cert.untraced_variables() == []
    # one copy (q=1): 6 copies per input variable plus one gadget per variable
    assert out.num_vars == 6 * inst.num_vars + mg.num_vars * inst.num_vars
    # every 2-clause got exactly one padding literal: all clauses are triples
    assert all(len(c) == 3 for c in out.codes)
    # the chain's negative triples come from the catalogue row, one per six
    chain_negs = [e.boundary for e in cert.gadget_log if e.label == "CHAIN22_NEG"]
    assert chain_negs == [tuple(range(6 * v, 6 * v + 6)) for v in range(inst.num_vars)]
    # R10 is outside PINNED_OUTPUTS_SHA256, so its assembled bytes are pinned here
    assert hashlib.sha256(emit_dimacs(out).encode()).hexdigest() == (
        "58c8ff23b574c40ad5736309523fb36b4649562a3d789b43979b23c16f81ca30"
    )
    # two copies (q=2): the second copy's sixes are logged as COPY1 and
    # leave the back-map, which keeps the first copy's 36 variables
    mg2 = R.MGadget(
        num_vars=6,
        clauses=(positive((0, 1, 2)), negative((0, 1, 2)),
                 positive((3, 4, 5)), negative((3, 4, 5))),
        pos_pool=tuple(range(6)),
        neg_pool=tuple(range(6)),
        q=2,
    )
    b = R._Builder(R.REDUCTIONS["R10"], inst)
    R._assemble_r10(b, mg2)
    cert = b.finish()
    out = cert.output
    assert validate(out, spec).ok
    assert cert.untraced_variables() == []
    assert (out.num_vars, out.num_clauses) == (108, 144)
    assert all(len(c) == 3 for c in out.codes)
    copies = [e.boundary for e in cert.gadget_log if e.label == "COPY1"]
    assert copies == [tuple(range(36 + 6 * v, 42 + 6 * v)) for v in range(inst.num_vars)]
    assert sorted(cert.back_map) == list(range(36))


def test_m_gadget_on_nine_var():
    # the doubling construction behind the conditional reduction, checked on
    # the explicit (3,3) witness and on hitting27, whose forced literals are
    # positive: core satisfiable, pools balanced at 3q
    pools = {"nine_var": ((11, 12, 14), (2, 3, 5)), "hitting27": ((2, 5, 8), (11, 14, 17))}
    for name, (pos_pool, neg_pool) in pools.items():
        mg = R.build_m_gadget(known_unsat(name))
        assert (mg.q, mg.pos_pool, mg.neg_pool) == (1, pos_pool, neg_pool)
        inst = CnfInstance.from_codes(mg.num_vars, mg.clauses, SAT)
        res = solve_dpll(inst)
        assert res.status == "sat"
        # forced-false pools: conjoin each literal and refute
        for v in set(mg.pos_pool):
            probe = CnfInstance.from_codes(mg.num_vars, inst.codes + ((pos(v),),), SAT)
            assert solve_dpll(probe).status == "unsat"
        for v in set(mg.neg_pool):
            probe = CnfInstance.from_codes(mg.num_vars, inst.codes + ((neg(v),),), SAT)
            assert solve_dpll(probe).status == "unsat"


def test_back_map_polarity_relations():
    seed = seed_22()
    cert = R.apply_reduction("R5", seed)
    res = solve_dpll(cert.output, timeout=60)
    assert res.status == "sat"
    # x_{i,1} carries the negated value, x_{i,2} the plain value
    for out_v, (in_v, flipped) in cert.back_map.items():
        partner = [
            o for o, (i, f) in cert.back_map.items()
            if i == in_v and f != flipped
        ]
        assert len(partner) == 1
        assert res.model[out_v] != res.model[partner[0]]


@pytest.mark.parametrize("rid", UNCONDITIONAL)
def test_output_flavor_matches_spec(rid):
    # output clauses are set flavor unless the output variant is a star one
    rng = random.Random(zlib.crc32(rid.encode()) ^ 0xF1A)
    row = R.REDUCTIONS[rid]
    for _ in range(6):
        inst, k = row.sample(rng)
        _, spec = row.specs(k)
        cert = R.apply_reduction(rid, inst, k=k)
        assert cert.output.has_multiset_clauses() == spec.duplicates


def test_r2_r3_r4_chain():
    # each link's output is decided once, and its answer is the next link's
    # input status: every output has the first input's status, and every
    # sat output's model pulls back to a model of its link's input
    rng = random.Random(234)
    inputs = [G.random_nae_star(2, rng.randint(2, 3), rng) for _ in range(3)]
    for inst in inputs + [tiny_unsat_nae_star()]:
        expected = solve_exhaustive(inst).status
        for rid in ("R2", "R3", "R4"):
            cert = R.apply_reduction(rid, inst)
            res = solve_dpll(cert.output, timeout=60)
            assert res.status == expected, rid
            if res.status == "sat":
                R.pull_back(cert, res.model)
            inst = cert.output


@pytest.mark.parametrize("rid", UNCONDITIONAL)
def test_lifting_an_empty_instance(rid):
    # every unconditional row maps the empty input of its mode to the empty
    # output; on the lifting rows any k is valid and no work may scale with it
    row = R.REDUCTIONS[rid]
    empty = CnfInstance.from_codes(0, (), row.input_mode)
    cert = R.apply_reduction(rid, empty, k=10**12 if row.needs_k else None)
    assert cert.output.num_vars == cert.output.num_clauses == 0
    assert R.check_equisat(cert).ok
    if row.needs_k:
        assert [e.label for e in cert.gadget_log] == ["LINK_Y", "LINK_Z"]
