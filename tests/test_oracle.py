import gc
import hashlib
import os
import random
import subprocess
import sys
import zlib
from collections import Counter
from types import SimpleNamespace

import pytest

from mono3sat import _bitkernel, oracle
from mono3sat.formulas import (
    NAE,
    SAT,
    CnfInstance,
    assignment_from_bits,
    evaluate,
    neg,
    negate_rename,
    pos,
    positive,
)
from mono3sat.gadgets import fresh_instance
from mono3sat.generate import random_kk
from mono3sat.oracle import (
    BoundaryPredicate,
    CapExceededError,
    check_extension_property,
    clause_masks,
    extending_patterns,
    sat_codes,
    solve_dpll,
    solve_exhaustive,
    split_forced,
    subsumes,
)
from mono3sat.reductions import REDUCTIONS, apply_reduction
from mono3sat.witnesses import known_unsat

from reference import clause_value, ref_accepted, ref_solve


def random_3cnf(n, m, rng, mode=SAT):
    cls = []
    for _ in range(m):
        vs = rng.sample(range(n), min(3, n))
        cls.append([v << 1 | (rng.random() < 0.5) for v in vs])
    return CnfInstance.from_codes(n, cls, mode)


def test_exhaustive_nine_var_unsat():
    assert solve_exhaustive(known_unsat("nine_var")).status == "unsat"


def test_exhaustive_empty_instance():
    res = solve_exhaustive(CnfInstance.from_codes(0, (), SAT))
    assert res.status == "sat" and res.model == ()


def test_exhaustive_ss_bar_unsat():
    inst = known_unsat("ss_bar")
    assert inst.num_vars == 13
    assert solve_exhaustive(inst).status == "unsat"


def test_exhaustive_model_is_verified():
    rng = random.Random(0)
    for _ in range(50):
        inst = random_3cnf(6, rng.randint(1, 12), rng, rng.choice([SAT, NAE]))
        res = solve_exhaustive(inst)
        if res.status == "sat":
            assert evaluate(inst, res.model)


def test_exhaustive_cap():
    inst = CnfInstance.from_codes(30, (), SAT)
    with pytest.raises(CapExceededError) as exc:
        solve_exhaustive(inst)
    assert exc.value.needed == 30


def test_dpll_mon51_unsat():
    assert solve_dpll(known_unsat("mon51"), timeout=60).status == "unsat"


def test_dpll_all_positive_is_sat():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(3, 8)
        cls = []
        for _ in range(rng.randint(1, 10)):
            vs = rng.sample(range(n), 3)
            cls.append(positive(vs))
        res = solve_dpll(CnfInstance.from_codes(n, cls, SAT))
        assert res.status == "sat"


def test_dpll_timeout_indeterminate():
    assert solve_dpll(known_unsat("mon51"), timeout=0.0).status == "indeterminate"


def test_dpll_agrees_with_exhaustive_fuzz():
    # >= 1000 random 3-CNF instances, n <= 16, both modes
    rng = random.Random(12345)
    for trial in range(1000):
        n = rng.randint(3, 16)
        m = rng.randint(1, 3 * n)
        mode = SAT if trial % 2 == 0 else NAE
        inst = random_3cnf(n, m, rng, mode)
        a = solve_exhaustive(inst).status
        b = solve_dpll(inst)
        assert a == b.status, f"disagreement on trial {trial}"
        if b.status == "sat":
            assert evaluate(inst, b.model)


def random_mixed_cnf(n, rng, mode):
    """Clauses of one length L in 1..5 (one in twenty shorter), near the
    sat/unsat threshold for L; a fifth of the instances also carry every
    sign pattern over min(L, 3) variables, an unsatisfiable core."""
    length = rng.randint(1, min(5, n))
    ratio = {SAT: (1, 1, 4.3, 9.9, 21.1), NAE: (1, 0.5, 2.1, 5, 10.5)}[mode]
    cls = []
    for _ in range(max(1, round(ratio[length - 1] * n * rng.uniform(0.6, 1.3)))):
        k = rng.randint(1, length) if rng.random() < 0.05 else length
        vs = rng.sample(range(n), k)
        cls.append([v << 1 | (rng.random() < 0.5) for v in vs])
    if rng.random() < 0.2:
        core = rng.sample(range(n), min(length, 3))
        for signs in range(1 << len(core)):
            cls.append([v << 1 | (signs >> j & 1) for j, v in enumerate(core)])
        rng.shuffle(cls)
    return CnfInstance.from_codes(n, cls, mode)


def _solve_dpll_watched(inst):
    """solve_dpll, plus the longest clause it learned and how many of its
    backjumps skipped a level (read from the solver's inner calls)."""
    seen = {"learned": 0, "backjumps": 0}

    def watch(frame, event, arg):
        if event != "call":
            return
        if frame.f_code.co_name == "add_learned":
            seen["learned"] = max(seen["learned"], len(frame.f_locals["lits"]))
        elif frame.f_code.co_name == "backjump":
            loc = frame.f_locals
            seen["backjumps"] += loc["target"] < loc["cur_level"] - 1

    outer = sys.getprofile()
    sys.setprofile(watch)
    try:
        res = solve_dpll(inst)
    finally:
        sys.setprofile(outer)
    return res, seen


def mixed_lengths_corpus():
    """The mixed-lengths fuzz instances, sat and nae mode in turn."""
    rng = random.Random(7)
    for trial in range(160):
        n = rng.randint(4, 14)
        yield random_mixed_cnf(n, rng, SAT if trial % 2 == 0 else NAE)


def test_dpll_mixed_lengths_fuzz():
    # learned clauses longer than every input clause, which never enter the
    # clause index, must still give units and conflicts after the backjumps
    # that unassign their literals again
    longer = {SAT: 0, NAE: 0}
    backjumps = 0
    for trial, inst in enumerate(mixed_lengths_corpus()):
        res, seen = _solve_dpll_watched(inst)
        assert res.status == ref_solve(inst), f"disagreement on trial {trial}"
        if res.status == "sat":
            assert evaluate(inst, res.model)
        longest_input = max(len(set(c)) for c in inst.codes)
        longer[inst.mode] += seen["learned"] > longest_input
        backjumps += seen["backjumps"]
    assert longer[SAT] > 0 and longer[NAE] > 0, longer
    assert backjumps > 0


def _dpll_inputs(monkeypatch):
    """The (variables, clauses) counts of every later _dpll call."""
    seen = []
    inner = oracle._dpll

    def watched(num_vars, clauses, timeout):
        seen.append((num_vars, len(clauses)))
        return inner(num_vars, clauses, timeout)

    monkeypatch.setattr(oracle, "_dpll", watched)
    return seen


@pytest.mark.parametrize("name", ["nine_var", "ss_bar"])
def test_r9_output_reaches_dpll_as_its_input(name, monkeypatch):
    # the STAR22 stars make the six copies of each variable equal through
    # binary clauses; substituting one literal per class leaves the witness
    base = known_unsat(name)
    output = apply_reduction("R9", base).output
    seen = _dpll_inputs(monkeypatch)
    assert solve_dpll(output).status == "unsat"
    assert seen == [(base.num_vars, base.num_clauses)]


def test_literal_equivalent_to_its_negation_is_unsat(monkeypatch):
    # x -> y -> -x -> z -> x through binary clauses alone
    x, y, z = 0, 1, 2
    inst = CnfInstance.from_codes(3, [
        (neg(x), pos(y)), (neg(y), neg(x)), (pos(x), pos(z)), (neg(z), pos(x)),
    ])
    seen = _dpll_inputs(monkeypatch)
    assert solve_dpll(inst).status == "unsat"
    assert seen == []


def test_substitution_fuzz(monkeypatch):
    # statuses equal the kernel's on inputs whose binary clauses make
    # literals equivalent, in either polarity (the mixed-lengths corpus) or
    # as copies of one variable (R9 outputs of satisfiable (3,3) inputs),
    # and every lifted model satisfies the original clauses
    cases = [("mixed", inst, solve_exhaustive(inst).status)
             for inst in mixed_lengths_corpus()]
    rng = random.Random(23)
    while len(cases) < 190:
        inst = random_kk(rng.randint(4, 12), 3, rng)
        if solve_exhaustive(inst).status == "sat":
            cases.append(("R9", apply_reduction("R9", inst).output, "sat"))
    seen = _dpll_inputs(monkeypatch)
    substituted = {"mixed": 0, "R9": 0}
    for kind, inst, status in cases:
        seen.clear()
        res = solve_dpll(inst)
        assert res.status == status, (kind, inst)
        if res.status == "sat":
            assert evaluate(inst, res.model)
        substituted[kind] += any(n < inst.num_vars for n, _ in seen)
    assert substituted["mixed"] > 0 and substituted["R9"] == 30, substituted


def test_encoded_clauses_drop_tautologies_and_repeats():
    # a tautology is dropped whichever two positions of a 3-literal clause
    # hold the variable, a repeated literal is merged, and a clause of three
    # variables is only sorted
    inst = CnfInstance.from_codes(3, [(4, 1, 2), (0, 1, 2), (2, 0, 3), (0, 2, 3), (4, 2, 4)])
    assert oracle._encoded_clauses(inst) == ([[1, 2, 4], [2, 4]], True)


def _recounted_pick(clauses, val):
    """The branching rule from scratch, over the input clauses given: (the
    fewest non-false literals of an unsatisfied clause, the most frequent
    free literal of the clauses with that many, ties to the smallest
    code)."""
    shortest, free = None, []
    for c in clauses:
        if any(val[lit >> 1] == 1 - (lit & 1) for lit in c):
            continue
        lits = [lit for lit in c if val[lit >> 1] == -1]
        if shortest is None or len(lits) < shortest:
            shortest, free = len(lits), lits
        elif len(lits) == shortest:
            free += lits
    counts = Counter(free)
    top = max(counts.values())
    return shortest, min(lit for lit, c in counts.items() if c == top)


def test_dpll_picks_match_a_recount():
    # every literal pick returns is the one a recount of the input clauses
    # gives; by_free holds input clauses only and keeps its initial size;
    # when the shortest bucket is the longest input length, cnt counts the
    # literals of the unsatisfied input clauses; and every decision (an
    # assignment with no reason) is a literal pick returned
    picks = {"longest": 0, "below": 0, "calls": 0, "decisions": 0}
    expected = []

    def check(frame, event, arg):
        if frame.f_code.co_filename != solve_dpll.__code__.co_filename:
            return
        name = frame.f_code.co_name
        if name == "assign" and event == "call":
            picks["decisions"] += frame.f_locals["why"] == -1
        if name != "pick":
            return
        if event == "return":
            assert arg == expected.pop()
            return
        if event != "call":
            return
        picks["calls"] += 1
        loc = frame.f_back.f_locals
        val, longest, n_input = loc["val"], loc["longest"], loc["n_input"]
        by_free = loc["by_free"]
        inputs = loc["clauses"][:n_input]
        assert len(by_free) == longest + 1
        assert all(ci < n_input for bucket in by_free for ci in bucket)
        shortest, lit = _recounted_pick(inputs, val)
        assert shortest > 1, "a decision with a unit or a conflict pending"
        assert shortest == next(k for k, b in enumerate(by_free) if b)
        expected.append(lit)
        if shortest < longest:
            picks["below"] += 1
        else:
            unsatisfied = [c for c in inputs
                           if not any(val[x >> 1] == 1 - (x & 1) for x in c)]
            cnt = {x: c for x, c in enumerate(loc["cnt"]) if c}
            assert cnt == Counter(x for c in unsatisfied for x in c)
            picks["longest"] += 1

    outer = sys.getprofile()
    sys.setprofile(check)
    try:
        for inst in mixed_lengths_corpus():
            solve_dpll(inst)
        for name in ("nine_var", "ss_bar", "mon51", "hitting27"):
            solve_dpll(known_unsat(name))
        # R13 outputs, which learn clauses before picks at the longest bucket
        rng = random.Random(zlib.crc32(b"R13"))
        for _ in range(4):
            solve_dpll(apply_reduction("R13", REDUCTIONS["R13"].sample(rng)[0]).output)
    finally:
        sys.setprofile(outer)
    assert not expected
    assert all(picks.values()), picks
    assert picks["decisions"] == picks["calls"], picks


def test_dpll_counts_past_a_byte():
    # a clause repeated 256 times puts its literals' counts past a byte, so
    # pick reads the longest bucket off a list instead of searching bytes;
    # the verdicts must still be the kernel's and the models models
    rng = random.Random(256)
    kinds, statuses = set(), set()

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "pick":
            kinds.add(type(frame.f_back.f_locals["cnt"]))

    for _ in range(30):
        n = rng.randint(6, 14)
        base = random_3cnf(n, rng.randint(n, 6 * n), rng)
        inst = CnfInstance.from_codes(n, list(base.codes) + [base.codes[0]] * 256)
        outer = sys.getprofile()
        sys.setprofile(watch)
        try:
            res = solve_dpll(inst)
        finally:
            sys.setprofile(outer)
        assert res.status == solve_exhaustive(inst).status
        if res.status == "sat":
            assert evaluate(inst, res.model)
        statuses.add(res.status)
    assert kinds == {list} and statuses == {"sat", "unsat"}, (kinds, statuses)


# sha256 over repr((status, model)) of every solve_dpll call in
# test_dpll_models_are_pinned.  Taken when learned clauses stopped steering
# decisions (the rule reads the input clauses only): 9 models moved, all on
# reduction outputs (R1 3, R2 1, R3 4, R4 1), and every status equals the
# one the rule over input and learned clauses gave on the same 264 inputs
PINNED_MODELS_SHA256 = "0b18f5218186e13c78e5e759edd687987af59147234ba85a938304698bf00658"


def test_dpll_models_are_pinned():
    # the branching rule (most frequent free literal of the shortest input
    # clauses, ties to the smallest code) fixes every model; a faster way to
    # find that literal must not move one, and a change of rule that moves
    # models must keep every status
    corpus = []
    for rid, row in REDUCTIONS.items():
        if row.needs_param:
            continue
        rng = random.Random(zlib.crc32(rid.encode()))
        for _ in range(8):
            inst, k = row.sample(rng)
            corpus.append(apply_reduction(rid, inst, k=k).output)
    corpus += mixed_lengths_corpus()
    digest = hashlib.sha256()
    statuses = Counter()
    for inst in corpus:
        res = solve_dpll(inst)
        digest.update(repr((res.status, res.model)).encode())
        statuses[res.status] += 1
    assert statuses == {"sat": 153, "unsat": 111}
    assert digest.hexdigest() == PINNED_MODELS_SHA256


def test_nae_polarity_flip_invariance():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(3, 10)
        inst = random_3cnf(n, rng.randint(1, 2 * n), rng, NAE)
        flipped = negate_rename(inst, range(n))
        assert solve_exhaustive(inst).status == solve_exhaustive(flipped).status


def test_extension_ne9_accepted_set():
    rep = check_extension_property(fresh_instance("NE9"))
    assert rep.ok
    g = fresh_instance("NE9")
    assert set(g.predicate.accepted) == {0b01, 0b10}  # bit0 = x, bit1 = y


def test_extension_eq13_accepted_set():
    g = fresh_instance("EQ13")
    assert set(g.predicate.accepted) == {0b00, 0b11}
    assert check_extension_property(g).ok


def test_extension_d_accepted_set():
    g = fresh_instance("D")
    assert set(g.predicate.accepted) == set(range(1, 64))  # all but FFFFFF
    assert check_extension_property(g).ok


def test_extension_reports_counterexample_direction():
    # claim a wrong predicate and check the failure direction
    g = fresh_instance("NE9")
    wrong = BoundaryPredicate(g.predicate.boundary, frozenset({0b00, 0b01, 0b10}))
    bad = type(g)(
        g.kind, g.boundary, g.aux, g.clauses, wrong, g.mode, g.parts, g.connectors
    )
    rep = check_extension_property(bad)
    assert not rep.ok
    assert rep.witness["direction"] == "missing extension"
    wrong2 = BoundaryPredicate(g.predicate.boundary, frozenset({0b01}))
    bad2 = type(g)(
        g.kind, g.boundary, g.aux, g.clauses, wrong2, g.mode, g.parts, g.connectors
    )
    rep2 = check_extension_property(bad2)
    assert not rep2.ok
    assert rep2.witness["direction"] == "forbidden extension"


def test_extension_cap_guard():
    g = fresh_instance("F")  # 31 variables
    with pytest.raises(CapExceededError):
        check_extension_property(g)


def test_extension_nae_flip_symmetry():
    # flipping all literals of a nae gadget complements the accepted image;
    # nae acceptance is itself closed under complement
    for kind in ("NE9", "EQ13", "EQ4L", "NE6", "P1"):
        g = fresh_instance(kind)
        nb = len(g.predicate.boundary)
        full = (1 << nb) - 1
        acc = set(g.predicate.accepted)
        assert {full ^ p for p in acc} == acc
        flipped = CnfInstance.from_codes(
            max(x >> 1 for c in g.clauses for x in c) + 1,
            [[x ^ 1 for x in c] for c in g.clauses],
            NAE,
        )
        # re-derive the accepted set of the flipped gadget by enumeration
        from reference import ref_accepted

        class _G:
            boundary = g.boundary
            aux = g.aux
            clauses = flipped.codes
            mode = NAE

        assert ref_accepted(_G) == acc


def _d_positive_2clauses_and_u():
    """D with the boundary slots removed, plus the 27-transversal family."""
    g = fresh_instance("D")
    boundary = set(g.boundary)
    dpos = [
        tuple(x for x in c if x >> 1 not in boundary)
        for c in g.clauses
        if not any(x & 1 for x in c)
    ]
    a, b, c_, d, e, f, gg, h, i = g.aux
    u = [
        positive((x, y, z))
        for x in (a, c_, e)
        for y in (b, f, h)
        for z in (d, gg, i)
    ]
    return dpos, u


def test_subsumes_d_covers_u():
    dpos, u = _d_positive_2clauses_and_u()
    assert len(u) == 27
    assert subsumes(dpos, u).ok


def test_subsumes_subset_case():
    cover = [positive((0, 1))]
    target = [positive((0, 1, 2))]
    assert subsumes(cover, target).ok


def test_subsumes_fails_without_clause_4():
    # dropping {a,b,d} (the first positive clause of D) uncovers exactly it
    g = fresh_instance("D")
    dpos, u = _d_positive_2clauses_and_u()
    a, b, _, d = g.aux[0], g.aux[1], g.aux[2], g.aux[3]
    missing = set(positive((a, b, d)))
    reduced = [c for c in dpos if set(c) != missing]
    rep = subsumes(reduced, u)
    assert not rep.ok
    _, i, uncovered = rep.witness
    assert set(uncovered) == set(u[i]) == missing


def test_subsumption_preserves_satisfiability():
    rng = random.Random(9)
    for _ in range(40):
        n = 6
        base = random_3cnf(n, rng.randint(1, 8), rng)
        # supersets of base clauses are subsumed by base
        target = []
        for c in base.codes:
            extra = rng.choice([v for v in range(n) if v not in {x >> 1 for x in c}])
            target.append(c + (pos(extra),))
        assert subsumes(base.codes, target).ok
        if ref_solve(base) == "sat":
            assert ref_solve(CnfInstance.from_codes(n, target, SAT)) == "sat"


def test_split_forced_nine_var():
    nine = known_unsat("nine_var")
    core, forced = split_forced(nine)
    # deterministic greedy in input order: the first 17 clauses are
    # satisfiable, leaving the final negative triple's 3 literals forced
    assert core == list(range(17))
    assert sorted(forced) == [5, 7, 11]  # ~x2 ~x3 ~x5
    kept = [nine.codes[i] for i in core]
    base = CnfInstance.from_codes(9, kept, SAT)
    assert solve_exhaustive(base).status == "sat"
    # maximality: adding any excluded clause makes it unsatisfiable
    for i in range(18):
        if i not in core:
            ext = CnfInstance.from_codes(9, kept + [nine.codes[i]], SAT)
            assert solve_exhaustive(ext).status == "unsat"
    # every forced literal is false in all models of the kept subset
    for x in set(forced):
        probe = CnfInstance.from_codes(9, kept + [(x,)], SAT)
        assert solve_exhaustive(probe).status == "unsat"


def test_split_forced_ss_bar():
    inst = known_unsat("ss_bar")
    core, forced = split_forced(inst)
    kept = [inst.codes[i] for i in core]
    for x in set(forced):
        probe = CnfInstance.from_codes(inst.num_vars, kept + [(x,)], SAT)
        assert solve_exhaustive(probe).status == "unsat"


def test_split_forced_rejects_satisfiable():
    sat_inst = CnfInstance.from_codes(2, [positive((0, 1))], SAT)
    with pytest.raises(ValueError):
        split_forced(sat_inst)


def test_backends_agree():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 10)
        inst = random_3cnf(n, rng.randint(1, 15), rng, rng.choice([SAT, NAE]))
        bits = _bitkernel.solve(n, clause_masks(sat_codes(inst.codes, inst.mode)))
        assert (bits is not None) == (ref_solve(inst) == "sat")
        if bits is not None:
            assert evaluate(inst, assignment_from_bits(bits, n))


def _models(inst):
    """The model indices, in increasing order."""
    for bits in range(1 << inst.num_vars):
        values = assignment_from_bits(bits, inst.num_vars)
        if all(clause_value(c, values, inst.mode) for c in inst.codes):
            yield bits


def _smallest_model(inst):
    return next(_models(inst), None)


def _chunk_clauses(rng, n, low, high):
    """Random clauses over n variables, each drawn from the low variables
    (range(low)), from the high ones (range(high, n)) or from all n; one in
    ten also holds the negation of its first literal."""
    pools = [p for p in (range(low), range(high, n), range(n)) if p]
    cls = []
    for _ in range(rng.randint(0, 2 * n)):
        pool = rng.choice(pools)
        vs = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        lits = [v << 1 | (rng.random() < 0.5) for v in vs]
        if rng.random() < 0.1:
            lits.append(lits[0] ^ 1)
        cls.append(lits)
    return cls


def test_kernel_across_chunks(monkeypatch):
    # chunks of 1 to 8 assignments, so that solving walks many chunk bits and
    # every boundary pattern of accepted_patterns owns a subtree of several
    rng = random.Random(47)
    seen = set()
    for chunk_log in range(4):
        monkeypatch.setattr(_bitkernel, "CHUNK_LOG", chunk_log)
        for _ in range(100):
            n = rng.randint(0, 8)
            num_aux = rng.choice([0, rng.randint(0, n)])
            # variables below min(num_aux, chunk_log) are low in both calls
            # below, those at or above chunk_log high in both
            low = min(num_aux, chunk_log)
            cls = _chunk_clauses(rng, n, low, chunk_log)
            mode = rng.choice([SAT, NAE])
            inst = CnfInstance.from_codes(n, cls, mode)
            codes = sat_codes(inst.codes, mode)
            masks = clause_masks(codes)
            assert _bitkernel.solve(n, masks) == _smallest_model(inst)
            # the gadget names kernel id i perm[i], so that its auxiliary
            # and boundary ids interleave, and its boundary lists the
            # kernel's boundary ids in random order; extending_patterns
            # maps them back, and the kernel sees masks over the same
            # low/high split as above
            perm = rng.sample(range(n), n)
            aux = [perm[i] for i in range(num_aux)]
            boundary = [perm[i] for i in rng.sample(range(num_aux, n), n - num_aux)]
            renamed = [[(perm[x >> 1] << 1) | (x & 1) for x in c] for c in inst.codes]
            gadget = SimpleNamespace(
                boundary=boundary, aux=aux, clauses=renamed, mode=mode
            )
            assert extending_patterns(
                boundary, aux, sat_codes(renamed, mode)
            ) == ref_accepted(gadget)
            # the first model of each group of 2^group_log chunks
            width_log = min(n, chunk_log)
            group_log = rng.randint(0, n - width_log)
            firsts = {}
            for m in _models(inst):
                firsts.setdefault(m >> (width_log + group_log), m)
            found = _bitkernel._first_models(masks, n, width_log, group_log)
            assert found == list(firsts.values())
            vs = [{x >> 1 for x in c} for c in cls]
            if any(len(v) < len(c) for v, c in zip(vs, cls)):
                seen.add("both polarities")
            seen |= {
                "no clauses" if not cls else "clauses",
                "no variables" if not n else "variables",
                "no auxiliaries" if not num_aux else "auxiliaries",
            }
            if chunk_log and any(min(v) >= chunk_log for v in vs):
                seen.add("all high")
            if any(max(v) < low for v in vs):
                seen.add("all low")
    assert len(seen) == 9, seen


def test_kernel_tables_built_once():
    # solving an empty instance builds the variable tables for its width,
    # as the benchmark's set-up does; later calls of that width reuse them
    solve_exhaustive(CnfInstance.from_codes(11, ()))
    tables = _bitkernel._var_patterns(11)
    assert solve_exhaustive(random_3cnf(11, 20, random.Random(11))).status == "sat"
    assert _bitkernel._var_patterns(11) is tables


def _refute_input(base, n, rng):
    """base plus a random Monotone 3-Sat-(3,3) part up to n variables, every
    variable relabelled and the clauses shuffled: unsatisfiable as base is."""
    extra = random_kk(n - base.num_vars, 3, rng)
    shift = 2 * base.num_vars  # variable + base.num_vars, in codes
    perm = rng.sample(range(n), n)
    codes = [*base.codes, *([x + shift for x in c] for c in extra.codes)]
    codes = [[(perm[x >> 1] << 1) | (x & 1) for x in c] for c in codes]
    rng.shuffle(codes)
    return CnfInstance.from_codes(n, codes, SAT)


def test_kernel_call_leaves_no_cycle(monkeypatch):
    # the walk's tables must be freed when the call returns, not wait for the
    # cyclic collector (as they would if a closure referred to itself)
    monkeypatch.setattr(_bitkernel, "CHUNK_LOG", 4)
    inst = _refute_input(known_unsat("nine_var"), 18, random.Random(3))
    masks = clause_masks(inst.codes)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert _bitkernel.solve(18, masks) is None
        assert _bitkernel.accepted_patterns(12, 6, masks) == set()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_refute_inputs_unsat_on_both_paths():
    # the refutation benchmark's kind of input, up to the enumeration cap:
    # the full 2^n sweep and DPLL must agree that it is unsatisfiable
    for name in ("nine_var", "ss_bar"):
        base = known_unsat(name)
        for n in range(21, 27):
            inst = _refute_input(base, n, random.Random(n))
            assert solve_exhaustive(inst).status == "unsat", (name, n)
            assert solve_dpll(inst, timeout=60).status == "unsat", (name, n)


_OPTIMIZED_MODEL_CHECK = """
import sys
from mono3sat import _bitkernel, oracle
from mono3sat.formulas import CnfInstance, neg, negative, pos, positive

if not sys.flags.optimize:
    sys.exit("not running under -O")

# DPLL's own invariant: a decision is due but no free literal is counted
# (both clauses are in the longest bucket, which pick reads off cnt)

def forget_counts(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "pick":
        cnt = frame.f_back.f_locals["cnt"]
        cnt[:] = bytes(len(cnt))

sys.setprofile(forget_counts)
try:
    oracle.solve_dpll(CnfInstance.from_codes(3, [positive((0, 1, 2)), negative((0, 1, 2))]))
except AssertionError as exc:
    print("dpll invariant raised:", exc)
sys.setprofile(None)

# pick answering with a literal the search has already assigned: the unit
# clause sets variable 0 at level 0, then its count is made the largest

def count_assigned(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "pick":
        frame.f_back.f_locals["cnt"][pos(0)] = 1

sys.setprofile(count_assigned)
try:
    oracle.solve_dpll(CnfInstance.from_codes(4, [(pos(0),), positive((1, 2, 3))]))
except AssertionError as exc:
    print("dpll pick check raised:", exc)
sys.setprofile(None)

# R1's padding, handed a variable that already appears five times
from mono3sat import reductions
b = reductions._Builder(reductions.REDUCTIONS["R1"], CnfInstance.from_codes(3, ()))
b.alloc.fresh(3)
b.clauses = [positive((0, 1, 2))] * 5
try:
    reductions._pad_to_four(b)
except AssertionError as exc:
    print("pad_to_four raised:", exc)

# a split plan that gives two appearances in one clause the same copy
star = CnfInstance.from_codes(2, [positive((0, 0, 1))], "nae")
b = reductions._Builder(reductions.REDUCTIONS["R2"], star)
try:
    reductions._split(b, lambda u, q: ((0,) * u, (0,) * q, (False,)))
except AssertionError as exc:
    print("split raised:", exc)

# a certificate whose back-map flips one copy: the pull-back must fail the
# equisat check
import dataclasses
cert = reductions.apply_reduction("R5", CnfInstance.from_codes(3, [
    positive((0, 1, 2)), negative((0, 1, 2)),
    (pos(0), neg(1), neg(2)), (neg(0), pos(1), pos(2)),
]))
out_v, (in_v, negated) = next(iter(cert.back_map.items()))
bad = dataclasses.replace(cert, back_map={**cert.back_map, out_v: (in_v, not negated)})
rep = reductions.check_equisat(bad)
if not rep.ok:
    print("pull-back check failed:", rep.reason)

# every copy of input variable 1 flipped: consistent, but the pulled-back
# assignment does not satisfy the input
flipped = {o: (i, negated ^ (i == 1)) for o, (i, negated) in cert.back_map.items()}
rep = reductions.check_equisat(dataclasses.replace(cert, back_map=flipped))
if not rep.ok:
    print("consistent flip failed:", rep.reason)

# a row that emits a clause outside its output spec, and one that drops the
# log entry of a gadget's auxiliaries
r5 = reductions.REDUCTIONS["R5"]

def stray_clause(b):
    reductions._apply_r5(b)
    b.clauses.append(positive((0, 1, 2)))

def unlogged_aux(b):
    reductions._apply_r5(b)
    b.log = [e for e in b.log if e.label != "SBAR"]

for name, apply in (("spec", stray_clause), ("untraced", unlogged_aux)):
    reductions.REDUCTIONS["R5"] = dataclasses.replace(r5, apply=apply)
    try:
        reductions.apply_reduction("R5", cert.input)
    except AssertionError as exc:
        print(f"finish {name} raised:", exc)
reductions.REDUCTIONS["R5"] = r5

inst = CnfInstance.from_codes(1, [(pos(0),)])
_bitkernel.solve = lambda *args: 0
oracle._dpll = lambda num_vars, clauses, timeout: ("sat", 0)
for solve in (oracle.solve_exhaustive, oracle.solve_dpll):
    try:
        solve(inst)
    except AssertionError as exc:
        print(solve.__name__, "raised:", exc)

from mono3sat import witnesses
from mono3sat.formulas import monotone_sat
from mono3sat.oracle import SolveResult

# the checks of a transversal search answer: a witness that holds a positive
# clause, on the certify path and in check_sat_via_transversal, and a DPLL
# that finds a model where every transversal is blocked
hitting27, spec91 = witnesses.known_unsat("hitting27"), monotone_sat(9, 1)
search = witnesses._witness_transversal
witnesses._witness_transversal = lambda triples, positives: (0, 3, 6)
try:
    witnesses._certify_unsat_candidate(hitting27, spec91)
except AssertionError as exc:
    print("witness check raised:", exc)
try:
    witnesses.check_sat_via_transversal(hitting27)
except AssertionError as exc:
    print("transversal check raised:", exc)
witnesses._witness_transversal = search
witnesses.solve_dpll = lambda inst: SolveResult("sat", (False,) * 9)
try:
    witnesses._certify_unsat_candidate(hitting27, spec91)
except AssertionError as exc:
    print("blocked check raised:", exc)

# a (2,2) witness that leaves every negative clause unmet
witnesses._witness_transversal = lambda negatives, positives: ()
try:
    witnesses.search_unsat((2, 2), witnesses.SearchBudget(max_n=6, max_candidates=1))
except AssertionError as exc:
    print("(2,2) model check raised:", exc)

# the search's enumeration cross-check of a DPLL unsat answer, on a (2,2)
# candidate whose witness search is made to find none
witnesses._witness_transversal = lambda negatives, positives: None
witnesses.solve_dpll = lambda inst: SolveResult("unsat", None)
witnesses.solve_exhaustive = lambda inst: SolveResult("sat", None)
try:
    witnesses.search_unsat((2, 2), witnesses.SearchBudget(max_n=6, max_candidates=1))
except AssertionError as exc:
    print("search cross-check raised:", exc)
"""


def test_model_checks_survive_optimize():
    # a solver that returns a non-model must be caught with asserts stripped
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_MODEL_CHECK],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "solve_exhaustive raised" in out.stdout
    assert "solve_dpll raised" in out.stdout
    assert "search cross-check raised: enumeration finds a model" in out.stdout
    assert "(2,2) model check raised: a witness transversal is not a model" in out.stdout
    assert "witness check raised: a witness transversal is not a model" in out.stdout
    assert "transversal check raised: a witness transversal is not a model" in out.stdout
    assert "blocked check raised: DPLL finds a model" in out.stdout
    assert "dpll invariant raised" in out.stdout
    assert "dpll pick check raised: pick returned an assigned literal" in out.stdout
    assert "pad_to_four raised" in out.stdout
    assert "split raised" in out.stdout
    assert "pull-back check failed: R5" in out.stdout
    assert "consistent flip failed: R5: pull-back failed: pulled-back assignment" in out.stdout
    assert "finish spec raised: R5: output violates its variant spec" in out.stdout
    assert "finish untraced raised: R5: untraced output variables" in out.stdout


_HASH_SEED_MODEL = """
import hashlib, random
from mono3sat import reductions
from mono3sat.oracle import solve_dpll

inst, k = reductions.REDUCTIONS["R1"].sample(random.Random(1))
res = solve_dpll(reductions.apply_reduction("R1", inst, k=k).output)
print(res.status, hashlib.sha256(repr(res.model).encode()).hexdigest())
"""


def test_dpll_model_ignores_hash_seed():
    # DPLL's branching index iterates over sets; the model it returns for an
    # R1 output must not depend on PYTHONHASHSEED
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src),
               "PYTHONHASHSEED": hash_seed}
        out = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_MODEL],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    assert outs[0].startswith("sat ")
    assert outs[0] == outs[1]
