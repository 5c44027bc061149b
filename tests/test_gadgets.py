import dataclasses
import random
import zlib

import pytest

from mono3sat import gadgets, reductions
from mono3sat.formulas import (
    NAE,
    SAT,
    CnfInstance,
    appearance_profile,
    is_linear,
    neg,
    negative,
    positive,
)
from mono3sat.gadgets import (
    CATALOGUE,
    GADGET_NAMES,
    FreshAllocator,
    build_gadget,
    fresh_instance,
    verify_composite,
    verify_gadget,
)
from mono3sat.oracle import BoundaryPredicate, check_extension_property
from mono3sat.witnesses import WITNESS_NAMES, known_unsat, mon51_structure

from reference import ref_accepted


def test_catalogue_is_complete():
    assert set(GADGET_NAMES) == {
        "NE6", "EQ_NE", "P1", "NE9", "EQ13", "EQ4L", "S", "SBAR", "A", "D",
        "F", "G", "H", "C12", "B", "BBAR", "CHAIN22", "CHAIN22_NEG",
        "STAR22", "INC32",
    }


@pytest.mark.parametrize("kind", GADGET_NAMES)
def test_counts_match_catalogue(kind):
    row = CATALOGUE[kind]
    g = fresh_instance(kind)
    assert len(g.aux) == row.num_aux
    assert len(g.clauses) == row.num_clauses
    assert len(g.boundary) == len(row.slots)
    assert bool(g.parts) == bool(row.parts)


@pytest.mark.parametrize("kind", GADGET_NAMES)
def test_verify_gadget(kind):
    rep = verify_gadget(kind)
    assert rep.ok, f"{kind}: {rep.reason} {rep.witness}"


def test_verify_composite_checks_connectors_in_gadget_mode():
    # EQ_NE's connectors are nae clauses: judged in sat mode, pattern 01
    # would read as a forbidden extension
    rep = verify_composite(fresh_instance("EQ_NE"))
    assert rep.ok, f"{rep.reason} {rep.witness}"


def _num_vars(kind):
    g = fresh_instance(kind)
    return len(g.predicate.boundary) + len(g.aux)


# the independent enumeration is naive, so only instances of up to 15
# variables (EQ_NE and D are the largest, F, B and BBAR are far beyond)
@pytest.mark.parametrize("kind", [k for k in GADGET_NAMES if _num_vars(k) <= 15])
def test_accepted_sets_against_independent_enumeration(kind):
    g = fresh_instance(kind)
    assert ref_accepted(g) == set(g.predicate.accepted)


def test_specific_accepted_sets():
    # bit j of a pattern is boundary[j]
    assert set(fresh_instance("A").predicate.accepted) == {0b00, 0b01, 0b10}
    assert set(fresh_instance("INC32").predicate.accepted) == set(range(8))
    assert set(fresh_instance("STAR22").predicate.accepted) == {0, 0b111111}
    assert set(fresh_instance("CHAIN22").predicate.accepted) == {0b010101, 0b101010}
    assert set(fresh_instance("P1").predicate.accepted) == {0, 1}
    assert set(fresh_instance("F").predicate.accepted) == {1}
    assert set(fresh_instance("C12").predicate.accepted) == {0b01, 0b10, 0b11}


def test_polarity_flip_duality_sbar_and_bbar():
    for plain, flipped in (("S", "SBAR"), ("B", "BBAR")):
        a = fresh_instance(plain)
        b = fresh_instance(flipped)
        full = (1 << len(a.predicate.boundary)) - 1
        assert {full ^ p for p in a.predicate.accepted} == set(b.predicate.accepted)


def test_d_with_repeated_arguments():
    alloc = FreshAllocator(2)
    g = build_gadget("D", (0, 1, 1, 1, 1, 1), alloc)
    assert g.predicate.boundary == (0, 1)
    # accepted = y or u, re-derived by independent enumeration
    assert ref_accepted(g) == {0b01, 0b10, 0b11}
    assert set(g.predicate.accepted) == {0b01, 0b10, 0b11}


def test_s_on_identical_boundary():
    alloc = FreshAllocator(1)
    g = build_gadget("S", (0, 0, 0), alloc)
    assert len(g.clauses) == 13
    a, b, c_, d, e, f = g.aux
    assert g.clauses[:3] == (positive((0, a, b)), positive((0, c_, d)), positive((0, e, f)))
    assert set(g.predicate.accepted) == {1}  # S(x,x,x) forces x true


def test_ne9_build_shape():
    g = fresh_instance("NE9")
    assert len(g.clauses) == 9 and len(g.aux) == 6


def test_eq4l_repeated_args_stay_buildable_but_not_linear():
    alloc = FreshAllocator(3)
    g = build_gadget("EQ4L", (0, 0, 1, 2), alloc)
    # clause 9 of the table is {z, u, b}: slots map to (1, 2)
    assert {x >> 1 for x in g.clauses[8]} == {1, 2, g.aux[1]}
    inst = CnfInstance.from_codes(9, g.clauses, NAE)
    assert not is_linear(inst).ok


def test_linearity_of_eq4l_on_distinct_args():
    g = fresh_instance("EQ4L")
    assert is_linear(CnfInstance.from_codes(10, g.clauses, NAE)).ok


def test_arity_mismatch():
    with pytest.raises(ValueError):
        build_gadget("NE9", (0,), FreshAllocator(1))


def test_duplicate_literal_rejection():
    with pytest.raises(ValueError):
        build_gadget("CHAIN22", (0, 0, 1, 2, 3, 4), FreshAllocator(5))
    with pytest.raises(ValueError):
        build_gadget("EQ4L", (0, 1, 2, 2), FreshAllocator(3))


def test_substitution_error_names_the_line():
    # the second call takes the cached (kind, shape) verdict
    for _ in range(2):
        alloc = FreshAllocator(3)
        with pytest.raises(ValueError, match=(
            r"EQ4L\(0, 1, 2, 2\): substitution makes clause 'z u b' repeat a variable"
        )):
            build_gadget("EQ4L", (0, 1, 2, 2), alloc)
        assert alloc.next_id == 3  # refused before any auxiliary is drawn
    # auxiliaries drawn from below the boundary could merge with it too
    with pytest.raises(ValueError, match=r"NE9\(0, 1\): fresh ids from 1 meet the boundary"):
        build_gadget("NE9", (0, 1), FreshAllocator(1))
    # STAR22 repeats its auxiliaries in the table; only a new repeat is refused
    assert len(build_gadget("STAR22", (0,) * 6, FreshAllocator(1)).clauses) == 18


def test_star22_appearance_pattern():
    g = fresh_instance("STAR22")
    inst = CnfInstance.from_codes(15, g.clauses, g.mode)
    prof = appearance_profile(inst)
    # each boundary copy lacks exactly one appearance: (1,2) or (2,1);
    # together with its single appearance in the replaced clause set the
    # totals reach (2,2)
    for s, v in enumerate(g.boundary):
        assert prof[v] == ((1, 2) if s % 2 == 0 else (2, 1))
    for y in g.aux:
        assert prof[y] == (2, 2)


def test_aux_appearance_counts_inside_nae_gadgets():
    for kind in ("NE9", "EQ13", "EQ4L", "P1"):
        g = fresh_instance(kind)
        n = max(x >> 1 for c in g.clauses for x in c) + 1
        prof = appearance_profile(CnfInstance.from_codes(n, g.clauses, NAE))
        for v in g.aux:
            assert sum(prof[v]) == 4, f"{kind} aux {v}"


def test_f_composition_shape():
    g = fresh_instance("F")
    assert len(g.parts) == 3
    assert all(p.kind == "D" for p in g.parts)
    assert len(g.connectors) == 1
    u1, u2, u3 = g.aux[:3]
    assert set(g.connectors[0]) == set(negative((u1, u2, u3)))


def test_b_composition_shape():
    g = fresh_instance("B")
    assert len(g.parts) == 3
    assert all(p.kind == "C12" for p in g.parts)
    assert len(g.clauses) == 37


def test_fresh_allocator_monotone():
    alloc = FreshAllocator(5)
    a = alloc.fresh(3)
    [b] = alloc.fresh(1)
    assert a == [5, 6, 7] and b == 8
    g1 = build_gadget("NE9", (0, 1), alloc)
    g2 = build_gadget("NE9", (0, 1), alloc)
    assert set(g1.aux).isdisjoint(g2.aux)


def test_gadget_modes():
    for kind in GADGET_NAMES:
        g = fresh_instance(kind)
        assert g.mode == CATALOGUE[kind].mode


def test_verify_composite_checks_its_premise():
    # an extra clause (~x) leaves x = 1 without an extension, although the
    # parts and the connector alone still give the declared predicate
    g = fresh_instance("B")
    extra = ((neg(g.boundary[0]),),)
    rep = verify_composite(dataclasses.replace(g, clauses=g.clauses + extra))
    assert not rep.ok and "connectors" in rep.reason
    # two parts on the same auxiliaries
    f = fresh_instance("F")
    d = f.parts[0]
    twice = dataclasses.replace(f, parts=(d, d), clauses=d.clauses * 2 + f.connectors)
    rep = verify_composite(twice)
    assert not rep.ok and "shares auxiliaries" in rep.reason
    # a part auxiliary on another part's boundary
    alloc = FreshAllocator(2)
    ne1 = build_gadget("NE6", (0, 1), alloc)
    ne2 = build_gadget("NE6", (ne1.aux[0], 1), alloc)
    linked = type(g)(
        "LINKED", (0, 1), ne1.aux + ne2.aux, ne1.clauses + ne2.clauses,
        BoundaryPredicate((0, 1), frozenset({0b01, 0b10})), NAE, parts=(ne1, ne2),
    )
    rep = verify_composite(linked)
    assert not rep.ok and "linking variable" in rep.reason
    # a sat-mode gadget whose one part is the nae NE6: the part's certified
    # predicate (x != y) does not hold once its clauses are read as sat
    ne = build_gadget("NE6", (0, 1), FreshAllocator(2))
    mixed = type(g)("MIXED", (0, 1), ne.aux, ne.clauses, ne.predicate, SAT, parts=(ne,))
    assert "00 is a forbidden extension" in check_extension_property(mixed).reason
    rep = verify_composite(mixed)
    assert not rep.ok and "mode" in rep.reason


def test_composite_mismatch_reported_like_extension_check():
    claims_sat = dataclasses.replace(
        mon51_structure(), predicate=BoundaryPredicate((), frozenset({0}))
    )
    rep = verify_composite(claims_sat)
    assert not rep.ok
    assert rep.witness == {"pattern": {}, "direction": "missing extension"}
    eq = fresh_instance("EQ_NE")
    wrong = dataclasses.replace(
        eq, predicate=BoundaryPredicate(eq.predicate.boundary, frozenset({0b00}))
    )
    rep = verify_composite(wrong)
    assert not rep.ok
    assert rep.witness == {
        "pattern": {0: True, 1: True}, "direction": "forbidden extension"
    }
    # EQ_NE is small enough to enumerate: both checks report the same
    direct = check_extension_property(wrong)
    assert (direct.reason, direct.witness) == (rep.reason, rep.witness)


def test_mon51_verified_through_f_into_d(monkeypatch):
    enumerated = []
    real = gadgets.check_extension_property

    def spy(g):
        enumerated.append(g.kind)
        return real(g)

    monkeypatch.setattr(gadgets, "check_extension_property", spy)
    rep = verify_composite(mon51_structure())
    assert rep.ok, rep.reason
    # three D parts in each of the three enforcers F, plus the pad D
    assert enumerated == ["D"] * 10


# Every (kind, repeat shape) the reductions and witnesses build: slot j holds
# distinct boundary variable shape[j].
REPEATED_SHAPES = {
    ("D", (0, 1, 1, 1, 1, 1)),  # F's parts, D(y, u, u, u, u, u)
    ("D", (0, 0, 0, 1, 1, 1)),  # R7, D(x1, x1, x1, x2, x2, x2)
    ("D", (0, 0, 1, 1, 2, 2)),  # R7 with one y triple, and mon51's pad
    ("EQ_NE", (0, 0)),  # R1, the ring of a variable with one appearance
    ("EQ13", (0, 0)),  # R2, the same
    ("S", (0, 0, 0)), ("SBAR", (0, 0, 0)), ("G", (0, 0, 0)),
    ("B", (0, 0, 0)), ("BBAR", (0, 0, 0)),
}


def test_cached_predicates_match_direct_enumeration():
    # the same kinds on distinct variables first, so that a cache keyed on
    # the kind alone would answer the repeated boundaries below from them
    for kind, _ in REPEATED_SHAPES:
        fresh_instance(kind)
    for kind, shape in sorted(REPEATED_SHAPES):
        boundary = tuple(40 - 7 * i for i in shape)  # real, unordered ids
        distinct = list(dict.fromkeys(boundary))
        slot_predicate = CATALOGUE[kind].slot_predicate
        direct = {
            p for p in range(1 << len(distinct))
            if slot_predicate(tuple(bool((p >> distinct.index(v)) & 1) for v in boundary))
        }
        assert gadgets.predicate_for(kind, boundary) == BoundaryPredicate(
            tuple(distinct), frozenset(direct)
        ), (kind, shape)
        g = build_gadget(kind, boundary, FreshAllocator(41))
        rep = (verify_composite if g.parts else check_extension_property)(g)
        assert rep.ok, rep.reason


def test_repeated_shapes_are_those_in_use(monkeypatch):
    used = set()
    real = gadgets.predicate_for

    def spy(kind, boundary):
        pred = real(kind, boundary)
        if len(pred.boundary) < len(boundary):
            used.add((kind, tuple(pred.boundary.index(v) for v in boundary)))
        return pred

    monkeypatch.setattr(gadgets, "predicate_for", spy)
    for name in WITNESS_NAMES:
        known_unsat(name)
    for rid, row in reductions.REDUCTIONS.items():
        if rid == "R10":
            continue
        rng = random.Random(zlib.crc32(rid.encode()))
        for _ in range(6):
            inst, k = row.sample(rng)
            reductions.apply_reduction(rid, inst, k=k)
    assert used == REPEATED_SHAPES
