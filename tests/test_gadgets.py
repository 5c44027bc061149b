import pytest

from mono3sat.formulas import NAE, CnfInstance, Literal, appearance_profile, is_linear
from mono3sat.gadgets import (
    CATALOGUE,
    GADGET_NAMES,
    FreshAllocator,
    build_gadget,
    fresh_instance,
    verify_composite,
    verify_gadget,
)

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
    assert len(g.boundary) == row.arity


@pytest.mark.parametrize("kind", GADGET_NAMES)
def test_verify_gadget(kind):
    rep = verify_gadget(kind)
    assert rep.ok, f"{kind}: {rep.reason} {rep.witness}"


def test_verify_composite_checks_connectors_in_gadget_mode():
    # EQ_NE is certified by enumeration, but its nae connectors must also pass
    # the compositional check (F, B and BBAR go through it in verify_gadget)
    rep = verify_composite(fresh_instance("EQ_NE"))
    assert rep.ok, f"{rep.reason} {rep.witness}"


@pytest.mark.parametrize(
    "kind",
    [k for k in GADGET_NAMES if not CATALOGUE[k].compositional],
)
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
    first_three = [c.litset() for c in g.clauses[:3]]
    a, b, c_, d, e, f = g.aux
    assert first_three == [
        frozenset({Literal(0), Literal(a), Literal(b)}),
        frozenset({Literal(0), Literal(c_), Literal(d)}),
        frozenset({Literal(0), Literal(e), Literal(f)}),
    ]
    assert set(g.predicate.accepted) == {1}  # S(x,x,x) forces x true


def test_ne9_build_shape():
    g = fresh_instance("NE9")
    assert len(g.clauses) == 9 and len(g.aux) == 6


def test_eq4l_repeated_args_stay_buildable_but_not_linear():
    alloc = FreshAllocator(3)
    g = build_gadget("EQ4L", (0, 0, 1, 2), alloc)
    # clause 9 of the table is {z, u, b}: slots map to (1, 2)
    nine = g.clauses[8]
    assert {l.var for l in nine.literals} == {1, 2, g.aux[1]}
    inst = CnfInstance(9, g.clauses, NAE)
    assert not is_linear(inst).ok


def test_linearity_of_eq4l_on_distinct_args():
    g = fresh_instance("EQ4L")
    assert is_linear(CnfInstance(10, g.clauses, NAE)).ok


def test_arity_mismatch():
    with pytest.raises(ValueError):
        build_gadget("NE9", (0,), FreshAllocator(1))


def test_duplicate_literal_rejection():
    with pytest.raises(ValueError):
        build_gadget("CHAIN22", (0, 0, 1, 2, 3, 4), FreshAllocator(5))
    with pytest.raises(ValueError):
        build_gadget("EQ4L", (0, 1, 2, 2), FreshAllocator(3))


def test_star22_appearance_pattern():
    g = fresh_instance("STAR22")
    inst = CnfInstance(15, g.clauses, g.mode)
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
        n = max(v for c in g.clauses for v in c.varset()) + 1
        prof = appearance_profile(CnfInstance(n, g.clauses, NAE))
        for v in g.aux:
            assert sum(prof[v]) == 4, f"{kind} aux {v}"


def test_f_composition_shape():
    g = fresh_instance("F")
    assert len(g.parts) == 3
    assert all(p.kind == "D" for p in g.parts)
    assert len(g.connectors) == 1
    u1, u2, u3 = g.aux[:3]
    assert g.connectors[0].litset() == frozenset(
        {Literal(u1, True), Literal(u2, True), Literal(u3, True)}
    )


def test_b_composition_shape():
    g = fresh_instance("B")
    assert len(g.parts) == 3
    assert all(p.kind == "C12" for p in g.parts)
    assert len(g.clauses) == 37


def test_fresh_allocator_monotone():
    alloc = FreshAllocator(5)
    a = alloc.fresh(3)
    b = alloc.fresh1()
    assert a == [5, 6, 7] and b == 8
    g1 = build_gadget("NE9", (0, 1), alloc)
    g2 = build_gadget("NE9", (0, 1), alloc)
    assert set(g1.aux).isdisjoint(g2.aux)


def test_gadget_modes():
    for kind in GADGET_NAMES:
        g = fresh_instance(kind)
        assert g.mode == CATALOGUE[kind].mode
