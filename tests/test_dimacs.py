import random

import pytest

from mono3sat.dimacs import MAX_VARS, DimacsError, emit_dimacs, parse_dimacs
from mono3sat.formulas import NAE, SAT, CnfInstance, neg, pos
from mono3sat.witnesses import known_unsat


def structurally_equal(a: CnfInstance, b: CnfInstance) -> bool:
    if (a.num_vars, a.mode) != (b.num_vars, b.mode):
        return False
    return sorted(map(sorted, a.codes)) == sorted(map(sorted, b.codes))


def test_parse_minimal():
    inst = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    assert inst.num_vars == 3 and inst.num_clauses == 1
    assert inst.mode == SAT
    assert inst.codes == ((pos(0), pos(1), pos(2)),)


def test_parse_annotations():
    text = "c mode nae\nc duplicates allowed\np cnf 2 1\n1 1 -2 0\n"
    inst = parse_dimacs(text)
    assert inst.mode == NAE
    assert inst.codes == ((pos(0), pos(0), neg(1)),)
    assert inst.has_multiset_clauses()


def test_parse_rejects_duplicates_without_annotation():
    with pytest.raises(DimacsError, match="line 2: repeated variable"):
        parse_dimacs("p cnf 2 1\n1 1 2 0\n")


def test_duplicates_policy_holds_for_the_whole_file():
    # like `c mode`, the annotation counts wherever it stands
    assert parse_dimacs("p cnf 2 1\n1 2 0\nc mode nae\n").mode == NAE
    for text in (
        "c duplicates allowed\np cnf 2 2\n1 2 0\n1 1 2 0\n",
        "p cnf 2 2\n1 2 0\n1 1 2 0\nc duplicates allowed\n",
    ):
        assert parse_dimacs(text).codes[1] == (pos(0), pos(0), pos(1))
    # the first offending clause is reported, whatever follows it
    for text in (
        "c duplicates forbidden\np cnf 2 3\n1 2 0\n1 1 2 0\n-2 2 0\n",
        "c duplicates allowed\np cnf 2 3\n1 2 0\n1 1 2 0\n-2 2 0\nc duplicates forbidden\n",
    ):
        with pytest.raises(DimacsError, match="line 4: repeated variable"):
            parse_dimacs(text)


def test_parse_errors():
    with pytest.raises(DimacsError, match="range"):
        parse_dimacs("p cnf 2 1\n1 5 0\n")
    with pytest.raises(DimacsError, match="terminated"):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(DimacsError, match="header"):
        parse_dimacs("1 2 0\n")
    with pytest.raises(DimacsError, match="declares"):
        parse_dimacs("p cnf 2 2\n1 2 0\n")
    with pytest.raises(DimacsError, match="non-integer"):
        parse_dimacs("p cnf 2 1\n1 x 0\n")
    with pytest.raises(DimacsError, match="mode"):
        parse_dimacs("c mode maybe\np cnf 1 0\n")
    with pytest.raises(DimacsError, match="negative"):
        parse_dimacs("p cnf -1 0\n")
    with pytest.raises(DimacsError, match="second"):
        parse_dimacs("p cnf 3 1\n1 2 3 0\np cnf 1 1\n")
    # DIMACS integers are ASCII -?[0-9]+, narrower than what int() takes,
    # of at most 20 digits, so int() never meets one too long to convert
    for tok in ("1_0", "+2", "\u0663", "\uff13", "--1", "-", "1" * 21, "1" * 5000):
        with pytest.raises(DimacsError, match="non-integer"):
            parse_dimacs(f"p cnf 20 1\n1 {tok} 0\n")
        with pytest.raises(DimacsError, match="bad problem line"):
            parse_dimacs(f"p cnf {tok} 1\n1 0\n")
        with pytest.raises(DimacsError, match="bad problem line"):
            parse_dimacs(f"p cnf 3 {tok}\n1 0\n")


def test_declared_variable_count_is_bounded():
    # parsing allocates nothing per declared variable; a solver would
    assert parse_dimacs(f"p cnf {MAX_VARS} 0\n").num_vars == MAX_VARS
    for n in (MAX_VARS + 1, 10**12):
        with pytest.raises(DimacsError, match=f"line 2: header declares {n} variables"):
            parse_dimacs(f"c big\np cnf {n} 0\n")


def test_satlib_trailer():
    # SATLIB benchmark files end with a "%" line and a lone "0"
    inst = parse_dimacs("c uf3\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n")
    assert inst.num_clauses == 2
    with pytest.raises(DimacsError, match="terminated"):
        parse_dimacs("p cnf 3 1\n1 2\n%\n3 0\n")


def test_multiline_clause():
    inst = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert inst.num_clauses == 1
    # a 0 ends a clause, not a line end: one line may hold several clauses
    inst = parse_dimacs("p cnf 3 2\n1 2 0 -3 1 0\n")
    assert inst.codes == ((0, 2), (5, 0))
    # a repeat is reported on the line of the clause's closing 0
    with pytest.raises(DimacsError, match="line 3: repeated variable"):
        parse_dimacs("p cnf 3 2\n1 2 0 3\n-3 0\n")


def test_emit_empty():
    text = emit_dimacs(CnfInstance.from_codes(0, (), SAT))
    assert "p cnf 0 0" in text


def test_emit_mon51_header():
    text = emit_dimacs(known_unsat("mon51"))
    assert "p cnf 102 204" in text
    assert text.count(" 0\n") == 204


def test_emit_multiset_line():
    text = emit_dimacs(CnfInstance.from_codes(3, [(pos(0), pos(0), pos(2))], SAT))
    assert "c duplicates allowed" in text
    assert "1 1 3 0" in text


def test_roundtrip_witnesses():
    for name in ("nine_var", "ss_bar", "mon51", "hitting27"):
        inst = known_unsat(name)
        again = parse_dimacs(emit_dimacs(inst))
        assert structurally_equal(inst, again)


def test_roundtrip_random_both_flavors():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 8)
        cls = []
        for _ in range(rng.randint(0, 10)):
            if rng.random() < 0.4:
                cls.append([rng.randrange(n) << 1 | (rng.random() < 0.5) for _ in range(3)])
            else:
                vs = rng.sample(range(n), min(3, n))
                cls.append([v << 1 | (rng.random() < 0.5) for v in vs])
        mode = rng.choice([SAT, NAE])
        inst = CnfInstance.from_codes(n, cls, mode)
        text = emit_dimacs(inst)
        again = parse_dimacs(text)
        assert structurally_equal(inst, again)
        assert emit_dimacs(again) == text  # emit is a fixpoint after one trip


def test_variant_annotation_passthrough():
    # a `c variant` line, like any other comment, is read past
    text = "c mode sat\nc variant mono-sat-p3q3\np cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"
    expected = [(pos(0), pos(1), pos(2)), (neg(0), neg(1), neg(2))]
    assert parse_dimacs(text) == CnfInstance.from_codes(3, expected, SAT)
