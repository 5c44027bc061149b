import json
import os
import random
import subprocess
import sys

import pytest

from mono3sat.cli import main, parse_variant, VariantSyntaxError
from mono3sat.dimacs import emit_dimacs
from mono3sat.formulas import MONOTONE_NAE, MONOTONE_SAT, total
from mono3sat.generate import random_monotone_nae, random_nae_star
from mono3sat.witnesses import known_unsat


def test_parse_variant_grammar():
    spec = parse_variant("mono-sat-p3q3")
    assert spec.monotone == MONOTONE_SAT and spec.profile == {(3, 3)}
    spec = parse_variant("mono-nae-e4")
    assert spec.monotone == MONOTONE_NAE and spec.profile == total(4)
    spec = parse_variant("mono-nae-e4-linear")
    assert spec.linear == "linear"
    spec = parse_variant("e4-choice-31-13")
    assert spec.profile == {(3, 1), (1, 3)}
    spec = parse_variant("mono-sat-p2q2-star")
    assert spec.duplicates
    spec = parse_variant("exact-linear")
    assert spec.linear == "exact"
    assert parse_variant("any").profile is None


def test_parse_variant_errors():
    for bad in ("mono", "mono-foo", "choice", "exact", "wat", "e1000", "p1q" + "9" * 5000,
                "mono-sat-p٣q٣", "e٤", "choice-٣١"):  # non-ASCII digits
        with pytest.raises(VariantSyntaxError):
            parse_variant(bad)
    # a later mono or linearity segment does not overwrite an earlier one
    for bad in ("mono-nae-mono-sat", "mono-sat-mono-nae", "exact-linear-linear",
                "linear-exact-linear"):
        with pytest.raises(VariantSyntaxError, match="twice"):
            parse_variant(bad)
    # repeating the same value is harmless
    assert parse_variant("mono-sat-mono-sat").monotone == MONOTONE_SAT
    assert parse_variant("linear-linear").linear == "linear"
    assert parse_variant("exact-linear-exact-linear").linear == "exact"


def test_parse_variant_profile_segments_intersect():
    # an eK after a pPqQ or a choice narrows it instead of being dropped
    assert parse_variant("choice-31-22-e4-p3q1").profile == {(3, 1)}
    assert parse_variant("p3q1-e4").profile == {(3, 1)}
    # the order of the segments does not matter
    assert parse_variant("choice-31-13-e4").profile == {(3, 1), (1, 3)}
    # a later pPqQ or choice does not overwrite an earlier one
    for bad in ("p3q1-e5", "p2q2-p3q3", "choice-31-13-p2q2", "p3q3-choice-31-13"):
        with pytest.raises(VariantSyntaxError):
            parse_variant(bad)


def test_check_rejects_conflicting_profile_segments(tmp_path, capsys):
    # every variable of nine_var appears 6 times, (3,3): p3q3 and e4 together
    # allow no pair, so the spec string is a usage error, not a PASS
    path = _witness_file(tmp_path, "nine_var")
    assert main(["check", "--variant", "mono-sat-p3q3", path]) == 0
    assert main(["check", "--variant", "mono-sat-p3q3-e4", path]) == 2
    assert main(["check", "--variant", "e4-choice-31-13", path]) == 1
    assert "variable 0" in capsys.readouterr().out


def _witness_file(tmp_path, name):
    path = tmp_path / f"{name}.cnf"
    assert main(["witness", name, "-o", str(path)]) == 0
    return str(path)


def test_witness_and_solve(tmp_path, capsys):
    path = _witness_file(tmp_path, "nine_var")
    assert main(["solve", "--engine", "exhaustive", path]) == 0
    assert capsys.readouterr().out.strip().endswith("UNSAT")


def test_solve_json(tmp_path, capsys):
    path = _witness_file(tmp_path, "nine_var")
    capsys.readouterr()
    assert main(["solve", "--json", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "mono3sat-report/1"
    assert payload["status"] == "unsat"


def test_check_pass_and_fail(tmp_path, capsys):
    path = _witness_file(tmp_path, "nine_var")
    assert main(["check", "--variant", "mono-sat-p3q3", path]) == 0
    assert main(["check", "--variant", "mono-nae-e4", path]) == 1
    assert main(["check", "--variant", "bogus", path]) == 2


def test_check_json_witness(tmp_path, capsys):
    path = _witness_file(tmp_path, "nine_var")
    capsys.readouterr()
    assert main(["check", "--json", "--variant", "mono-nae-e4", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False and payload["witness"] == ["clause", 0]


def test_gadgets_verify_all(capsys):
    assert main(["gadgets", "verify", "ALL"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 20
    assert main(["gadgets", "verify", "NOPE"]) == 2
    assert main(["gadgets", "list"]) == 0


def test_reduce_roundtrip(tmp_path, capsys):
    src = _witness_file(tmp_path, "nine_var")
    out = str(tmp_path / "out.cnf")
    cert = str(tmp_path / "cert.json")
    code = main(["reduce", "--id", "R9", "--in", src, "--out", out, "--cert", cert])
    assert code == 0
    assert main(["check", "--variant", "mono-sat-p2q2-star", out]) == 0
    assert main(["solve", "--engine", "dpll", out]) == 0
    assert capsys.readouterr().out.strip().endswith("UNSAT")
    payload = json.loads((tmp_path / "cert.json").read_text())
    assert payload["reduction"] == "R9"
    assert payload["output_vars"] == 135


def test_reduce_unknown_id(tmp_path):
    src = _witness_file(tmp_path, "nine_var")
    assert main(["reduce", "--id", "R99", "--in", src, "--out", "/dev/null"]) == 2


def test_reduce_invalid_input(tmp_path, capsys):
    src = _witness_file(tmp_path, "nine_var")  # (3,3), not valid for R5
    assert main(["reduce", "--id", "R5", "--in", src, "--out", "/dev/null"]) == 1
    # valid for R9, which takes no k
    out = str(tmp_path / "out.cnf")
    assert main(["reduce", "--id", "R9", "--k", "7", "--in", src, "--out", out]) == 1
    assert "error: R9 takes no appearance parameter k" in capsys.readouterr().err
    assert not os.path.exists(out)
    # a nae-mode R10 parameter (sat in sat mode, unsat in nae mode) is
    # rejected for its mode, before the forced-literal split could raise
    param = tmp_path / "p.cnf"
    param.write_text(
        "c mode nae\np cnf 9 12\n"
        "3 8 9 0\n3 7 9 0\n4 5 8 0\n1 2 7 0\n1 5 6 0\n2 4 6 0\n"
        "-1 -5 -6 0\n-1 -3 -4 0\n-2 -8 -9 0\n-4 -7 -9 0\n-2 -3 -5 0\n"
        "-6 -7 -8 0\n"
    )
    argv = ["reduce", "--id", "R10", "--in", src, "--out", out, "--param", str(param)]
    assert main(argv) == 1
    assert "error: R10 expects a sat-mode parameter" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_search_unsat_cli(tmp_path, capsys):
    journal = str(tmp_path / "journal.jsonl")
    code = main([
        "search-unsat", "--profile", "2,2", "--max-n", "3",
        "--journal", journal,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "exhausted" in out and "no unsatisfiable" in out
    events = [json.loads(line) for line in (tmp_path / "journal.jsonl").read_text().splitlines()]
    assert any(e["event"] == "n-done" for e in events)
    assert main(["search-unsat", "--profile", "7,7"]) == 2
    assert main(["search-unsat", "--profile", "x"]) == 2
    assert main(["search-unsat", "--profile", "٢,٢"]) == 2


def test_search_unsat_cli_says_why_each_size_ended(capsys):
    # a size is cut by the candidate budget, by the time limit or by its
    # sampling quota, and the text output names which; the time limit ends
    # the search, so no size after it is reported
    for argv, lines, absent in (
        (["--profile", "2,2", "--max-n", "9", "--max-candidates", "1000"],
         ["n=6: 819 candidates checked (exhausted)", "n=9: 181 candidates checked (budget)"],
         None),
        (["--profile", "2,2", "--max-n", "6", "--timeout", "0"],
         ["n=3: 0 candidates checked (time limit)"], "n=6"),
        (["--profile", "4,1", "--max-n", "24", "--max-candidates", "40"],
         ["n=21: 10 candidates checked (sample quota)",
          "n=24: 10 candidates checked (sample quota)"], None),
    ):
        assert main(["search-unsat", *argv]) == 0
        out = capsys.readouterr().out.splitlines()
        assert all(line in out for line in lines), out
        assert absent is None or not any(line.startswith(absent) for line in out), out
        assert main(["search-unsat", *argv, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert all(r["exhausted"] == (r["ended"] == "exhausted") for r in records)


@pytest.mark.parametrize("argv", [
    ["solve", "--timeout", "nan"],
    ["solve", "--timeout", "-1"],
    ["solve", "--timeout", "soon"],
    ["search-unsat", "--profile", "2,2", "--timeout", "nan"],
    ["search-unsat", "--profile", "2,2", "--timeout", "-1"],
    ["search-unsat", "--profile", "2,2", "--max-n", "-3"],
    ["search-unsat", "--profile", "2,2", "--max-candidates", "-5"],
    ["search-unsat", "--profile", "2,2", "--max-n", "1.5"],
    ["reduce", "--id", "R6", "--k", "-1"],
    # forms int() and float() take but an ASCII number rule does not
    ["search-unsat", "--profile", "2,2", "--max-n", "٣"],
    ["search-unsat", "--profile", "2,2", "--max-candidates", "1_0"],
    ["search-unsat", "--profile", "2,2", "--max-n", "+3"],
    ["search-unsat", "--profile", "2,2", "--seed", "٣"],
    ["search-unsat", "--profile", "2,2", "--seed", "1_0"],
    ["solve", "--timeout", "١"],
    ["solve", "--timeout", "1_0"],
    ["solve", "--timeout", "inf"],
    ["solve", "--timeout", "1e3"],
])
def test_bad_numeric_options_are_usage_errors(tmp_path, capsys, argv):
    # rejected while parsing, before any solving or searching starts
    path = _witness_file(tmp_path, "mon51")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + ([path] if argv[0] == "solve" else []))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: want" in captured.err


def test_missing_file_is_error():
    assert main(["solve", "/nonexistent.cnf"]) == 1


def test_negative_header_is_error(tmp_path, capsys):
    path = tmp_path / "neg.cnf"
    path.write_text("p cnf -1 0\n")
    assert main(["solve", str(path)]) == 1
    assert "negative" in capsys.readouterr().err


def test_solve_satlib_file(tmp_path, capsys):
    path = tmp_path / "uf3.cnf"
    path.write_text("c SATLIB style\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n")
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.split()[-1] == "SAT"


def test_bad_enum_cap_is_error(tmp_path, capsys, monkeypatch):
    path = _witness_file(tmp_path, "nine_var")
    for cap in ("abc", "-3", "2_6", "٢٦", "+26"):
        monkeypatch.setenv("MONO3SAT_ENUM_CAP", cap)
        for engine in ("auto", "exhaustive"):
            assert main(["solve", "--engine", engine, path]) == 1
            err = capsys.readouterr().err
            assert "error: MONO3SAT_ENUM_CAP must be a non-negative integer" in err
    monkeypatch.setenv("MONO3SAT_ENUM_CAP", "0")  # every instance goes to DPLL
    assert main(["solve", path]) == 0


def test_unknown_witness():
    assert main(["witness", "nope"]) == 2


def test_closed_stdout_pipe_exits_quietly():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    with subprocess.Popen(
        [sys.executable, "-m", "mono3sat.cli", "gadgets", "list", "--json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        proc.stdout.close()  # the reader is gone before the command writes
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_unreadable_input_and_output_are_errors(tmp_path, capsys):
    path = _witness_file(tmp_path, "nine_var")
    binary = tmp_path / "binary.cnf"
    binary.write_bytes(b"p cnf 3 1\n1 -2 \xff 0\n")
    assert main(["solve", str(binary)]) == 1
    assert main(["solve", str(tmp_path)]) == 1
    assert main(["reduce", "--id", "R9", "--in", path, "--out", str(tmp_path)]) == 1
    assert main(["search-unsat", "--profile", "2,2", "--max-n", "3",
                 "--journal", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("error: ") == 4, err


# Runs every case through cli.main in one process; argparse usage errors
# (SystemExit) are recorded as their exit code, anything else escapes.
_FUZZ_DRIVER = """
import json, os, sys
from mono3sat import cli
with open(sys.argv[1]) as fh:
    cases = json.load(fh)
codes = []
for argv, cap in cases:
    if cap is None:
        os.environ.pop("MONO3SAT_ENUM_CAP", None)
    else:
        os.environ["MONO3SAT_ENUM_CAP"] = cap
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
with open(sys.argv[2], "w") as fh:
    json.dump(codes, fh)
"""

# bytes a mutation writes: DIMACS syntax, digits, and bytes that are not UTF-8
_FUZZ_BYTES = b"0123456789- \n\t%pcnf" + bytes([0x00, 0x80, 0xC3, 0xE2, 0xFF])
_VARIANT_CHARS = "monsatpq0123456789-eliarchoxyz_ "
_CAP_CHARS = "0123456789-+ _.xe٣"


def _mutate_bytes(data: bytes, rng) -> bytes:
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(data) + 1)
        op = rng.randrange(4)
        if op == 0 and i < len(data):
            data[i] = rng.choice(_FUZZ_BYTES)
        elif op == 1:
            data.insert(i, rng.choice(_FUZZ_BYTES))
        elif op == 2:
            del data[i:i + rng.randint(1, 3)]
        else:
            j = rng.randrange(len(data) + 1)
            data[i:i] = data[min(i, j):max(i, j)][:8]
    return bytes(data)


def _mutate_text(text: str, alphabet: str, rng) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        if rng.random() < 0.5 and i < len(chars):
            del chars[i]
        else:
            chars.insert(i, rng.choice(alphabet))
    return "".join(chars)


def test_bad_input_fuzz_never_tracebacks(tmp_path):
    """Seeded mutations of DIMACS bytes, variant strings and
    MONO3SAT_ENUM_CAP values end in exit 0, 1 or 2, never a traceback."""
    rng = random.Random(0xF0221)
    nine = _witness_file(tmp_path, "nine_var")
    seeds = [
        (tmp_path / "nine_var.cnf").read_bytes(),
        emit_dimacs(random_monotone_nae(6, 5, random.Random(1))).encode(),
        b"c SATLIB style\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n",
        emit_dimacs(known_unsat("ss_bar")).encode(),
    ]
    out = str(tmp_path / "out.cnf")
    cases = []
    for i in range(60):
        path = tmp_path / f"m{i}.cnf"
        path.write_bytes(_mutate_bytes(rng.choice(seeds), rng))
        f = str(path)
        cases += [
            (["solve", "--engine", rng.choice(("auto", "dpll", "exhaustive")), f], None),
            (rng.choice((
                ["check", "--variant=mono-sat-p3q3", f],
                ["reduce", "--id", "R6", "--k", "3", "--in", f, "--out", out],
                ["reduce", "--id", "R9", "--in", f, "--out", out],
                ["reduce", "--id", "R1", "--in", f, "--out", out],
            )), None),
        ]
    variants = ("mono-sat-p3q3", "mono-nae-e4-linear", "e4-choice-31-13",
                "mono-sat-p2q2-star", "exact-linear")
    for _ in range(30):
        variant = _mutate_text(rng.choice(variants), _VARIANT_CHARS, rng)
        cases.append((["check", f"--variant={variant}", nine], None))
    caps = ["", "0", "-1", "26", "1" * 5000, "0x1a", "٣", "+9", " 12 "]
    caps += ["".join(rng.choice(_CAP_CHARS) for _ in range(rng.randint(1, 4)))
             for _ in range(12)]
    for cap in caps:
        cases.append((["solve", nine], cap))
        cases.append((["gadgets", "verify", rng.choice(("NE6", "S", "B"))], cap))
    two_headers = tmp_path / "two_headers.cnf"
    two_headers.write_text("p cnf 3 1\n1 2 3 0\np cnf 1 1\n")
    flagged = tmp_path / "flagged.cnf"  # multiset-flagged, repeats nothing
    flagged.write_text("c duplicates allowed\np cnf 3 1\n1 2 3 0\n")
    repeating = tmp_path / "repeating.cnf"
    repeating.write_text("c duplicates allowed\np cnf 3 1\n1 1 3 0\n")
    cases += [
        (["solve", str(two_headers)], None),
        (["solve", str(tmp_path)], None),
        (["reduce", "--id", "R9", "--in", nine, "--out", str(tmp_path)], None),
        (["search-unsat", "--profile", "2,2", "--max-n", "3",
          "--journal", str(tmp_path)], None),
        (["witness", "nine_var", "-o", str(tmp_path)], None),
        (["check", "--variant", "linear", str(flagged)], None),
        (["check", "--variant", "star-linear", str(repeating)], None),
    ]
    case_file, code_file = tmp_path / "cases.json", tmp_path / "codes.json"
    case_file.write_text(json.dumps(cases))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    env.pop("MONO3SAT_ENUM_CAP", None)
    proc = subprocess.run(
        [sys.executable, "-c", _FUZZ_DRIVER, str(case_file), str(code_file)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "Traceback" not in proc.stderr, proc.stderr[-3000:]
    assert proc.returncode == 0, proc.stderr[-3000:]
    codes = json.loads(code_file.read_text())
    assert len(codes) == len(cases)
    assert set(codes) <= {0, 1, 2}, [c for c in zip(codes, cases) if c[0] not in (0, 1, 2)]
    assert codes[-2:] == [0, 1]  # the linear checks judge repeats, not the flag
    # the mutations reach past the parser: some inputs are decided
    assert codes.count(0) >= 10 and codes.count(1) >= 10


def test_reduce_r2_r3_r4_pipeline(tmp_path, capsys):
    path = tmp_path / "star.cnf"
    path.write_text(emit_dimacs(random_nae_star(2, 2, random.Random(3))))
    src = str(path)
    for rid in ("R2", "R3", "R4"):
        out = str(tmp_path / f"{rid}.cnf")
        assert main(["reduce", "--id", rid, "--in", src, "--out", out]) == 0
        src = out
    assert "c duplicates forbidden" in (tmp_path / "R2.cnf").read_text()
    assert main(["check", "--variant", "mono-sat-p4q4", src]) == 0
