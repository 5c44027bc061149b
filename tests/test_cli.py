import json
import os
import subprocess
import sys

import pytest

from mono3sat.cli import main, parse_variant, VariantSyntaxError
from mono3sat.formulas import (
    CHOICE,
    EXACT,
    TOTAL,
    MONOTONE_NAE,
    MONOTONE_SAT,
)


def test_parse_variant_grammar():
    spec = parse_variant("mono-sat-p3q3")
    assert spec.monotone == MONOTONE_SAT and spec.profile == (EXACT, 3, 3)
    spec = parse_variant("mono-nae-e4")
    assert spec.monotone == MONOTONE_NAE and spec.profile == (TOTAL, 4)
    spec = parse_variant("mono-nae-e4-linear")
    assert spec.linear == "linear"
    spec = parse_variant("e4-choice-31-13")
    assert spec.profile == (CHOICE, ((3, 1), (1, 3)))
    spec = parse_variant("mono-sat-p2q2-star")
    assert spec.duplicates
    spec = parse_variant("exact-linear")
    assert spec.linear == "exact"
    assert parse_variant("any").profile is None


def test_parse_variant_errors():
    for bad in ("mono", "mono-foo", "choice", "exact", "wat"):
        with pytest.raises(VariantSyntaxError):
            parse_variant(bad)


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
    payload = json.loads(open(cert).read())
    assert payload["reduction"] == "R9"
    assert payload["output_vars"] == 135


def test_reduce_unknown_id(tmp_path):
    src = _witness_file(tmp_path, "nine_var")
    assert main(["reduce", "--id", "R99", "--in", src, "--out", "/dev/null"]) == 2


def test_reduce_invalid_input(tmp_path):
    src = _witness_file(tmp_path, "nine_var")  # (3,3), not valid for R5
    assert main(["reduce", "--id", "R5", "--in", src, "--out", "/dev/null"]) == 1


def test_search_unsat_cli(tmp_path, capsys):
    journal = str(tmp_path / "journal.jsonl")
    code = main([
        "search-unsat", "--profile", "2,2", "--max-n", "3",
        "--journal", journal,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "exhausted" in out and "no unsatisfiable" in out
    events = [json.loads(line) for line in open(journal)]
    assert any(e["event"] == "n-done" for e in events)
    assert main(["search-unsat", "--profile", "7,7"]) == 2
    assert main(["search-unsat", "--profile", "x"]) == 2


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
    monkeypatch.setenv("MONO3SAT_ENUM_CAP", "abc")
    assert main(["solve", path]) == 1
    assert "MONO3SAT_ENUM_CAP" in capsys.readouterr().err


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
