"""Tests of the benchmark itself: seeding, exact work counts, the verdict
gate and the tracer.  They change nothing under src/.

    python3 -m pytest -q certbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import verdicts  # noqa: E402
from mono3sat import generate, oracle, reductions  # noqa: E402
from mono3sat.formulas import NAE, SAT, CnfInstance, clause  # noqa: E402


def _bench(args, env=None, prelude=""):
    """Run the benchmark command in a fresh process; (code, stdout lines, record)."""
    code = (
        f"import sys; sys.path.insert(0, {HERE!r})\n{prelude}\n"
        f"import run; sys.exit(run.main({args!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)
    lines = proc.stdout.splitlines()
    record_line = next(l for l in lines if l.startswith("record "))
    with open(record_line.split(" ", 1)[1]) as fh:
        record = json.load(fh)
    return proc.returncode, lines, record


def _argv(workload, seed=5, trace=1):
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]


@pytest.mark.parametrize("workload", ["equisat", "refute", "search"])
def test_same_seed_same_inputs_and_work(workload):
    """Digest and first-pass work counts repeat exactly, whatever PYTHONHASHSEED is."""
    records = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        code, lines, record = _bench(_argv(workload), env=env)
        assert code == 0, "\n".join(lines)
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {name for name, _, _ in tracing.PER_LAYER}
        records.append(record)
    a, b = records
    assert a["input_sha256"] == b["input_sha256"]
    assert a["first_pass"] == b["first_pass"] and a["first_pass"]["items"] > 0
    assert a["first_pass_trace"] == b["first_pass_trace"]
    assert a["machine"]["nproc"] >= 1 and a["machine"]["backend"] in ("python", "cython")
    metrics = {k: v["value"] for k, v in a["metrics"].items()}
    self_s = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    if workload == "search":
        recs = {(tuple(p), n): (c, e) for p, n, c, e in a["first_pass"]["records"]}
        assert recs[((2, 2), 3)] == (0, True)
        assert recs[((2, 2), 6)] == (819, True)
        assert metrics["witnesses.search.exhausted_max_n"] == 6
        assert 0 < metrics["witnesses.search.dedup_ratio"] < 1
        searchy = sum(v for k, v in self_s.items() if k.startswith("witnesses.")) \
            + self_s["oracle.dpll"]
        assert searchy > 0.5 * sum(self_s.values())
    else:
        assert a["first_pass"]["assignments"] > 0
        top = max(self_s, key=self_s.get)
        assert top == ("oracle.dpll" if workload == "equisat" else "oracle.enum")


def test_different_seeds_different_inputs():
    a = _bench(_argv("refute", seed=1, trace=0))[2]
    b = _bench(_argv("refute", seed=2, trace=0))[2]
    assert a["input_sha256"] != b["input_sha256"]


# Sampling searches that decide no candidate at all: the generator always fails.
NO_SAMPLES = f"""
sys.path.insert(0, {os.path.join(ROOT, "src")!r})
from mono3sat import generate, witnesses
def always_fails(*args, **kwargs):
    raise generate.GenerationError("no instance")
witnesses.random_k1 = always_fails
"""


@pytest.mark.parametrize("workload,prelude", [
    ("equisat", "import verdicts; verdicts.EXPECTED_STATUS['equisat'] = 'unsat'"),
    ("refute", "import verdicts; verdicts.EXPECTED_STATUS['refute'] = 'sat'"),
    ("search", "import verdicts; verdicts.EXPECTED_SEARCH_22[6] = (True, 818)"),
    ("search", NO_SAMPLES),
], ids=["equisat-status", "refute-status", "search-count", "search-no-samples"])
def test_wrong_expectation_fails_the_run(workload, prelude):
    code, lines, record = _bench(_argv(workload, trace=0), prelude=prelude)
    assert code != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert record["failed_frac"] > 0
    assert any(l.startswith("FAILED ") for l in lines)
    if prelude is NO_SAMPLES:
        # 60 (4,1) and 30 (3,1) calls of 10 candidates each, none decided
        assert result["failed"] == 900


def test_without_the_library_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "certbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "certbench/run.py", "--workload", "refute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


# -- the verdict gate on its own --------------------------------------------


def _res(status, model=None):
    return oracle.SolveResult(status, model)


def test_satisfies_sat_and_nae():
    sat = CnfInstance(2, (clause([0, 1]),), SAT)
    nae = CnfInstance(2, (clause([0, 1]),), NAE)
    assert verdicts.satisfies(sat, (True, True))
    assert not verdicts.satisfies(nae, (True, True))
    assert verdicts.satisfies(nae, (True, False))
    assert not verdicts.satisfies(sat, (False, False))
    assert not verdicts.satisfies(sat, None)


def test_check_reduction():
    inst = CnfInstance(1, (clause([0]),), SAT)
    out = CnfInstance(2, (clause([0, 1]),), SAT)
    good = (inst, out, _res("sat", (True,)), _res("sat", (True, False)), (True,))
    assert verdicts.check_reduction("equisat", *good) is None
    assert "input is sat but output is unsat" in verdicts.check_reduction(
        "equisat", inst, out, _res("sat", (True,)), _res("unsat"), None)
    assert "pulled-back" in verdicts.check_reduction(
        "equisat", inst, out, _res("sat", (True,)), _res("sat", (True, False)), (False,))
    assert "output model" in verdicts.check_reduction(
        "equisat", inst, out, _res("sat", (True,)), _res("sat", (False, False)), (True,))
    assert "indeterminate" in verdicts.check_reduction(
        "equisat", inst, out, _res("sat", (True,)), _res("indeterminate"), None)
    assert verdicts.check_reduction("refute", inst, out, _res("unsat"), _res("unsat"), None) is None
    assert "expected both sides unsat" in verdicts.check_reduction(
        "refute", *good)


def test_check_cli():
    assert verdicts.check_pipeline([0, 0, 0], "unsat") is None
    assert verdicts.check_pipeline([0, 1, 0], "unsat")
    assert verdicts.check_pipeline([0, 0, 0], "sat")
    rows = [{"kind": "A", "ok": True}, {"kind": "B", "ok": True}]
    assert verdicts.check_gadgets(0, {"ok": True, "results": rows}, 2) is None
    assert verdicts.check_gadgets(0, {"ok": True, "results": rows}, 3)
    assert verdicts.check_gadgets(1, {"ok": True, "results": rows}, 2)


def test_check_search():
    good = [{"n": 3, "candidates": 0, "exhausted": True},
            {"n": 6, "candidates": 819, "exhausted": True},
            {"n": 9, "candidates": 181, "exhausted": False}]
    assert verdicts.check_search((2, 2), good, None, 1000) is None
    assert verdicts.check_search((2, 2), good, object(), 1000)
    assert verdicts.check_search((2, 2), good[:2], None, 1000)
    assert verdicts.check_search((2, 2), good, None, 1001)
    sample = [{"n": 21, "candidates": 10, "exhausted": False}]
    assert verdicts.check_search((4, 1), sample, None, 40, sample_n=21, per_n=10) is None
    assert verdicts.check_search((4, 1), sample, None, 40, sample_n=21, per_n=9)


# -- the tracer -------------------------------------------------------------


def test_tracer_rebinds_and_restores():
    import random

    original_build = reductions.build_gadget
    original_validate = reductions.validate
    tr = tracing.Tracer()
    tr.install()
    try:
        assert reductions.build_gadget is not original_build
        inst = generate.random_22(3, random.Random(1))
        with tr.item("R5"):
            with tr.step(tracing.BUILD):
                cert = reductions.apply_reduction("R5", inst)
            with tr.step(tracing.OUTPUT_DPLL):
                oracle.solve_dpll(cert.output)
    finally:
        tr.uninstall()
    assert reductions.build_gadget is original_build
    assert reductions.validate is original_validate
    m = tr.layer_metrics(0.0)
    assert m["reductions.apply_calls"] == 1
    assert m["reductions.out_vars"] == cert.output.num_vars
    assert m["gadgets.build.calls"] > 0 and m["formulas.validate.calls"] == 2
    assert m["oracle.dpll.calls"] == 1
    assert m["oracle.dpll.clauses_in"] == cert.output.num_clauses
    assert m["reductions.R5.validate_s"] > 0 and m["reductions.R5.build_s"] > 0
    assert m["reductions.R5.output_dpll_s"] > 0
    selft = tr.self_times()
    assert all(v >= -1e-9 for v in selft.values())


def test_tail_percentile():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    outer = tr._open("a")
    inner = tr._open("b")
    tr._close(inner)
    tr._close(outer)
    selft = tr.self_times()
    assert selft["a"] == pytest.approx(tr.span_dur[outer] - tr.span_dur[inner])
    assert selft["b"] == pytest.approx(tr.span_dur[inner])

