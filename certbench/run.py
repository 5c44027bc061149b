#!/usr/bin/env python3
"""Certification benchmark for mono3sat.

    python3 certbench/run.py --workload equisat|refute|search|all \
        --seed N --seconds S --trace 0|1

Runs one workload in this process (`all` runs each in a fresh process),
checks every verdict, prints every metric with its unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
of a traced run.  The exit code is 0 only when every verdict was right.
The library is imported from the `src` directory next to this one.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".certbench")

SETUP_REPEATS = 5  # fresh-process set-ups per run; setup_s is their median
WORKLOAD_NAMES = ("equisat", "refute", "search")

END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _import_library() -> None:
    """Import the library from SRC and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mono3sat.cli  # noqa: F401  (pulls in every module)

    where = os.path.dirname(os.path.abspath(sys.modules["mono3sat"].__file__))
    if where != os.path.join(SRC, "mono3sat"):
        raise ImportError(f"mono3sat was imported from {where}, not from {SRC}")


def _commit() -> str | None:
    """The checked-out commit when ROOT is a git work tree, else None."""
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mono3sat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def machine() -> dict:
    from mono3sat import oracle

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": oracle.backend_name(),
        "MONO3SAT_ENUM_CAP": os.environ.get("MONO3SAT_ENUM_CAP"),
        "MONO3SAT_BACKEND": os.environ.get("MONO3SAT_BACKEND"),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least ten
    samples above it; the maximum when there are fewer than eleven."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Phase:
    """Runs the pass of items over and over, keeping each item's times."""

    def __init__(self, prep, tracer, workloads):
        self.prep = prep
        self.tracer = tracer
        self.workloads = workloads
        self.times = [[] for _ in prep.items]  # seconds, per item of the pass
        self.item_verdicts = [1] * len(prep.items)
        self.runs = 0
        self.verdicts = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_pass: dict = {}
        self.first_pass_trace: dict = {}
        self.elapsed = 0.0

    def _one(self, item):
        """Run one item; its time covers the library calls, not the checks."""
        dt = None
        t0 = time.perf_counter()
        try:
            with self.tracer.item(item.label):
                judge = self.workloads.run_item(self.prep, item, self.tracer)
            dt = time.perf_counter() - t0
            out = judge()
        except Exception as exc:
            if dt is None:
                dt = time.perf_counter() - t0
            n = self.workloads.search_verdicts(item) if item.kind == "search" else 1
            out = self.workloads.Outcome(n, n, f"{type(exc).__name__}: {exc}", {"items": 1})
            if len(self.failures) < 3:
                traceback.print_exc(file=sys.stderr)
        self.runs += 1
        self.verdicts += out.verdicts
        self.failed += out.failed
        if out.reason is not None and len(self.failures) < 20:
            self.failures.append(f"{item.kind} {item.label or ''}: {out.reason}".strip())
        return out, dt

    def run(self, seconds: float | None = None, max_runs: int | None = None) -> None:
        """The first pass in full, then on until `seconds` pass or `max_runs`
        item runs are done."""
        items = self.prep.items
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds
        for done, i in enumerate(itertools.cycle(range(len(items)))):
            if done == len(items):
                self.first_pass_trace = self.tracer.work_counts()
            if max_runs is not None and done >= max_runs:
                break
            if done >= len(items) and deadline is not None and time.perf_counter() >= deadline:
                break
            out, dt = self._one(items[i])
            self.times[i].append(dt)
            self.item_verdicts[i] = out.verdicts
            if done < len(items):
                _add_counts(self.first_pass, out.counts)
        self.elapsed = time.perf_counter() - start

    def item_means(self) -> list[float]:
        """Each item's mean time over the passes it ran in."""
        return [statistics.fmean(t) for t in self.times]


def _add_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        if isinstance(value, list):
            total.setdefault(key, []).extend(value)
        else:
            total[key] = total.get(key, 0) + value


def setup_seconds(workload: str, seed: int, workdir: str) -> list[float]:
    """Times of SETUP_REPEATS set-ups, each in a fresh process that starts
    Python, imports the library and runs `prepare` from cold."""
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import mono3sat.cli, workloads; "
            f"workloads.prepare({workload!r}, {seed!r}, {workdir!r})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        _import_library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = os.path.join(OUT, f"{workload}-seed{seed}")
    setup_times = setup_seconds(workload, seed, workdir)
    prep = workloads.prepare(workload, seed, workdir)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "inputs": prep.inputs, "items_per_pass": len(prep.items),
        "input_sha256": prep.digest, "setup_repeats_s": setup_times,
    }
    if not trace:
        phase = Phase(prep, tracing.NullTracer(), workloads)
        phase.run(seconds=seconds)
        means = phase.item_means()
        per_verdict_ms = [1000.0 * t / max(v, 1) for t, v in zip(means, phase.item_verdicts)]
        value, pct, n = tail(per_verdict_ms)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "verdicts_per_s": sum(phase.item_verdicts) / sum(means),
            "verdict_p50_ms": statistics.median(per_verdict_ms),
            "verdict_tail_ms": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        record["tail"] = {"percentile": pct, "samples": n}
        record["item_times_s"] = phase.times
        phases = [phase]
    else:
        # Untraced first, then one pass traced: the item means of the two give
        # the tracing overhead.  One traced set-up and pass make every count
        # an exact, seeded amount of work.  Set-up is traced so `generate` is seen.
        plain = Phase(prep, tracing.NullTracer(), workloads)
        plain.run(seconds=seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_prep = workloads.prepare(workload, seed, workdir)
            traced = Phase(traced_prep, tracer, workloads)
            traced.run(max_runs=len(traced_prep.items))
        finally:
            tracer.uninstall()
        overhead = sum(traced.item_means()) / sum(plain.item_means()) - 1.0
        metrics = tracer.layer_metrics(overhead)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
        record["spans_file"] = spans_path
        record["spans"] = tracer.write_spans(spans_path)
        record["first_pass_trace"] = traced.first_pass_trace
        phases = [plain, traced]

    attempted = sum(p.verdicts for p in phases)
    failed = sum(p.failed for p in phases)
    record.update({
        "item_runs": sum(p.runs for p in phases),
        "elapsed_s": [p.elapsed for p in phases],
        "first_pass": phases[0].first_pass,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": [f for p in phases for f in p.failures],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    os.makedirs(OUT, exist_ok=True)
    record_path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    m = record["machine"]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  nproc {m['nproc']}  "
          f"python {m['python']}  backend {m['backend']}  commit {m['commit']}")
    print(f"inputs {prep.inputs}  items per pass {len(prep.items)}  sha256 {prep.digest}")
    if not trace:
        t = record["tail"]
        print(f"verdict_tail_ms is p{t['percentile']:.2f} of {t['samples']} item times")
    print(f"item runs {record['item_runs']}  verdicts {attempted}  failed {failed}  "
          f"failed_frac {record['failed_frac']:.6f}")
    for reason in record["failures"]:
        print(f"FAILED {reason}")
    for name, v in metrics.items():
        print(f"{name} {v:.6g} {units[name]}")
    print(f"record {record_path}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; their metrics keyed workload/metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
