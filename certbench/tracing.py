"""Span tracing for the traced run, installed from outside the library.

`Tracer.install()` wraps the layer entry points listed in `LAYERS` and
rebinds each wrapper in every `mono3sat` module that holds the original
function, so calls made through a `from ... import` name are traced as
well.  `uninstall()` puts the originals back.  No program
file is changed.

Spans live in flat arrays while the run goes on and are written out once,
at the end.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded and properly nested, so children
never overlap.  Generator layers (hypergraph enumeration) get one span whose
duration is the time spent inside the generator, summed over its `next()`
calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# span name -> [(module, function name)] wrapped under that name
LAYERS = {
    "oracle.enum": [("oracle", "solve_exhaustive"), ("oracle", "check_extension_property")],
    "oracle.dpll": [("oracle", "solve_dpll")],
    "formulas.validate": [("formulas", "validate")],
    "formulas.evaluate": [("formulas", "evaluate")],
    "gadgets.build": [("gadgets", "build_gadget")],
    "gadgets.verify": [("gadgets", "verify_gadget"), ("gadgets", "verify_composite")],
    "reductions.apply": [("reductions", "apply_reduction")],
    "reductions.pull_back": [("reductions", "pull_back")],
    "witnesses.search": [("witnesses", "search_unsat")],
    "witnesses.signature": [("witnesses", "canonical_signature")],
    "witnesses.hypergraphs": [("witnesses", "regular_hypergraphs_exhaustive")],
    "generate": [
        ("generate", name)
        for name in (
            "random_monotone_nae", "random_nae_e4", "random_nae_star",
            "random_kk", "random_k1", "random_32", "random_22",
        )
    ],
    "dimacs.parse": [("dimacs", "parse_dimacs")],
    "dimacs.emit": [("dimacs", "emit_dimacs")],
    "cli.main": [("cli", "main")],
}

# Rows of the reduction catalogue with a per-row split (R10 needs an
# unsatisfiable (2,2) parameter instance, which nobody has yet).
ROWS = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R11", "R12", "R13", "R14")
ROW_PARTS = ("build_s", "validate_s", "input_oracle_s", "output_dpll_s", "pull_back_s")

# Steps of one certified reduction, as marked by the workloads.
BUILD, INPUT_ORACLE, OUTPUT_DPLL, PULL_BACK = "build", "input_oracle", "output_dpll", "pull_back"

# (name, unit, better) of every per-layer metric, in report order.  The
# metrics cover one traced set-up and one traced pass, so every count is an
# exact, seeded amount of work: lower is the same verdicts for less work.
PER_LAYER = (
    [
        ("oracle.enum.calls", "count", "lower"),
        ("oracle.enum.self_s", "s", "lower"),
        ("oracle.enum.assignments", "count", "lower"),
        ("oracle.enum.assignments_per_s", "1/s", "higher"),
        ("oracle.dpll.calls", "count", "lower"),
        ("oracle.dpll.self_s", "s", "lower"),
        ("oracle.dpll.sat", "count", "lower"),
        ("oracle.dpll.unsat", "count", "lower"),
        ("oracle.dpll.clauses_in", "count", "lower"),
        ("oracle.dpll.clauses_per_s", "1/s", "higher"),
        ("oracle.dpll.max_call_ms", "ms", "lower"),
        ("formulas.validate.calls", "count", "lower"),
        ("formulas.validate.self_s", "s", "lower"),
        ("formulas.evaluate.calls", "count", "lower"),
        ("formulas.evaluate.self_s", "s", "lower"),
        ("gadgets.build.calls", "count", "lower"),
        ("gadgets.build.self_s", "s", "lower"),
        ("gadgets.verify.calls", "count", "lower"),
        ("gadgets.verify.self_s", "s", "lower"),
    ]
    + [(f"reductions.{rid}.{part}", "s", "lower") for rid in ROWS for part in ROW_PARTS]
    + [
        ("reductions.apply_calls", "count", "lower"),
        ("reductions.out_vars", "count", "lower"),
        ("reductions.out_clauses", "count", "lower"),
        ("witnesses.search.self_s", "s", "lower"),
        ("witnesses.search.candidates", "count", "lower"),
        ("witnesses.search.signatures", "count", "lower"),
        ("witnesses.search.dedup_ratio", "frac", "higher"),
        ("witnesses.search.exhausted_max_n", "count", "higher"),
        ("witnesses.signature.self_s", "s", "lower"),
        ("witnesses.hypergraphs.self_s", "s", "lower"),
        ("generate.calls", "count", "lower"),
        ("generate.self_s", "s", "lower"),
        ("generate.errors", "count", "lower"),
        ("dimacs.parse.calls", "count", "lower"),
        ("dimacs.parse.self_s", "s", "lower"),
        ("dimacs.emit.calls", "count", "lower"),
        ("dimacs.emit.self_s", "s", "lower"),
        ("dimacs.bytes", "count", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


class NullTracer:
    """Stand-in for untraced phases: marks cost one method call."""

    def item(self, label):
        return _NULL_SPAN

    def step(self, name):
        return _NULL_SPAN

    def work_counts(self):
        return {}


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "kind", "_idx")

    def __init__(self, tracer, name, kind):
        self.tracer = tracer
        self.name = name
        self.kind = kind

    def __enter__(self):
        tr = self.tracer
        if self.kind == "item":
            tr.cur_label = self.name
            tr.cur_item += 1
            tr.cur_step = None
            self._idx = tr._open("bench.item")
        else:
            tr.cur_step = self.name
            self._idx = tr._open(f"bench.step.{self.name}")
        return self

    def __exit__(self, *exc):
        self.tracer._close(self._idx)
        if self.kind == "step":
            self.tracer.cur_step = None
        return False


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.labels: list[str | None] = []  # per item id: the item's label
        self.steps: list[str | None] = [None]
        self._step_ids: dict[str | None, int] = {None: 0}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.span_step = array("l")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.stack = [-1]
        self.cur_item = -1
        self.cur_label: str | None = None
        self.cur_step: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.span_dur)
        self.span_name.append(self._intern(name))
        self.span_parent.append(self.stack[-1])
        if len(self.labels) <= self.cur_item:
            self.labels.append(self.cur_label)
        self.span_item.append(self.cur_item)
        sid = self._step_ids.get(self.cur_step)
        if sid is None:
            sid = self._step_ids[self.cur_step] = len(self.steps)
            self.steps.append(self.cur_step)
        self.span_step.append(sid)
        self.span_dur.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_dur[idx] = time.perf_counter() - self.span_start[idx]
        self.stack.pop()

    def item(self, label: str | None):
        """Span of one work item; `label` is its reduction row, if any."""
        return _Span(self, label, "item")

    def step(self, name: str):
        """Span of one step of the current item."""
        return _Span(self, name, "step")

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        after = _AFTER.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = tracer._open(name)
                tracer.stack.pop()  # re-entered around each next() below
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        tracer.stack.append(idx)
                        t0 = time.perf_counter()
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer.span_dur[idx] += time.perf_counter() - t0
                            tracer.stack.pop()
                        yield value
                finally:
                    gen.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer._close(idx)
                tracer.counts[f"{name}.errors"] += 1
                raise
            tracer._close(idx)
            tracer.counts[f"{name}.calls"] += 1
            if after is not None:
                after(tracer.counts, args, result, tracer.span_dur[idx])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point and rebind it wherever it is held."""
        modules = {mod: importlib.import_module(f"mono3sat.{mod}")
                   for targets in LAYERS.values() for mod, _ in targets}
        holders = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "mono3sat"]
        for span_name, targets in LAYERS.items():
            for mod_name, fn_name in targets:
                original = getattr(modules[mod_name], fn_name)
                wrapped = self._wrap(original, span_name)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._saved.append((holder, attr, original))
                            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        n = len(self.span_dur)
        child = [0.0] * n
        parent, dur = self.span_parent, self.span_dur
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = defaultdict(float)
        names, span_name = self.names, self.span_name
        for i in range(n):
            out[names[span_name[i]]] += dur[i] - child[i]
        return out

    def row_split(self) -> dict[str, float]:
        """reductions.<RID>.<part> from the step spans of reduction items."""
        out = {f"reductions.{rid}.{part}": 0.0 for rid in ROWS for part in ROW_PARTS}
        step_part = {
            BUILD: "build_s", INPUT_ORACLE: "input_oracle_s",
            OUTPUT_DPLL: "output_dpll_s", PULL_BACK: "pull_back_s",
        }
        validate_id = self._name_ids.get("formulas.validate")
        build_step = self._step_ids.get(BUILD)
        for i in range(len(self.span_dur)):
            rid = self.labels[self.span_item[i]] if self.span_item[i] >= 0 else None
            if rid not in ROWS:
                continue
            name = self.names[self.span_name[i]]
            if name.startswith("bench.step."):
                part = step_part.get(name[len("bench.step."):])
                if part is not None:
                    out[f"reductions.{rid}.{part}"] += self.span_dur[i]
            elif self.span_name[i] == validate_id and self.span_step[i] == build_step:
                out[f"reductions.{rid}.validate_s"] += self.span_dur[i]
                out[f"reductions.{rid}.build_s"] -= self.span_dur[i]
        return out

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric, by the names in PER_LAYER."""
        selft = self.self_times()
        c = self.counts
        m: dict[str, float] = {}
        for layer in ("oracle.enum", "oracle.dpll", "formulas.validate", "formulas.evaluate",
                      "gadgets.build", "gadgets.verify", "dimacs.parse", "dimacs.emit",
                      "cli.main", "generate"):
            m[f"{layer}.calls"] = c[f"{layer}.calls"]
            m[f"{layer}.self_s"] = selft.get(layer, 0.0)
        m["oracle.enum.assignments"] = c["oracle.enum.assignments"]
        m["oracle.enum.assignments_per_s"] = _rate(c["oracle.enum.assignments"], m["oracle.enum.self_s"])
        for key in ("sat", "unsat", "clauses_in"):
            m[f"oracle.dpll.{key}"] = c[f"oracle.dpll.{key}"]
        m["oracle.dpll.clauses_per_s"] = _rate(c["oracle.dpll.clauses_in"], m["oracle.dpll.self_s"])
        m["oracle.dpll.max_call_ms"] = c["oracle.dpll.max_call_s"] * 1000.0
        m.update(self.row_split())
        m["reductions.apply_calls"] = c["reductions.apply.calls"]
        m["reductions.out_vars"] = c["reductions.out_vars"]
        m["reductions.out_clauses"] = c["reductions.out_clauses"]
        m["witnesses.search.self_s"] = selft.get("witnesses.search", 0.0)
        m["witnesses.search.candidates"] = c["witnesses.search.candidates"]
        m["witnesses.search.signatures"] = c["witnesses.signature.calls"]
        m["witnesses.search.dedup_ratio"] = _rate(
            c["witnesses.search.signature_candidates"], c["witnesses.signature.calls"]
        )
        m["witnesses.search.exhausted_max_n"] = c["witnesses.search.exhausted_max_n"]
        m["witnesses.signature.self_s"] = selft.get("witnesses.signature", 0.0)
        m["witnesses.hypergraphs.self_s"] = selft.get("witnesses.hypergraphs", 0.0)
        m["generate.errors"] = c["generate.errors"]
        m["dimacs.bytes"] = c["dimacs.bytes"]
        m["trace.overhead_frac"] = overhead_frac
        return {name: m[name] for name, _, _ in PER_LAYER}

    def work_counts(self) -> dict[str, float]:
        """The exact counters (no times) recorded so far."""
        keys = ("oracle.enum.calls", "oracle.enum.assignments", "oracle.dpll.calls",
                "oracle.dpll.clauses_in", "reductions.apply.calls", "reductions.out_vars",
                "reductions.out_clauses", "witnesses.search.candidates",
                "witnesses.signature.calls", "generate.calls", "dimacs.bytes")
        return {k: self.counts[k] for k in keys}

    def write_spans(self, path: str) -> int:
        """One JSON object per span; returns the number written."""
        t_base = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as fh:
            for i in range(len(self.span_dur)):
                item = self.span_item[i]
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.span_name[i]],
                    "parent": self.span_parent[i],
                    "item": item,
                    "label": self.labels[item] if item >= 0 else None,
                    "step": self.steps[self.span_step[i]],
                    "start_s": round(self.span_start[i] - t_base, 9),
                    "dur_s": round(self.span_dur[i], 9),
                }) + "\n")
        return len(self.span_dur)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# -- counters taken after each call of a layer ----------------------------


def exhaustive_assignments(inst, result) -> int:
    """Assignments an exhaustive verdict stands for (computed, not counted):
    2^n when unsat, else those up to and including the first model in index
    order."""
    if result.status == "unsat":
        return 1 << inst.num_vars
    return sum(1 << v for v, b in enumerate(result.model) if b) + 1


def _after_enum(c, args, result, dur):
    if hasattr(result, "status"):  # solve_exhaustive
        c["oracle.enum.assignments"] += exhaustive_assignments(args[0], result)
    else:  # check_extension_property: every boundary and auxiliary assignment
        gadget = args[0]
        c["oracle.enum.assignments"] += 1 << (len(set(gadget.boundary)) + len(gadget.aux))


def _after_dpll(c, args, result, dur):
    inst = args[0]
    c[f"oracle.dpll.{result.status}"] += 1
    c["oracle.dpll.clauses_in"] += inst.num_clauses * (2 if inst.mode == "nae" else 1)
    if dur > c["oracle.dpll.max_call_s"]:
        c["oracle.dpll.max_call_s"] = dur


def _after_apply(c, args, result, dur):
    c["reductions.out_vars"] += result.output.num_vars
    c["reductions.out_clauses"] += result.output.num_clauses


def _after_search(c, args, result, dur):
    profile = args[0]
    for rec in result.records:
        c["witnesses.search.candidates"] += rec["candidates"]
        if tuple(profile) == (2, 2):
            c["witnesses.search.signature_candidates"] += rec["candidates"]
        if rec.get("exhausted") and rec["n"] > c["witnesses.search.exhausted_max_n"]:
            c["witnesses.search.exhausted_max_n"] = rec["n"]


def _after_emit(c, args, result, dur):
    c["dimacs.bytes"] += len(result.encode())


def _after_parse(c, args, result, dur):
    c["dimacs.bytes"] += len(args[0].encode())


_AFTER = {
    "oracle.enum": _after_enum,
    "oracle.dpll": _after_dpll,
    "reductions.apply": _after_apply,
    "witnesses.search": _after_search,
    "dimacs.emit": _after_emit,
    "dimacs.parse": _after_parse,
}
