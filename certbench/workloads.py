"""The three workloads: seeded inputs (set-up) and the work items they run.

Set-up generates one pass of items; a run repeats the pass.  Item inputs
come from the run's seed plus a stable per-row value (`zlib.crc32`), never
from `hash()`, so they do not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import zlib
from dataclasses import dataclass, field

from mono3sat import cli, gadgets, generate, oracle, reductions, witnesses
from mono3sat.formulas import SAT, Clause, CnfInstance, Literal

import verdicts
from tracing import BUILD, INPUT_ORACLE, OUTPUT_DPLL, PULL_BACK, ROWS, exhaustive_assignments

WORKLOADS = ("equisat", "refute", "search")

# Seconds allowed to every DPLL call; running out is an indeterminate
# verdict, which counts as a failure.
TIMEOUT_S = 30.0

# Rounds in one pass.  An equisat round is one item per row; 12 rounds cover
# every size grid below a whole number of times and put 12 R1 items, the
# slowest, above the tail percentile's cut.
PASS_ROUNDS = {"equisat": 12, "refute": 2}

# refute: sizes of the disjoint unions, all under the enumeration cap of 26
REFUTE_SIZES = range(21, 27)
REFUTE_BASES = ("nine_var", "ss_bar")
# witness -> the reductions its CLI pipeline runs, with k where needed
PIPELINES = (
    ("mon51", "R8", 5), ("hitting27", "R8", 9),
    ("nine_var", "R6", 3), ("nine_var", "R9", None),
    ("ss_bar", "R6", 3), ("ss_bar", "R9", None),
)

# search: one (2,2) sweep per pass, then sampling at the counting bounds' sizes
SEARCH_22_BUDGET = 5_000
SEARCH_22_MAX_N = 9
SAMPLING = (((4, 1), 21, 60), ((3, 1), 27, 30))  # profile, n, calls per pass
SAMPLES_PER_CALL = 10  # search_unsat samples max_candidates // 4 per size


@dataclass
class Item:
    kind: str  # "reduction" | "gadgets" | "pipeline" | "search"
    label: str | None  # reduction row, for the per-row split
    args: tuple


@dataclass
class Outcome:
    verdicts: int
    failed: int
    reason: str | None = None
    counts: dict = field(default_factory=dict)


@dataclass
class Prepared:
    workload: str
    items: list[Item]  # one pass
    digest: str
    inputs: int
    workdir: str


def stable_rng(seed: int, key: str) -> random.Random:
    return random.Random((seed << 32) ^ zlib.crc32(key.encode()))


def dimacs_text(inst: CnfInstance) -> str:
    """Annotated DIMACS written by the benchmark itself, literals in order."""
    dup = "allowed" if any(c.multiset for c in inst.clauses) else "forbidden"
    lines = [f"c mode {inst.mode}", f"c duplicates {dup}",
             f"p cnf {inst.num_vars} {len(inst.clauses)}"]
    for c in inst.clauses:
        lines.append(" ".join(str(-(l.var + 1) if l.neg else l.var + 1) for l in c.literals) + " 0")
    return "\n".join(lines) + "\n"


def _generated(make, rng):
    """Retry a generator that may reject its random draw."""
    for _ in range(50):
        try:
            return make(rng)
        except generate.GenerationError:
            continue
    raise RuntimeError("input generation kept failing")


def _cycle(r: int, *axes):
    grid = list(itertools.product(*axes))
    return grid[r % len(grid)]


def _equisat_input(rid: str, r: int, rng: random.Random):
    """Round r's input for one row; sizes cycle through a fixed grid so that
    every seed sees the same size mix, and only the clauses are random."""
    G = generate
    if rid == "R1":
        n, m = _cycle(r, (5, 6, 7), (3, 4, 5, 6))
        return G.random_monotone_nae(n, m, rng), None
    if rid == "R2":
        n, m = _cycle(r, (2, 3, 4, 5), (2, 4, 6))
        return G.random_nae_star(n, m, rng), None
    if rid == "R3":
        (n,) = _cycle(r, (6, 9))
        return G.random_nae_e4(n, rng), None
    if rid == "R4":
        return reductions.apply_reduction("R3", G.random_nae_e4(6, rng)).output, None
    if rid in ("R5", "R7", "R11", "R13"):
        (n,) = _cycle(r, (3, 6))
        return G.random_22(n, rng), None
    if rid == "R6":
        (k,) = _cycle(r, (1, 2, 3))
        return G.random_kk(6, k, rng), k
    if rid == "R8":
        n, k = _cycle(r, (6, 9), (1, 2, 3))
        return G.random_k1(n, k, rng), k
    if rid == "R9":
        return G.random_kk(6, 3, rng), None
    if rid == "R12":
        (n,) = _cycle(r, (6, 9))
        return G.random_32(n, rng), None
    if rid == "R14":
        return reductions.apply_reduction("R13", G.random_22(3, rng)).output, None
    raise KeyError(rid)


def _disjoint_union(base: CnfInstance, n: int, rng: random.Random) -> CnfInstance:
    """base plus a random Monotone 3-Sat-(3,3) part up to n variables, with a
    random relabelling of all variables and a random clause order."""
    extra = _generated(lambda g: generate.random_kk(n - base.num_vars, 3, g), rng)
    shift = base.num_vars
    perm = list(range(n))
    rng.shuffle(perm)
    lits = [c.literals for c in base.clauses]
    lits += [tuple(Literal(l.var + shift, l.neg) for l in c.literals) for c in extra.clauses]
    clauses = [Clause(tuple(Literal(perm[l.var], l.neg) for l in ls)) for ls in lits]
    rng.shuffle(clauses)
    return CnfInstance(n, tuple(clauses), SAT)


def prepare(workload: str, seed: int, workdir: str) -> Prepared:
    """Set-up: generate one pass of items, write their inputs as DIMACS files,
    hash them, and fill the kernel's truth-table cache for their sizes."""
    inputs_dir = os.path.join(workdir, "inputs")
    os.makedirs(inputs_dir, exist_ok=True)
    os.makedirs(os.path.join(workdir, "cli"), exist_ok=True)
    digest = hashlib.sha256()
    items: list[Item] = []
    instances: list[CnfInstance] = []

    if workload == "equisat":
        rngs = {rid: stable_rng(seed, f"equisat:{rid}") for rid in ROWS}
        for r in range(PASS_ROUNDS["equisat"]):
            for rid in ROWS:
                inst, k = _generated(lambda g: _equisat_input(rid, r, g), rngs[rid])
                instances.append(inst)
                items.append(Item("reduction", rid, (rid, inst, k)))
    elif workload == "refute":
        bases = {name: witnesses.known_unsat(name) for name in REFUTE_BASES}
        rng = stable_rng(seed, "refute")
        for _ in range(PASS_ROUNDS["refute"]):
            for name in REFUTE_BASES:
                for n in REFUTE_SIZES:
                    inst = _disjoint_union(bases[name], n, rng)
                    instances.append(inst)
                    items.append(Item("reduction", "R6", ("R6", inst, 3)))
                    items.append(Item("reduction", "R9", ("R9", inst, None)))
            items.append(Item("gadgets", None, ()))
            items += [Item("pipeline", None, p) for p in PIPELINES]
        rng.shuffle(items)
    elif workload == "search":
        items.append(Item("search", None, ((2, 2), SEARCH_22_MAX_N, SEARCH_22_BUDGET, 0)))
        for profile, n, calls in SAMPLING:
            for j in range(calls):
                s = stable_rng(seed, f"search:{profile}:{j}").getrandbits(32)
                items.append(Item("search", None, (profile, n, 4 * SAMPLES_PER_CALL, s)))
        for item in items:
            digest.update(json.dumps(item.args).encode())
    else:
        raise KeyError(f"unknown workload {workload!r}")

    for i, inst in enumerate(instances):
        text = dimacs_text(inst)
        digest.update(text.encode())
        with open(os.path.join(inputs_dir, f"{i:05d}.cnf"), "w") as fh:
            fh.write(text)
    cap = oracle.enum_cap()
    for n in sorted({inst.num_vars for inst in instances if inst.num_vars <= cap}):
        oracle.solve_exhaustive(CnfInstance(n, ()))
    return Prepared(workload, items, digest.hexdigest(), len(instances), workdir)


# ---------------------------------------------------------------------------
# Items
#
# An item runs in two parts: `run_item` makes the library calls, which are
# timed, and returns a judge; the judge checks the verdicts and counts the
# work after the clock has stopped, so the benchmark's own checks are not
# part of an item's time.


def run_item(prep: Prepared, item: Item, tr):
    """Make the item's library calls; returns a function giving its Outcome."""
    if item.kind == "reduction":
        return _run_reduction(prep.workload, item, tr)
    if item.kind == "gadgets":
        return _run_gadgets(tr)
    if item.kind == "pipeline":
        return _run_pipeline(prep.workdir, item, tr)
    return _run_search(item, tr)


def _run_reduction(workload: str, item: Item, tr):
    rid, inst, k = item.args
    with tr.step(BUILD):
        cert = reductions.apply_reduction(rid, inst, k=k)
    with tr.step(INPUT_ORACLE):
        left = oracle.solve_auto(inst, timeout=TIMEOUT_S)
    with tr.step(OUTPUT_DPLL):
        right = oracle.solve_dpll(cert.output, timeout=TIMEOUT_S)
    back = None
    if right.status == "sat":
        with tr.step(PULL_BACK):
            back = reductions.pull_back(cert, right.model)

    def judge() -> Outcome:
        reason = verdicts.check_reduction(workload, inst, cert.output, left, right, back)
        counts = {
            "items": 1, "sat": int(right.status == "sat"), "unsat": int(right.status == "unsat"),
            "out_vars": cert.output.num_vars, "out_clauses": cert.output.num_clauses,
        }
        if inst.num_vars <= oracle.enum_cap() and left.status in ("sat", "unsat"):
            counts["assignments"] = exhaustive_assignments(inst, left)
        return Outcome(1, int(reason is not None), reason, counts)

    return judge


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def _run_gadgets(tr):
    with tr.step("cli.gadgets"):
        code, out = _cli(["gadgets", "verify", "ALL", "--json"])

    def judge() -> Outcome:
        report = json.loads(out) if code == 0 else {}
        reason = verdicts.check_gadgets(code, report, len(gadgets.GADGET_NAMES))
        return Outcome(1, int(reason is not None), reason, {"items": 1})

    return judge


def _run_pipeline(workdir: str, item: Item, tr):
    name, rid, k = item.args
    wpath = os.path.join(workdir, "cli", f"{name}.cnf")
    opath = os.path.join(workdir, "cli", f"{name}.{rid}.cnf")
    with tr.step("cli.witness"):
        c1, _ = _cli(["witness", name, "-o", wpath])
    reduce_argv = ["reduce", "--id", rid, "--in", wpath, "--out", opath, "--json"]
    with tr.step("cli.reduce"):
        c2, out2 = _cli(reduce_argv + ([] if k is None else ["--k", str(k)]))
    with tr.step("cli.solve"):
        c3, out3 = _cli(["solve", "--json", "--timeout", str(TIMEOUT_S), opath])

    def judge() -> Outcome:
        status = json.loads(out3)["status"] if c3 == 0 else None
        reason = verdicts.check_pipeline([c1, c2, c3], status)
        counts = {"items": 1, "unsat": int(status == "unsat"), "sat": int(status == "sat")}
        if c2 == 0:
            rep = json.loads(out2)
            counts["out_vars"] = rep["output_vars"]
            counts["out_clauses"] = rep["output_clauses"]
        return Outcome(1, int(reason is not None), reason, counts)

    return judge


def search_verdicts(item: Item) -> int:
    """Candidates a search item decides when it runs as specified."""
    profile, _, budget, _ = item.args
    return budget if tuple(profile) == (2, 2) else budget // 4


def _run_search(item: Item, tr):
    profile, max_n, budget, seed = item.args
    with tr.step("search"):
        outcome = witnesses.search_unsat(
            tuple(profile),
            witnesses.SearchBudget(max_n=max_n, max_candidates=budget, seed=seed,
                                   time_limit=6 * TIMEOUT_S),
        )

    def judge() -> Outcome:
        if tuple(profile) == (2, 2):
            reason = verdicts.check_search(profile, outcome.records, outcome.found, budget)
        else:
            reason = verdicts.check_search(profile, outcome.records, outcome.found, budget,
                                           sample_n=max_n, per_n=budget // 4)
        candidates = sum(rec["candidates"] for rec in outcome.records)
        counts = {"items": 1, "candidates": candidates,
                  "records": [[profile, rec["n"], rec["candidates"], bool(rec["exhausted"])]
                              for rec in outcome.records]}
        if reason is None:
            return Outcome(candidates, 0, None, counts)
        # A wrong search may decide fewer candidates than specified, even none
        # (a generator that always fails, an empty enumeration, the deadline):
        # every candidate it should have decided counts as failed.
        n = max(candidates, search_verdicts(item))
        return Outcome(n, n, reason, counts)

    return judge
