"""The verdict gate: what each workload expects, and the checks against it.

Every check returns None when the verdict is right and a one-line reason
when it is not.  Models are re-evaluated here with an evaluator of the
benchmark's own, so a wrong model cannot pass through the library's
evaluator twice.  The expectations are module-level data so a test can
replace one with a deliberately wrong value.
"""

from __future__ import annotations

# Expected status of both sides of a certified reduction.  None: the two
# sides must agree (equisatisfiability); a status: both sides must have it.
EXPECTED_STATUS = {"equisat": None, "refute": "unsat"}

# Every CLI command exits 0; the solve step of a witness pipeline says this.
EXPECTED_CLI_EXIT = 0
EXPECTED_CLI_STATUS = "unsat"

# (2,2) search: n -> (exhausted, candidates) for the sizes it must finish.
# n = 3 admits no instance; n = 6 has 819 candidates modulo the canonical form.
EXPECTED_SEARCH_22 = {3: (True, 0), 6: (True, 819)}


def satisfies(inst, model) -> bool:
    """Own evaluation of `model` (a bool sequence) on a sat or nae instance."""
    if model is None or len(model) != inst.num_vars:
        return False
    nae = inst.mode == "nae"
    for c in inst.clauses:
        values = [bool(model[lit.var]) != lit.neg for lit in c.literals]
        if not any(values) or (nae and all(values)):
            return False
    return True


def check_reduction(workload, inst, out, left, right, back) -> str | None:
    """Input verdict `left`, output verdict `right`, pulled-back model `back`."""
    for side, res in (("input", left), ("output", right)):
        if res.status not in ("sat", "unsat"):
            return f"{side} oracle returned {res.status}"
    expected = EXPECTED_STATUS[workload]
    if expected is None:
        if left.status != right.status:
            return f"input is {left.status} but output is {right.status}"
    elif (left.status, right.status) != (expected, expected):
        return f"expected both sides {expected}, got input {left.status}, output {right.status}"
    if left.status == "sat" and not satisfies(inst, left.model):
        return "input model does not satisfy the input"
    if right.status == "sat":
        if not satisfies(out, right.model):
            return "output model does not satisfy the output"
        if not satisfies(inst, back):
            return "pulled-back model does not satisfy the input"
    return None


def check_gadgets(code: int, report: dict, kinds: int) -> str | None:
    """`gadgets verify ALL --json`: exit code and one passing row per kind."""
    if code != EXPECTED_CLI_EXIT:
        return f"gadgets verify exited {code}"
    results = report.get("results", [])
    if not report.get("ok") or len(results) != kinds or not all(r["ok"] for r in results):
        failed = [r["kind"] for r in results if not r["ok"]]
        return f"gadgets verify: {len(results)} of {kinds} rows, failed {failed}"
    return None


def check_pipeline(codes: list[int], status: str | None) -> str | None:
    """witness -> reduce -> solve --json: every exit code and the final status."""
    if any(code != EXPECTED_CLI_EXIT for code in codes):
        return f"exit codes {codes}"
    if status != EXPECTED_CLI_STATUS:
        return f"solve reported {status}, expected {EXPECTED_CLI_STATUS}"
    return None


def check_search(profile, records: list[dict], found, budget: int,
                 sample_n: int | None = None, per_n: int | None = None) -> str | None:
    """An unsat search: no find, and the records it must report.

    (2,2): the sizes in EXPECTED_SEARCH_22 exhausted with their counts, the
    rest of the budget spent on the next size, which is not exhausted.
    Sampling: `per_n` candidates at `sample_n`, not exhausted.
    """
    if found is not None:
        return f"search {profile} reported an unsatisfiable instance"
    got = {rec["n"]: (bool(rec["exhausted"]), rec["candidates"]) for rec in records}
    if tuple(profile) == (2, 2):
        for n, want in EXPECTED_SEARCH_22.items():
            if got.get(n) != want:
                return f"(2,2) at n={n}: got {got.get(n)}, expected {want}"
        rest = {n: v for n, v in got.items() if n not in EXPECTED_SEARCH_22}
        spent = budget - sum(c for _, c in EXPECTED_SEARCH_22.values())
        if list(rest.values()) != [(False, spent)]:
            return f"(2,2) beyond the exhausted sizes: got {rest}, expected one truncated size with {spent}"
        return None
    if got != {sample_n: (False, per_n)}:
        return f"{profile} sampling: got {got}, expected {per_n} candidates at n={sample_n}"
    return None
