"""Command-line front end.

Exit codes: 0 pass / decided, 1 fail / violation / indeterminate / bad
input, 2 usage error, which includes a --timeout that is not an ASCII
decimal number of seconds (NaN, inf, a sign or an exponent), a --max-n,
--max-candidates or reduce --k that is not a non-negative ASCII integer, a
--seed or --profile number that is not an ASCII integer, and a --variant
string whose segments conflict.  Integers are read by one rule,
`formulas.ASCII_INT`, which refuses the `+`, `_` and non-ASCII digits that
int() takes.  Bad input (malformed or undecodable DIMACS, a file that
cannot be read or written) is reported as `error: ...` on stderr, never as
a traceback.  A stdout pipe closed by its reader (`mono3sat gadgets list
--json | head -1`) ends the command with exit 1 and no traceback.  --json
emits one machine-readable report object on stdout (schema
"mono3sat-report/1").
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import __version__, dimacs, gadgets, oracle, reductions, witnesses
from .formulas import (
    ASCII_INT,
    MONOTONE_NAE,
    MONOTONE_SAT,
    CnfInstance,
    VariantSpec,
    total,
    validate,
)

SCHEMA = "mono3sat-report/1"


class VariantSyntaxError(ValueError):
    pass


def parse_variant(text: str) -> VariantSpec:
    """Grammar: dash-separated segments, e.g. mono-sat-p3q3, mono-nae-e4,
    mono-nae-e4-linear, e4-choice-31-13, mono-sat-p2q2-star.

    Each profile segment (pPqQ, eK, choice-PQ-...) is a set of allowed
    (p, q) pairs, and the spec allows their intersection; an empty one is
    a syntax error.  So is a second mono or linearity segment that differs
    from the first (mono-sat-mono-nae, exact-linear-linear); a repeat is
    allowed.  P, Q and K have at most three digits."""

    def once(old, new, what):
        if old not in (None, new):
            raise VariantSyntaxError(f"{text!r} sets {what} twice: {old} and {new}")
        return new

    tokens = text.strip().lower().split("-")
    monotone = None
    profile = None
    linear = None
    duplicates = False
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        allowed = None
        if tok == "any":
            i += 1
        elif tok == "mono":
            if i + 1 >= len(tokens) or tokens[i + 1] not in ("sat", "nae"):
                raise VariantSyntaxError("'mono' must be followed by 'sat' or 'nae'")
            mode = MONOTONE_SAT if tokens[i + 1] == "sat" else MONOTONE_NAE
            monotone = once(monotone, mode, "mono")
            i += 2
        elif m := re.fullmatch(r"p([0-9]{1,3})q([0-9]{1,3})", tok):
            allowed = frozenset({(int(m[1]), int(m[2]))})
            i += 1
        elif re.fullmatch(r"e[0-9]{1,3}", tok):  # total(k) holds k + 1 pairs
            allowed = total(int(tok[1:]))
            i += 1
        elif tok == "choice":
            pairs = []
            i += 1
            while i < len(tokens) and re.fullmatch(r"[0-9][0-9]", tokens[i]):
                pairs.append((int(tokens[i][0]), int(tokens[i][1])))
                i += 1
            if not pairs:
                raise VariantSyntaxError("'choice' needs at least one PQ pair")
            allowed = frozenset(pairs)
        elif tok == "exact":
            if i + 1 >= len(tokens) or tokens[i + 1] != "linear":
                raise VariantSyntaxError("'exact' must be followed by 'linear'")
            linear = once(linear, "exact", "linearity")
            i += 2
        elif tok == "linear":
            linear = once(linear, "linear", "linearity")
            i += 1
        elif tok == "star":
            duplicates = True
            i += 1
        else:
            raise VariantSyntaxError(f"unknown variant segment {tok!r}")
        if allowed is not None:
            profile = allowed if profile is None else profile & allowed
            if not profile:
                raise VariantSyntaxError(f"the profile segments of {text!r} allow no (p, q)")
    return VariantSpec(duplicates=duplicates, monotone=monotone, profile=profile, linear=linear)


def _seconds(text: str) -> float:
    """A --timeout value: an ASCII decimal number of seconds, such as 30,
    0.5 or .5; no sign, exponent, nan or inf, and none of the `_`
    separators and non-ASCII digits that float() would take."""
    if not re.fullmatch(r"[0-9]+(\.[0-9]*)?|\.[0-9]+", text):
        raise argparse.ArgumentTypeError(f"want a number of seconds >= 0, got {text!r}")
    return float(text)


def _count(text: str) -> int:
    """A --max-n, --max-candidates or --k value: an ASCII integer, at
    least 0."""
    value = int(text) if ASCII_INT.fullmatch(text) else -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"want an integer >= 0, got {text!r}")
    return value


def _integer(text: str) -> int:
    """A --seed value: an ASCII integer."""
    if not ASCII_INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"want an integer, got {text!r}")
    return int(text)


def _load(path: str) -> CnfInstance:
    with open(path) as fh:
        return dimacs.parse_dimacs(fh.read())


def _emit_json(payload: dict):
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2, default=str))


def _cmd_check(args) -> int:
    inst = _load(args.file)
    try:
        spec = parse_variant(args.variant)
    except VariantSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = validate(inst, spec)
    if args.json:
        _emit_json({"command": "check", "variant": args.variant, **rep.as_dict()})
    else:
        print(f"{'PASS' if rep.ok else 'FAIL'} {args.file} vs {args.variant}"
              + ("" if rep.ok else f": {rep.reason}"))
    return 0 if rep.ok else 1


def _cmd_solve(args) -> int:
    inst = _load(args.file)
    t0 = time.perf_counter()
    if args.engine == "exhaustive":
        res = oracle.solve_exhaustive(inst)
    elif args.engine == "dpll":
        res = oracle.solve_dpll(inst, timeout=args.timeout)
    else:
        res = oracle.solve_auto(inst, timeout=args.timeout)
    elapsed = time.perf_counter() - t0
    if args.json:
        _emit_json({
            "command": "solve",
            "engine": args.engine,
            "status": res.status,
            "model": None if res.model is None else [bool(b) for b in res.model],
            "seconds": elapsed,
        })
    else:
        print(res.status.upper())
        if res.model is not None and args.model:
            print(" ".join(
                str(v + 1 if b else -(v + 1)) for v, b in enumerate(res.model)
            ) + " 0")
    return 0 if res.status in ("sat", "unsat") else 1


def _cmd_reduce(args) -> int:
    if args.id not in reductions.REDUCTIONS:
        print(f"error: unknown reduction {args.id!r}", file=sys.stderr)
        return 2
    inst = _load(getattr(args, "in"))
    param = _load(args.param) if args.param else None
    try:
        cert = reductions.apply_reduction(args.id, inst, k=args.k, param=param)
    except reductions.ReductionInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_text = dimacs.emit_dimacs(cert.output)
    with open(args.out, "w") as fh:
        fh.write(out_text)
    if args.cert:
        with open(args.cert, "w") as fh:
            json.dump({
                "schema": SCHEMA,
                "reduction": args.id,
                "input_vars": inst.num_vars,
                "input_clauses": inst.num_clauses,
                "output_vars": cert.output.num_vars,
                "output_clauses": cert.output.num_clauses,
                "back_map": {
                    str(o): [i, neg] for o, (i, neg) in sorted(cert.back_map.items())
                },
                "gadget_log": [
                    {"kind": e.label, "boundary": list(e.boundary), "aux": list(e.aux)}
                    for e in cert.gadget_log
                ],
            }, fh, indent=2)
    if args.json:
        _emit_json({
            "command": "reduce", "id": args.id,
            "output_vars": cert.output.num_vars,
            "output_clauses": cert.output.num_clauses,
        })
    else:
        print(f"{args.id}: {inst.num_vars} vars / {inst.num_clauses} clauses -> "
              f"{cert.output.num_vars} vars / {cert.output.num_clauses} clauses")
    return 0


def _cmd_gadgets(args) -> int:
    if args.action == "list":
        rows = []
        for name in gadgets.GADGET_NAMES:
            row = gadgets.CATALOGUE[name]
            rows.append({
                "kind": name, "boundary": len(row.slots), "aux": row.num_aux,
                "clauses": row.num_clauses, "mode": row.mode,
                "verification": "compositional" if row.parts else "enumeration",
            })
        if args.json:
            _emit_json({"command": "gadgets-list", "gadgets": rows})
        else:
            for r in rows:
                print(f"{r['kind']:12s} boundary={r['boundary']} aux={r['aux']:2d} "
                      f"clauses={r['clauses']:2d} mode={r['mode']} ({r['verification']})")
        return 0
    kinds = list(gadgets.GADGET_NAMES) if args.kind.upper() == "ALL" else [args.kind.upper()]
    for kind in kinds:
        if kind not in gadgets.CATALOGUE:
            print(f"error: unknown gadget {kind!r}", file=sys.stderr)
            return 2
    results = []
    ok = True
    for kind in kinds:
        rep = gadgets.verify_gadget(kind)
        ok &= rep.ok
        results.append({"kind": kind, **rep.as_dict()})
        if not args.json:
            print(f"{kind:12s} {'pass' if rep.ok else 'FAIL: ' + rep.reason}")
    if args.json:
        _emit_json({"command": "gadgets-verify", "ok": ok, "results": results})
    return 0 if ok else 1


def _cmd_witness(args) -> int:
    try:
        inst = witnesses.known_unsat(args.name)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = dimacs.emit_dimacs(inst)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_search(args) -> int:
    fields = args.profile.split(",")
    if len(fields) != 2 or not all(map(ASCII_INT.fullmatch, fields)):
        print("error: --profile wants P,Q like 2,2", file=sys.stderr)
        return 2
    p, q = map(int, fields)
    if (p, q) not in witnesses.SEARCH_PROFILES:
        print(f"error: unsupported profile ({p},{q})", file=sys.stderr)
        return 2
    budget = witnesses.SearchBudget(
        max_n=args.max_n,
        max_candidates=args.max_candidates,
        seed=args.seed,
        time_limit=args.timeout,
    )
    journal_fh = open(args.journal, "w") if args.journal else None

    def journal(event: dict):
        line = json.dumps({"t": round(time.time(), 3), **event})
        if journal_fh:
            journal_fh.write(line + "\n")
            journal_fh.flush()
        elif not args.json:
            print(line, file=sys.stderr)

    try:
        outcome = witnesses.search_unsat((p, q), budget, journal=journal)
    finally:
        if journal_fh:
            journal_fh.close()
    if args.json:
        _emit_json({"command": "search-unsat", **outcome.as_dict()})
    else:
        for rec in outcome.records:
            print(f"n={rec['n']}: {rec['candidates']} candidates checked, "
                  f"{rec['dpll']} by DPLL ({rec['ended']})")
        if outcome.found is not None:
            print(f"FOUND unsatisfiable ({p},{q}) instance with "
                  f"{outcome.found.num_vars} variables")
            sys.stdout.write(dimacs.emit_dimacs(outcome.found))
        else:
            print(f"no unsatisfiable ({p},{q}) instance found in the searched range")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mono3sat",
        description="Gadget constructions, reductions and exhaustive "
        "certification for restricted 3-SAT / NAE-3-SAT variants.",
    )
    p.add_argument("--version", action="version", version=f"mono3sat {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate a formula against a variant spec")
    c.add_argument("--variant", required=True, help="e.g. mono-sat-p3q3, mono-nae-e4-linear")
    c.add_argument("--json", action="store_true")
    c.add_argument("file")
    c.set_defaults(fn=_cmd_check)

    s = sub.add_parser("solve", help="decide satisfiability")
    s.add_argument("--engine", choices=("auto", "exhaustive", "dpll"), default="auto")
    s.add_argument("--timeout", type=_seconds, default=None, help="DPLL seconds budget")
    s.add_argument("--model", action="store_true", help="print a model when sat")
    s.add_argument("--json", action="store_true")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_solve)

    r = sub.add_parser("reduce", help="apply a catalogued reduction")
    r.add_argument("--id", required=True, help="R1..R14")
    r.add_argument("--in", required=True, help="input DIMACS file")
    r.add_argument("--out", required=True, help="output DIMACS file")
    r.add_argument("--cert", help="write the JSON certificate here")
    r.add_argument("--k", type=_count, help="appearance parameter for R6/R8")
    r.add_argument("--param", help="unsat (2,2) parameter instance for R10")
    r.add_argument("--json", action="store_true")
    r.set_defaults(fn=_cmd_reduce)

    g = sub.add_parser("gadgets", help="list or verify the gadget catalogue")
    gsub = g.add_subparsers(dest="action", required=True)
    gl = gsub.add_parser("list")
    gl.add_argument("--json", action="store_true")
    gl.set_defaults(fn=_cmd_gadgets, action="list")
    gv = gsub.add_parser("verify")
    gv.add_argument("kind", help="a gadget kind or ALL")
    gv.add_argument("--json", action="store_true")
    gv.set_defaults(fn=_cmd_gadgets, action="verify")

    w = sub.add_parser("witness", help="emit a known unsatisfiable instance")
    w.add_argument("name", help="|".join(witnesses.WITNESS_NAMES))
    w.add_argument("-o", "--output")
    w.set_defaults(fn=_cmd_witness)

    u = sub.add_parser("search-unsat", help="search for an unsatisfiable instance")
    u.add_argument("--profile", required=True, help="P,Q e.g. 2,2")
    u.add_argument("--max-n", type=_count, default=9)
    u.add_argument("--seed", type=_integer, default=0)
    u.add_argument("--timeout", type=_seconds, default=None)
    u.add_argument("--max-candidates", type=_count, default=100_000)
    u.add_argument("--journal", help="JSONL progress file")
    u.add_argument("--json", action="store_true")
    u.set_defaults(fn=_cmd_search)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); keep the exit-time flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (
        dimacs.DimacsError,
        OSError,
        UnicodeDecodeError,
        oracle.CapExceededError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
