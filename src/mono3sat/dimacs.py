"""Annotated DIMACS CNF: standard body plus comment headers carrying the
satisfaction mode and the repeated-variable policy.

    c mode sat|nae
    c duplicates allowed|forbidden
    p cnf <num_vars> <num_clauses>
    <literals> 0

Variables are 1-based on the wire and dense 0-based in memory.  Every 0
ends a clause, so a clause may span lines and a line may hold several.
Reading stops at a line that is exactly `%`, which SATLIB files end with.
Literals and the header's counts are ASCII integers of at most 20
digits, `formulas.ASCII_INT`: no `+` sign, no `_` separator and no
non-ASCII digit, all of which Python's `int` would take.
A header may declare at most MAX_VARS variables.  Each annotation holds for
the whole file, wherever it stands: only under `c duplicates allowed` may a
clause repeat a variable, and `emit_dimacs` writes that line exactly when
one does.  Any other `c` line is a comment and is ignored.
"""

from __future__ import annotations

from .formulas import ASCII_INT, NAE, SAT, CnfInstance

# far above the largest instance the library builds; a bigger header is
# refused before a solver sizes anything by it
MAX_VARS = 1 << 20


class DimacsError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def parse_dimacs(text: str) -> CnfInstance:
    mode = SAT
    duplicates = False
    num_vars = None
    num_clauses = None
    clauses: list[tuple[int, ...]] = []  # literal codes
    pending: list[int] = []  # the open clause's DIMACS literals
    first_repeat = None  # line of the first clause that repeats a variable
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line == "%":
            break  # SATLIB trailer: "%" then a lone "0"
        if not line:
            continue
        if line.startswith("c"):
            fields = line[1:].split()
            if fields[:1] == ["mode"] and len(fields) == 2:
                if fields[1] not in (SAT, NAE):
                    raise DimacsError(f"unknown mode {fields[1]!r}", lineno)
                mode = fields[1]
            elif fields[:1] == ["duplicates"] and len(fields) == 2:
                if fields[1] not in ("allowed", "forbidden"):
                    raise DimacsError(
                        f"unknown duplicates policy {fields[1]!r}", lineno
                    )
                duplicates = fields[1] == "allowed"
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("second 'p cnf' header", lineno)
            fields = line.split()
            if (len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf"
                    or not all(map(ASCII_INT.fullmatch, fields[2:]))):
                raise DimacsError(f"bad problem line {line!r}", lineno)
            num_vars = int(fields[2])
            num_clauses = int(fields[3])
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"negative count in {line!r}", lineno)
            if num_vars > MAX_VARS:
                raise DimacsError(
                    f"header declares {num_vars} variables, more than {MAX_VARS}", lineno
                )
            continue
        if num_vars is None:
            raise DimacsError("clause before 'p cnf' header", lineno)
        toks = line.split()
        if not all(map(ASCII_INT.fullmatch, toks)):
            raise DimacsError(f"non-integer token in {line!r}", lineno)
        for x in map(int, toks):
            if x:
                pending.append(x)
                continue
            if any(abs(y) > num_vars for y in pending):
                raise DimacsError("literal out of declared range", lineno)
            c = tuple([(abs(y) - 1) << 1 | (y < 0) for y in pending])
            pending = []
            if first_repeat is None and len({y >> 1 for y in c}) != len(c):
                first_repeat = lineno
            clauses.append(c)
    if first_repeat is not None and not duplicates:
        raise DimacsError(
            "repeated variable in clause (no 'c duplicates allowed')", first_repeat
        )
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("final clause not terminated by 0")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise DimacsError(
            f"header declares {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfInstance.from_codes(num_vars, clauses, mode)


def emit_dimacs(inst: CnfInstance) -> str:
    """Canonical text: sorted literals per clause (a repeated variable keeps
    its multiplicity), annotations first, `c duplicates allowed` exactly when
    some clause repeats a variable.  parse(emit(x)) == x structurally."""
    lines = [
        f"c mode {inst.mode}",
        f"c duplicates {'allowed' if inst.has_multiset_clauses() else 'forbidden'}",
        f"p cnf {inst.num_vars} {inst.num_clauses}",
    ]
    for c in inst.codes:
        # by variable, negative literal first: the codes sorted with the sign bit flipped
        nums = [
            -(x >> 1) - 1 if x & 1 else (x >> 1) + 1
            for x in sorted(c, key=lambda x: x ^ 1)
        ]
        lines.append(" ".join(map(str, nums)) + " 0")
    return "\n".join(lines) + "\n"
