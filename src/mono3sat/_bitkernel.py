"""The enumeration kernel behind the exhaustive oracle.

Assignments over n variables are indexed 0..2^n-1; bit v of the index is the
value of variable v.  Formula truth tables are Python big integers over a
chunk of 2^w consecutive indices, so the per-assignment work happens inside
CPython's C loops.  Inside a chunk only the low variables, 0..w-1, vary; the
high ones are constant, and their values are the bits of the chunk index
(variable w + j is bit j).

The kernel decides sat-mode clauses only; nae clauses reach it through
`oracle.sat_codes`, which mirrors them once.  It has two entry points:

    solve(num_vars, clauses)                        -> model index or None
    accepted_patterns(num_aux, num_boundary, clauses) -> set of patterns

clauses are (pos_mask, neg_mask) pairs over local variable ids.  For
accepted_patterns the auxiliary variables occupy ids 0..num_aux-1 and the
boundary ids num_aux..num_aux+num_boundary-1, so the boundary variables are
the top bits of the chunk index and one boundary pattern is one subtree of
the walk below.

Each call splits every clause once into a low table, the OR of its low
literals' tables (a negated part is built as full ^ the AND of its
variables' tables), and a high part, the condition on the chunk index that
makes all of its high literals false.  Clauses with no high literal are
ANDed into one base table.  The chunks are then walked as a binary tree over
the chunk-index bits, most significant first and 0 before 1, so leaves come
in increasing chunk order.  A clause is filed under its lowest high
variable: at that depth every one of its high variables is fixed, and its
low table is ANDed into the running table exactly when the prefix makes all
of its high literals false.  A subtree whose running table is 0 holds no
model and is not entered; a leaf's running table is the chunk's truth table,
whose lowest set bit is its smallest model.

Chunks are 2^16 bits (8 KB), CHUNK_LOG.  Each AND costs time in proportion
to the chunk, each tree node a fixed Python overhead.  Over full sweeps of
unsatisfiable inputs at 21-26 variables, 2^18-bit chunks (table work on
subtrees that one more chunk bit would have pruned) and 2^14-bit ones (more
nodes) were slower, 2^15 to 2^17 tied within the noise of the measurement,
and 2^16 needs half the table memory of 2^17.
"""

from __future__ import annotations

from functools import cache

CHUNK_LOG = 16


@cache
def _var_patterns(width_log: int) -> list[int]:
    """Truth tables of variables 0..width_log-1 over a 2^width_log space,
    built once per width and shared by every later call."""
    width = 1 << width_log
    tables = []
    for i in range(width_log):
        period = 1 << (i + 1)
        t = ((1 << (1 << i)) - 1) << (1 << i)
        size = period
        while size < width:
            t |= t << size
            size <<= 1
        tables.append(t)
    return tables


def _first_models(
    clauses: list[tuple[int, int]], num_vars: int, width_log: int, group_log: int
) -> list[int]:
    """The smallest model index in each group of 2^group_log consecutive
    chunks of 2^width_log indices that has one, groups in increasing order."""
    full = (1 << (1 << width_log)) - 1
    tables = _var_patterns(width_log)
    depth = num_vars - width_log  # chunk-index bits

    base = full
    # filed[j]: (high mask, high negatives) -> AND of the low tables of the
    # clauses whose lowest high variable is chunk bit j
    filed: list[dict[tuple[int, int], int]] = [{} for _ in range(depth)]
    low_mask = (1 << width_log) - 1
    for pos, neg in clauses:
        if pos & neg:
            continue  # some variable in both polarities: always true
        table = 0
        falsified = full  # the AND of the tables of the low negated variables
        low = (pos | neg) & low_mask
        while low:
            bit = low & -low
            if pos & bit:
                table |= tables[bit.bit_length() - 1]
            else:
                falsified &= tables[bit.bit_length() - 1]
            low ^= bit
        if falsified != full:
            table |= full ^ falsified
        high = (pos | neg) >> width_log
        if not high:
            base &= table
            continue
        key = (high, neg >> width_log)
        level = filed[(high & -high).bit_length() - 1]
        level[key] = level.get(key, full) & table

    found: list[int] = []
    done = -1  # the last group with a model
    # (chunk-index prefix, bits left to assign, running table before the
    # clauses filed under the prefix's last bit); an explicit stack, so that
    # no frame or closure keeps a table alive past the call
    stack = [(0, depth, base)] if base else []
    while stack:
        prefix, left, acc = stack.pop()
        first = prefix << left
        if first >> group_log == done:
            continue
        if left < depth:
            for (mask, want), t in filed[left].items():
                if first & mask == want:
                    acc &= t
            if not acc:
                continue
        if left:
            stack.append(((prefix << 1) | 1, left - 1, acc))
            stack.append((prefix << 1, left - 1, acc))
        else:
            found.append((prefix << width_log) | ((acc & -acc).bit_length() - 1))
            done = prefix >> group_log
    return found


def solve(num_vars: int, clauses: list[tuple[int, int]]) -> int | None:
    width_log = min(num_vars, CHUNK_LOG)
    depth = num_vars - width_log
    found = _first_models(clauses, num_vars, width_log, depth)
    return found[0] if found else None


def accepted_patterns(
    num_aux: int, num_boundary: int, clauses: list[tuple[int, int]]
) -> set[int]:
    num_vars = num_aux + num_boundary
    width_log = min(num_aux, CHUNK_LOG)
    # a group of chunks is one boundary pattern
    found = _first_models(clauses, num_vars, width_log, num_aux - width_log)
    return {m >> num_aux for m in found}
