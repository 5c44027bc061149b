"""The enumeration kernel behind the exhaustive oracle.

Assignments over n variables are indexed 0..2^n-1; bit v of the index is the
value of variable v.  Formula truth tables are built chunk-wise as Python
big integers, so the per-assignment work happens inside CPython's C loops.

The kernel decides sat-mode clauses only; nae clauses reach it through
`oracle.sat_codes`, which mirrors them once.  It has two entry points:

    solve(num_vars, clauses)                        -> model index or None
    accepted_patterns(num_aux, num_boundary, clauses) -> set of patterns

clauses are (pos_mask, neg_mask) pairs over local variable ids.  For
accepted_patterns the auxiliary variables occupy ids 0..num_aux-1 and the
boundary ids num_aux..num_aux+num_boundary-1, so assignments with one
boundary pattern form one contiguous range of chunks.
"""

from __future__ import annotations

CHUNK_LOG = 18  # 2^18-bit chunks: large enough to amortize Python overhead

_pattern_cache: dict[int, list[int]] = {}


def _var_patterns(width_log: int) -> list[int]:
    """Truth tables of variables 0..width_log-1 over a 2^width_log space."""
    if width_log in _pattern_cache:
        return _pattern_cache[width_log]
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
    _pattern_cache[width_log] = tables
    return tables


def _or_table(
    pos: int, neg: int, chunk: int, width_log: int, tables: list[int], full: int
) -> int:
    """Truth table of "some literal true" restricted to a chunk of the space.

    Variables >= width_log are constant inside the chunk; their value is the
    corresponding bit of the chunk index, so a literal over one that is true
    makes the whole table true before any table work is done.
    """
    high = (pos | neg) >> width_log
    v = 0
    while high:
        if high & 1:
            bit = (chunk >> v) & 1
            hv = width_log + v
            if ((pos >> hv) & 1 and bit) or ((neg >> hv) & 1 and not bit):
                return full
        high >>= 1
        v += 1
    low_mask = (1 << width_log) - 1
    or_t = 0
    v = 0
    low = (pos | neg) & low_mask
    while low:
        if low & 1:
            if (pos >> v) & 1:
                or_t |= tables[v]
            if (neg >> v) & 1:
                or_t |= full ^ tables[v]
        low >>= 1
        v += 1
    return or_t


def _first_model(clauses: list[tuple[int, int]], chunks: range, width_log: int) -> int | None:
    """The smallest index in the given chunks that satisfies every clause."""
    full = (1 << (1 << width_log)) - 1
    tables = _var_patterns(width_log)
    for chunk in chunks:
        acc = full
        for pos, neg in clauses:
            acc &= _or_table(pos, neg, chunk, width_log, tables, full)
            if not acc:
                break
        if acc:
            return (chunk << width_log) | ((acc & -acc).bit_length() - 1)
    return None


def solve(num_vars: int, clauses: list[tuple[int, int]]) -> int | None:
    width_log = min(num_vars, CHUNK_LOG)
    return _first_model(clauses, range(1 << (num_vars - width_log)), width_log)


def accepted_patterns(
    num_aux: int, num_boundary: int, clauses: list[tuple[int, int]]
) -> set[int]:
    width_log = min(num_aux, CHUNK_LOG)
    per = 1 << (num_aux - width_log)  # chunks per boundary pattern
    return {
        p for p in range(1 << num_boundary)
        if _first_model(clauses, range(p * per, (p + 1) * per), width_log) is not None
    }
