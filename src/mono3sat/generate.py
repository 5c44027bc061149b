"""Random generators for the restricted variants used as reduction inputs.

All generators are deterministic given the Random instance and use
rejection sampling; the profiles here are sparse enough that retries are
cheap at oracle scale.
"""

from __future__ import annotations

import itertools
import random

from .formulas import NAE, SAT, Clause, CnfInstance, Literal


class GenerationError(RuntimeError):
    pass


def _config_model_clauses(
    stubs: list[int], rng: random.Random
) -> list[tuple[int, ...]] | None:
    """Partition a literal-stub pool into distinct triples of distinct
    variables; None after 400 rejected shuffles."""
    for _ in range(400):
        pool = stubs[:]
        rng.shuffle(pool)
        clauses = []
        ok = True
        for t in range(0, len(pool), 3):
            tri = tuple(sorted(pool[t : t + 3]))
            if len(set(tri)) != 3 or tri in clauses:
                ok = False
                break
            clauses.append(tri)
        if ok:
            return clauses
    return None


def regular_hypergraph(n: int, degree: int, rng: random.Random) -> list[tuple[int, ...]]:
    """A degree-regular 3-uniform hypergraph with distinct edges."""
    if (degree * n) % 3 != 0:
        raise GenerationError(f"degree {degree} * n {n} not divisible by 3")
    stubs = [v for v in range(n) for _ in range(degree)]
    for _ in range(60):
        got = _config_model_clauses(stubs, rng)
        if got is not None:
            return got
    raise GenerationError(f"no {degree}-regular hypergraph found at n={n}")


def random_monotone_nae(n: int, m: int, rng: random.Random) -> CnfInstance:
    """Monotone NAE-3-Sat: positive 3-clauses with distinct variables."""
    all_triples = list(itertools.combinations(range(n), 3))
    if m > len(all_triples):
        raise GenerationError("m too large for distinct clauses")
    chosen = rng.sample(all_triples, m)
    clauses = tuple(Clause(tuple(Literal(v) for v in tri)) for tri in chosen)
    return CnfInstance(n, clauses, NAE)


def random_nae_e4(n: int, rng: random.Random) -> CnfInstance:
    """Monotone NAE-3-Sat-E4: a 4-regular positive 3-uniform hypergraph."""
    edges = regular_hypergraph(n, 4, rng)
    clauses = tuple(Clause(tuple(Literal(v) for v in tri)) for tri in edges)
    return CnfInstance(n, clauses, NAE)


def random_nae_star(n: int, m: int, rng: random.Random) -> CnfInstance:
    """NAE-3-Sat*: clauses of three literals, duplicates permitted."""
    clauses = []
    for _ in range(m):
        lits = tuple(
            Literal(rng.randrange(n), rng.random() < 0.5) for _ in range(3)
        )
        clauses.append(Clause(lits, multiset=True))
    return CnfInstance(n, tuple(clauses), NAE)


def random_kk(n: int, k: int, rng: random.Random) -> CnfInstance:
    """Monotone 3-Sat-(k,k): positive and negative sides k-regular."""
    pos = regular_hypergraph(n, k, rng)
    neg_side = regular_hypergraph(n, k, rng)
    clauses = [Clause(tuple(Literal(v) for v in tri)) for tri in pos]
    clauses += [Clause(tuple(Literal(v, True) for v in tri)) for tri in neg_side]
    return CnfInstance(n, tuple(clauses), SAT)


def random_k1(n: int, k: int, rng: random.Random) -> CnfInstance:
    """Monotone 3-Sat-(k,1): disjoint negative triples plus k-regular positives."""
    if n % 3 != 0:
        raise GenerationError("n must be a multiple of 3")
    pos = regular_hypergraph(n, k, rng)
    clauses = [Clause(tuple(Literal(v) for v in tri)) for tri in pos]
    perm = list(range(n))
    rng.shuffle(perm)
    for t in range(0, n, 3):
        tri = sorted(perm[t : t + 3])
        clauses.append(Clause(tuple(Literal(v, True) for v in tri)))
    return CnfInstance(n, tuple(clauses), SAT)


def random_32(n: int, rng: random.Random) -> CnfInstance:
    """Monotone 3-Sat-(3,2)."""
    pos = regular_hypergraph(n, 3, rng)
    neg_side = regular_hypergraph(n, 2, rng)
    clauses = [Clause(tuple(Literal(v) for v in tri)) for tri in pos]
    clauses += [Clause(tuple(Literal(v, True) for v in tri)) for tri in neg_side]
    return CnfInstance(n, tuple(clauses), SAT)


def random_22(n: int, rng: random.Random) -> CnfInstance:
    """3-Sat-(2,2): mixed-polarity clauses, every variable twice per polarity."""
    if n % 3 != 0:
        raise GenerationError("n must be a multiple of 3 (4n = 3m)")
    # literal stubs: +v twice, -v twice; encoded as 2v / 2v+1
    stubs = [x for v in range(n) for x in ((v << 1), (v << 1), (v << 1) | 1, (v << 1) | 1)]
    for _ in range(400):
        pool = stubs[:]
        rng.shuffle(pool)
        seen = set()
        clauses = []
        ok = True
        for t in range(0, len(pool), 3):
            tri = pool[t : t + 3]
            if len({x >> 1 for x in tri}) != 3:
                ok = False
                break
            key = tuple(sorted(tri))
            if key in seen:
                ok = False
                break
            seen.add(key)
            clauses.append(
                Clause(tuple(Literal(x >> 1, bool(x & 1)) for x in sorted(tri)))
            )
        if ok:
            return CnfInstance(n, tuple(clauses), SAT)
    raise GenerationError(f"no (2,2) instance found at n={n}")
