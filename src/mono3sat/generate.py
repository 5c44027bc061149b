"""Random generators for the restricted variants used as reduction inputs.

All generators are deterministic given the Random instance.  Regular
hypergraphs and (2,2) instances come from one configuration-model sampler
(Bollobás, Eur. J. Combin. 1980), uniform over simple configurations: each
attempt builds the partition one anchored triple at a time and is rejected
at its first bad draw, within a budget of 400 attempts per call and 60 calls
per hypergraph.
"""

from __future__ import annotations

import itertools
import random

from .formulas import NAE, SAT, CnfInstance, negative, positive


class GenerationError(RuntimeError):
    pass


def _config_model_clauses(
    stubs: list[int], rng: random.Random, shift: int
) -> list[tuple[int, ...]] | None:
    """Partition a stub pool into distinct sorted triples whose stubs have
    distinct stub >> shift (the vertex of a hypergraph stub at shift 0, the
    variable of a literal-code stub at shift 1), in random order; None
    after 400 rejected attempts.

    An attempt builds the partition one triple at a time: the last stub left
    in the pool anchors the next triple, and two stubs drawn uniformly from
    the rest join it.  The pool shrinks the same way in every attempt, so
    all draw sequences are equally likely, and each partition of the
    labelled stubs into m triples comes out of exactly 2^m of them (the two
    joiners in either order): a finished attempt is a uniform partition.
    An attempt ends at the first draw that repeats a var inside its triple
    or completes an earlier triple again.  That draw already makes the whole
    partition invalid, so stopping there decides the same event as finishing
    it and rejecting.  Accepted partitions are therefore uniform over the
    valid ones, the law of shuffling the whole pool and checking every
    triple; the accepted triples are shuffled once, so their order is
    random too.

    Each index in [0, m) is drawn inline by rejection over
    `getrandbits(m.bit_length())`, the draws `rng.randrange(m)` makes, so
    the stream is randrange's without its per-call overhead.
    """
    getrandbits = rng.getrandbits
    for _ in range(400):
        pool = stubs[:]
        clauses = []
        seen = set()
        while pool:
            a = pool.pop()
            va = a >> shift
            m = len(pool)
            k = m.bit_length()
            i = getrandbits(k)
            while i >= m:
                i = getrandbits(k)
            b = pool[i]
            vb = b >> shift
            if vb == va:
                break
            pool[i] = pool[-1]
            pool.pop()
            m -= 1
            k = m.bit_length()
            i = getrandbits(k)
            while i >= m:
                i = getrandbits(k)
            c = pool[i]
            vc = c >> shift
            if vc == va or vc == vb:
                break
            pool[i] = pool[-1]
            pool.pop()
            tri = tuple(sorted((a, b, c)))
            if tri in seen:
                break
            seen.add(tri)
            clauses.append(tri)
        else:
            rng.shuffle(clauses)
            return clauses
    return None


def regular_hypergraph(n: int, degree: int, rng: random.Random) -> list[tuple[int, ...]]:
    """A degree-regular 3-uniform hypergraph with distinct edges."""
    if (degree * n) % 3 != 0:
        raise GenerationError(f"degree {degree} * n {n} not divisible by 3")
    stubs = [v for v in range(n) for _ in range(degree)]
    for _ in range(60):
        got = _config_model_clauses(stubs, rng, 0)
        if got is not None:
            return got
    raise GenerationError(f"no {degree}-regular hypergraph found at n={n}")


def _monotone(n: int, pos_side, neg_side, mode: str) -> CnfInstance:
    """Positive clauses over the positive triples, then negative ones."""
    codes = [positive(tri) for tri in pos_side] + [negative(tri) for tri in neg_side]
    return CnfInstance.from_codes(n, codes, mode)


def random_monotone_nae(n: int, m: int, rng: random.Random) -> CnfInstance:
    """Monotone NAE-3-Sat: positive 3-clauses with distinct variables."""
    all_triples = list(itertools.combinations(range(n), 3))
    if m > len(all_triples):
        raise GenerationError("m too large for distinct clauses")
    return _monotone(n, rng.sample(all_triples, m), (), NAE)


def random_nae_e4(n: int, rng: random.Random) -> CnfInstance:
    """Monotone NAE-3-Sat-E4: a 4-regular positive 3-uniform hypergraph."""
    return _monotone(n, regular_hypergraph(n, 4, rng), (), NAE)


def random_nae_star(n: int, m: int, rng: random.Random) -> CnfInstance:
    """NAE-3-Sat*: clauses of three literals, duplicates permitted."""
    codes = [
        tuple([rng.randrange(n) << 1 | (rng.random() < 0.5) for _ in range(3)])
        for _ in range(m)
    ]
    return CnfInstance.from_codes(n, codes, NAE)


def _regular_monotone(n: int, p: int, q: int, rng: random.Random) -> CnfInstance:
    """Monotone 3-Sat with a p-regular positive and a q-regular negative side."""
    pos_side = regular_hypergraph(n, p, rng)
    return _monotone(n, pos_side, regular_hypergraph(n, q, rng), SAT)


def random_kk(n: int, k: int, rng: random.Random) -> CnfInstance:
    """Monotone 3-Sat-(k,k): positive and negative sides k-regular."""
    return _regular_monotone(n, k, k, rng)


def random_32(n: int, rng: random.Random) -> CnfInstance:
    """Monotone 3-Sat-(3,2)."""
    return _regular_monotone(n, 3, 2, rng)


def random_k1(n: int, k: int, rng: random.Random) -> CnfInstance:
    """Monotone 3-Sat-(k,1): disjoint negative triples plus k-regular positives."""
    if n % 3 != 0:
        raise GenerationError("n must be a multiple of 3")
    pos_side = regular_hypergraph(n, k, rng)
    perm = list(range(n))
    rng.shuffle(perm)
    return _monotone(n, pos_side, [sorted(perm[t : t + 3]) for t in range(0, n, 3)], SAT)


def random_22(n: int, rng: random.Random) -> CnfInstance:
    """3-Sat-(2,2): mixed-polarity clauses, every variable twice per polarity."""
    if n % 3 != 0:
        raise GenerationError("n must be a multiple of 3 (4n = 3m)")
    # literal stubs as codes: +v twice, -v twice
    stubs = [v << 1 | s for v in range(n) for s in (0, 0, 1, 1)]
    got = _config_model_clauses(stubs, rng, 1)
    if got is None:
        raise GenerationError(f"no (2,2) instance found at n={n}")
    return CnfInstance.from_codes(n, got, SAT)
