"""CNF data model and structural validators for restricted 3-SAT variants.

Variables are dense non-negative integers 0..num_vars-1; textual names only
exist in the DIMACS layer.  All types are immutable after construction and
every operation here is pure.

A clause is a tuple of literal codes, one per literal, 2·var | neg
(MiniSat's encoding): `CnfInstance.codes` is the only clause field, every
builder writes codes, and every validator, evaluator, solver set-up and
kernel mask reads them.  `pos` and `neg` give one literal's code,
`positive` and `negative` a monotone clause's.  A clause in which some
variable repeats (also with both polarities) is a multiset clause, which
only the star variants admit; that rule is checked where clauses come in
(DIMACS input, gadget substitution, the variant spec).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

# an integer as the library reads one from text (DIMACS and options):
# ASCII digits with an optional minus, and no `+` sign, `_` separator or
# non-ASCII digit, all of which int() would take.  20 digits hold every
# 64-bit value and stay below int()'s own digit limit (at least 640), past
# which it raises instead of converting.
ASCII_INT = re.compile(r"-?[0-9]{1,20}")

SAT = "sat"
NAE = "nae"


def pos(var: int) -> int:
    """The literal code of x_var."""
    return var << 1


def neg(var: int) -> int:
    """The literal code of ~x_var."""
    return var << 1 | 1


def positive(variables: Iterable[int]) -> tuple[int, ...]:
    """The all-positive clause over the variables, as codes."""
    return tuple([v << 1 for v in variables])


def negative(variables: Iterable[int]) -> tuple[int, ...]:
    """The all-negative clause over the variables, as codes."""
    return tuple([v << 1 | 1 for v in variables])


Codes = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# The decoded clause view: `Literal`, `Clause`, `clause`, the view
# constructor `CnfInstance(num_vars, clauses, mode)` and the cached
# `CnfInstance.clauses`.  Only the benchmark (certbench/) reads it; it goes
# once the benchmark reads codes.


class Literal(NamedTuple):
    var: int
    neg: bool


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]

    @property
    def multiset(self) -> bool:
        """Whether some variable repeats."""
        return len({lit.var for lit in self.literals}) != len(self.literals)


def clause(variables: Iterable[int]) -> Clause:
    """The clause of the positive literals of the variables."""
    return Clause(tuple([Literal(v, False) for v in variables]))


@dataclass(frozen=True, init=False)
class CnfInstance:
    """A CNF formula plus the mode selecting its satisfaction semantics.

    mode is metadata only: "sat" wants >= 1 true literal per clause, "nae"
    wants >= 1 true and >= 1 false.  The clause data never depends on it.
    `codes` is the one stored clause form.  `from_codes` takes codes; the
    view constructor takes `Clause` views and encodes them, and both pass
    through the same checks.
    """

    num_vars: int
    codes: Codes
    mode: str = SAT

    def __init__(self, num_vars: int, clauses: Iterable[Clause], mode: str = SAT):
        codes = tuple([tuple([(v << 1) | n for v, n in c.literals]) for c in clauses])
        self._fill(num_vars, codes, mode)

    @classmethod
    def from_codes(cls, num_vars: int, codes: Iterable[Sequence[int]], mode: str = SAT):
        """The instance of clause codes, each clause stored as a tuple."""
        inst = cls.__new__(cls)
        inst._fill(num_vars, tuple(map(tuple, codes)), mode)
        return inst

    def _fill(self, num_vars: int, codes: Codes, mode: str) -> None:
        if mode not in (SAT, NAE):
            raise ValueError(f"unknown mode {mode!r}")
        if num_vars < 0:
            raise ValueError(f"negative num_vars {num_vars}")
        limit = 2 * num_vars
        # a negative variable id has a negative code, which would index a
        # solver's per-literal arrays from the end
        flat = chain.from_iterable
        if min(flat(codes), default=0) < 0 or max(flat(codes), default=-1) >= limit:
            i, v = next((i, x >> 1) for i, c in enumerate(codes) for x in c
                        if not 0 <= x < limit)
            if v < 0:
                raise ValueError(f"clause {i} uses negative variable id {v}")
            raise ValueError(f"clause {i} uses variable {v} >= num_vars={num_vars}")
        # past the frozen __setattr__
        self.__dict__.update(num_vars=num_vars, codes=codes, mode=mode)

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses as `Clause` views, decoded on first use; equal codes
        share one `Literal`."""
        codes = self.codes
        lit = {x: Literal(x >> 1, bool(x & 1)) for x in set(chain.from_iterable(codes))}
        return tuple([Clause(tuple([lit[x] for x in c])) for c in codes])

    @property
    def num_clauses(self) -> int:
        return len(self.codes)

    def has_multiset_clauses(self) -> bool:
        return _repeating_clause(self.codes) is not None


def assignment_from_bits(bits: int, num_vars: int) -> tuple[bool, ...]:
    return tuple(bool((bits >> v) & 1) for v in range(num_vars))


def evaluate(inst: CnfInstance, assignment: Sequence[bool]) -> bool:
    """Whether the assignment satisfies (or nae-satisfies) inst; it reads
    the codes, not the solvers' nae mirror, to check their models apart."""
    if len(assignment) != inst.num_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != num_vars {inst.num_vars}"
        )
    nae = inst.mode == NAE
    for c in inst.codes:
        values = [assignment[x >> 1] ^ (x & 1) for x in c]
        if not any(values) or (nae and all(values)):
            return False
    return True


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail plus a minimal concrete witness for the first violation."""

    ok: bool
    reason: str = ""
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok

    def as_dict(self) -> dict:
        return {"ok": self.ok, "reason": self.reason, "witness": self.witness}


PASS = VerificationReport(True)


# ---------------------------------------------------------------------------
# Appearance profiles


def appearance_profile(inst: CnfInstance) -> list[tuple[int, int]]:
    """Per-variable (unnegated, negated) occurrence counts.

    Duplicates inside multiset clauses are counted as separate appearances.
    """
    counts = [0] * (2 * inst.num_vars)
    for c in inst.codes:
        for x in c:
            counts[x] += 1
    return list(zip(counts[0::2], counts[1::2]))


# ---------------------------------------------------------------------------
# Variant specifications

MONOTONE_SAT = "sat"  # every clause all-positive or all-negative
MONOTONE_NAE = "nae"  # no negative literal anywhere

EXACT_LINEAR = "exact"

Profile = frozenset[tuple[int, int]]


@dataclass(frozen=True, kw_only=True)
class VariantSpec:
    """Declarative description of a restricted variant of 3-literal clauses.

    profile is the set of (unnegated, negated) appearance counts a variable
    may take, None for any: Monotone 3-Sat-(p, q) allows {(p, q)}, E4 allows
    `total(4)`, and the (3,1)-or-(1,3) variant allows {(3, 1), (1, 3)}.
    """

    duplicates: bool = False
    monotone: str | None = None  # None | "sat" | "nae"
    profile: Profile | None = None
    linear: str | None = None  # None | "linear" | "exact"
    distinct_clauses: bool = True


def total(k: int) -> Profile:
    """Every (p, q) with p + q = k: each variable appears exactly k times."""
    return frozenset((p, k - p) for p in range(k + 1))


def monotone_sat(p: int, q: int) -> VariantSpec:
    """Monotone 3-Sat-(p, q)."""
    return VariantSpec(monotone=MONOTONE_SAT, profile=frozenset({(p, q)}))


def validate(inst: CnfInstance, spec: VariantSpec) -> VerificationReport:
    """Check an instance against a variant spec.

    Returns pass, or fail naming the first violated constraint with a
    concrete witness (clause index, variable id, or clause pair).
    """
    codes = inst.codes
    for i, c in enumerate(codes):
        if len(c) != 3:
            return VerificationReport(
                False, f"clause {i} has arity {len(c)} != 3", ("clause", i)
            )
    if not spec.duplicates or spec.linear is not None:
        # linearity is defined over set-flavor clauses only
        i = _repeating_clause(codes)
        if i is not None:
            return VerificationReport(
                False, f"clause {i} repeats a variable", ("clause", i)
            )
    if spec.monotone == MONOTONE_SAT:
        for i, c in enumerate(codes):
            if len({x & 1 for x in c}) > 1:
                return VerificationReport(
                    False, f"clause {i} mixes polarities", ("clause", i)
                )
    elif spec.monotone == MONOTONE_NAE:
        for i, c in enumerate(codes):
            if any(x & 1 for x in c):
                return VerificationReport(
                    False, f"clause {i} contains a negated literal", ("clause", i)
                )
    if spec.profile is not None:
        for v, pq in enumerate(appearance_profile(inst)):
            if pq not in spec.profile:
                allowed = ", ".join(f"({p},{q})" for p, q in sorted(spec.profile))
                return VerificationReport(
                    False,
                    f"variable {v} has profile ({pq[0]},{pq[1]}), allowed: {allowed}",
                    ("variable", v),
                )
    if spec.linear is not None:
        rep = is_linear(inst, exact=(spec.linear == EXACT_LINEAR))
        if not rep.ok:
            return rep
    if spec.distinct_clauses:
        seen: dict[tuple, int] = {}
        for i, c in enumerate(codes):
            key = tuple(sorted(c))
            if key in seen:
                return VerificationReport(
                    False,
                    f"clauses {seen[key]} and {i} are identical",
                    ("clause_pair", seen[key], i),
                )
            seen[key] = i
    return PASS


def _repeating_clause(codes: Codes) -> int | None:
    """The index of the first clause that repeats a variable, if any."""
    return next((i for i, c in enumerate(codes) if len({x >> 1 for x in c}) != len(c)), None)


def is_linear(inst: CnfInstance, exact: bool = False) -> VerificationReport:
    """Pass iff every pair of distinct clauses shares at most one variable.

    Exact mode wants exactly one shared variable per pair.  The first
    violating pair in (i, j) order is reported; shared variables are counted
    from each variable's clause list, so outside exact mode only pairs that
    share one cost work.  A clause that repeats a variable is rejected:
    linearity is defined over set-flavor formulas.
    """
    i = _repeating_clause(inst.codes)
    if i is not None:
        raise ValueError(f"is_linear is defined for set-flavor clauses only (clause {i})")
    codes = inst.codes
    occ: list[list[int]] = [[] for _ in range(inst.num_vars)]  # clauses, in order
    for j, c in enumerate(codes):
        for x in c:
            occ[x >> 1].append(j)
    for i, c in enumerate(codes):
        shared = Counter(j for x in c for j in occ[x >> 1] if j > i)
        if exact:
            j = next((j for j in range(i + 1, len(codes)) if shared[j] != 1), None)
        else:
            j = min((j for j, k in shared.items() if k > 1), default=None)
        if j is not None:
            what = f"share {shared[j]} variables" if shared[j] else "share no variable"
            return VerificationReport(False, f"clauses {i} and {j} {what}", ("clause_pair", i, j))
    return PASS


def negate_rename(inst: CnfInstance, variables: Iterable[int]) -> CnfInstance:
    """Flip the polarity of every literal of the selected variables.

    The variable id is retained; satisfiability is preserved bijectively and
    the operation is an involution.
    """
    sel = set(variables)
    for v in sel:
        if not (0 <= v < inst.num_vars):
            raise ValueError(f"variable {v} out of range")
    out = [tuple([x ^ 1 if x >> 1 in sel else x for x in c]) for c in inst.codes]
    return CnfInstance.from_codes(inst.num_vars, out, inst.mode)
