"""Independent brute-force oracles used to derive and freeze expected
values.  Deliberately naive: plain itertools enumeration over dict
assignments, sharing no code path with the kernels they cross-check."""

from __future__ import annotations

import itertools

from mono3sat.formulas import NAE, CnfInstance, decode


def clause_value(clause, assignment, mode):
    values = [assignment[l.var] != l.neg for l in clause.literals]
    if mode == NAE:
        return any(values) and not all(values)
    return any(values)


def ref_solve(inst: CnfInstance) -> str:
    for bits in itertools.product([False, True], repeat=inst.num_vars):
        if all(clause_value(c, bits, inst.mode) for c in inst.clauses):
            return "sat"
    return "unsat"


def ref_accepted(gadget) -> set[int]:
    """Accepted boundary patterns by quantifier enumeration."""
    boundary = list(dict.fromkeys(gadget.boundary))
    aux = list(gadget.aux)
    accepted = set()
    for pattern in range(1 << len(boundary)):
        assignment = {v: bool((pattern >> j) & 1) for j, v in enumerate(boundary)}
        for ext in itertools.product([False, True], repeat=len(aux)):
            assignment.update(zip(aux, ext))
            if all(
                clause_value(c, assignment, gadget.mode) for c in decode(gadget.clauses)
            ):
                accepted.add(pattern)
                break
    return accepted
