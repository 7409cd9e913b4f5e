"""Independent re-checking of PDR-produced inductive invariants.

A proof is only as trustworthy as its certificate.  :func:`check_invariant`
takes the clause list a :class:`~repro.pdr.engine.PdrEngine` emitted and
re-verifies, on **fresh** solver contexts and (by default) the
``opt_level=0`` naive Tseitin reference encoding, the three obligations
that make ``Inv = /\\ clauses`` an inductive strengthening of property
``P`` under the system's global constraints ``C``:

* **initiation** — ``Init ∧ C ∧ ¬Inv`` is UNSAT,
* **consecution** — ``Inv ∧ C ∧ T ∧ C' ∧ ¬Inv'`` is UNSAT,
* **safety** — ``Inv ∧ C ∧ ¬P`` is UNSAT.

Nothing of the engine's incremental machinery (activation variables,
frames, learned clauses) is reused, so a bug there cannot vouch for
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import PdrError
from repro.smt import terms as T
from repro.smt.evaluator import substitute
from repro.smt.terms import BV
from repro.solve.context import SolverContext
from repro.ts.system import TransitionSystem


@dataclass
class InvariantCheck:
    """Result of independently re-checking an inductive invariant."""

    initiation: bool
    consecution: bool
    safety: bool
    num_clauses: int = 0

    @property
    def valid(self) -> bool:
        return self.initiation and self.consecution and self.safety

    def __bool__(self) -> bool:
        return self.valid


def check_invariant(
    ts: TransitionSystem,
    property_name: str,
    clauses: Iterable[BV],
    opt_level: Optional[int] = 0,
) -> InvariantCheck:
    """Re-check that ``clauses`` form an inductive invariant proving the property.

    ``clauses`` are width-1 terms over the state symbols of ``ts`` (what
    :class:`~repro.pdr.engine.PdrResult` carries in ``invariant``).  The
    default ``opt_level=0`` runs the three queries through the naive
    reference encoding, deliberately avoiding the AIG/preprocessing path
    the prover itself used.
    """
    ts.validate()
    if property_name not in ts.properties:
        raise PdrError(f"unknown property {property_name!r}")
    clause_list = list(clauses)
    for clause in clause_list:
        if clause.width != 1:
            raise PdrError(f"invariant clauses must have width 1, got {clause.width}")
    prop = ts.properties[property_name]

    curr_map: dict[BV, BV] = {}
    for state in ts.states:
        curr_map[state.symbol] = T.fresh_var(f"invchk_{state.name}", state.width)
    input_map: dict[BV, BV] = {}
    next_input_map: dict[BV, BV] = {}
    for symbol in ts.inputs:
        assert symbol.name is not None
        input_map[symbol] = T.fresh_var(f"invchk_in_{symbol.name}", symbol.width)
        next_input_map[symbol] = T.fresh_var(f"invchk_in1_{symbol.name}", symbol.width)
    full_curr = {**curr_map, **input_map}

    next_map: dict[BV, BV] = dict(next_input_map)
    for state in ts.states:
        assert state.next is not None
        next_map[state.symbol] = substitute(state.next, full_curr)

    inv = T.bv_and_all([substitute(c, full_curr) for c in clause_list]) \
        if clause_list else T.bv_true()
    inv_next = T.bv_and_all([substitute(c, next_map) for c in clause_list]) \
        if clause_list else T.bv_true()
    constraints_curr = [substitute(c, full_curr) for c in ts.constraints]
    constraints_next = [substitute(c, next_map) for c in ts.constraints]

    init_parts = []
    for state in ts.states:
        if state.init is not None:
            init_parts.append(
                T.bv_eq(curr_map[state.symbol], substitute(state.init, full_curr))
            )
    init_term = T.bv_and_all(init_parts) if init_parts else T.bv_true()

    def unsat(assertions: list[BV]) -> bool:
        context = SolverContext(opt_level=opt_level)
        for term in assertions:
            context.add(term)
        result = context.check(need_model=False)
        return result.satisfiable is False

    initiation = unsat([init_term, *constraints_curr, T.bv_not(inv)])
    consecution = unsat(
        [inv, *constraints_curr, *constraints_next, T.bv_not(inv_next)]
    )
    safety = unsat([inv, *constraints_curr, substitute(T.bv_not(prop), full_curr)])
    return InvariantCheck(
        initiation=initiation,
        consecution=consecution,
        safety=safety,
        num_clauses=len(clause_list),
    )
