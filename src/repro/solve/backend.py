"""The builtin CDCL backend of the persistent solver context.

:class:`CdclBackend` wraps the builtin CDCL solver from :mod:`repro.sat`.
It is fully incremental: clauses, learned clauses, variable activities and
saved phases all persist between ``solve`` calls, which is what the
iterated solver loops (BMC, k-induction, PDR, CEGIS, QED) exploit.

Two kernels implement it — the flat clause-arena hot path and the
per-object reference solver kept for differential testing.  The kernel is
chosen in one place: the ``REPRO_SAT_BACKEND`` environment variable.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence

from repro.errors import SolveError
from repro.sat.arena import ArenaSolver
from repro.sat.solver import SatResult, SatSolver, SolverStats

#: Environment variable selecting the builtin CDCL kernel implementation.
ENV_SAT_BACKEND = "REPRO_SAT_BACKEND"
#: Known kernels: the flat clause-arena hot path and the per-object
#: reference implementation kept for differential testing.
SAT_KERNELS = ("arena", "reference")
DEFAULT_SAT_KERNEL = "arena"

_KERNEL_CLASSES = {"arena": ArenaSolver, "reference": SatSolver}


def default_sat_kernel() -> str:
    """The process default kernel: ``$REPRO_SAT_BACKEND`` when set, else arena."""
    raw = os.environ.get(ENV_SAT_BACKEND)
    if raw is None or raw == "":
        return DEFAULT_SAT_KERNEL
    if raw not in SAT_KERNELS:
        raise SolveError(
            f"{ENV_SAT_BACKEND} must be one of {SAT_KERNELS}, got {raw!r}"
        )
    return raw


def resolve_sat_kernel(kernel: Optional[str]) -> str:
    """Normalise a kernel argument (``None`` = process default)."""
    if kernel is None:
        return default_sat_kernel()
    if kernel not in SAT_KERNELS:
        raise SolveError(f"SAT kernel must be one of {SAT_KERNELS}, got {kernel!r}")
    return kernel


class CdclBackend:
    """Incremental backend over the builtin CDCL solver.

    ``kernel`` picks the implementation: ``"arena"`` (the flat clause-arena
    hot path, the default) or ``"reference"`` (the per-object
    :class:`SatSolver`, kept as the differential baseline the same way the
    ``opt_level=0`` encoder anchors the compilation pipeline).  ``None``
    resolves through the ``REPRO_SAT_BACKEND`` environment variable, so a
    whole test run can be pinned to either kernel without touching call
    sites.  Both kernels implement the identical contract.

    ``conflict_budget`` is interpreted per call: the budget of one query is
    not eroded by the conflicts of earlier queries on the same context
    (both kernels count conflicts per call).  UNSAT cores come straight
    from the solver's final-conflict analysis.  The kernel runs with its
    default heuristics; the tuning knobs live on the kernels' own
    constructors.
    """

    def __init__(self, kernel: Optional[str] = None) -> None:
        self.kernel = resolve_sat_kernel(kernel)
        self._solver = _KERNEL_CLASSES[self.kernel]()

    @property
    def stats(self) -> SolverStats:
        return self._solver.stats

    def reserve(self, num_vars: int) -> None:
        self._solver.reserve(num_vars)

    def add_clause(self, literals: Sequence[int]) -> None:
        self._solver.add_clause(literals)

    def solve(
        self,
        assumptions: Iterable[int] = (),
        conflict_budget: Optional[int] = None,
        need_model: bool = True,
    ) -> SatResult:
        return self._solver.solve(
            assumptions=assumptions,
            conflict_budget=conflict_budget,
            need_model=need_model,
        )
