"""Pluggable SAT backends for the persistent solver context.

A backend is anything that accepts clauses incrementally and decides
satisfiability under assumptions.  Two implementations ship here:

* :class:`CdclBackend` — the builtin CDCL solver from :mod:`repro.sat`.
  It is fully incremental: clauses, learned clauses, variable activities
  and saved phases all persist between ``solve`` calls, which is what the
  iterated solver loops (BMC, k-induction, CEGIS, QED) exploit.
* :class:`DimacsBackend` — a subprocess backend that serialises the current
  clause set to DIMACS and runs an external solver binary (MiniSat, Kissat,
  CaDiCaL, ... anything speaking the standard competition output format).
  It is one-shot per query — assumptions become temporary unit clauses —
  but lets large queries escape the pure-python solver.

Backends are resolved by :func:`create_backend` from a spec string, so the
choice threads through every layer as a plain keyword argument.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from typing import Iterable, Optional, Protocol, Sequence, runtime_checkable

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


@runtime_checkable
class SatBackend(Protocol):
    """The minimal surface a :class:`~repro.solve.context.SolverContext` needs."""

    name: str

    @property
    def stats(self) -> SolverStats:
        """Cumulative work counters across every ``solve`` call."""
        ...

    def reserve(self, num_vars: int) -> None:
        """Make sure variables ``1..num_vars`` exist even if not yet constrained."""
        ...

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a permanent clause of non-zero DIMACS literals."""
        ...

    def solve(
        self,
        assumptions: Iterable[int] = (),
        conflict_budget: Optional[int] = None,
        need_model: bool = True,
    ) -> SatResult:
        """Decide the current clause set under ``assumptions``.

        With ``need_model=False`` a SAT result may carry an empty model
        (lets model-less external solvers serve verdict-only queries).

        UNSAT answers carry a failed-assumption ``core`` — a subset of
        ``assumptions`` that alone keeps the clause set unsatisfiable; an
        empty core means the clause set is UNSAT without any assumptions
        (see :class:`~repro.sat.solver.SatResult`).
        """
        ...


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

    name = "cdcl"

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


class DimacsBackend:
    """One-shot subprocess backend speaking DIMACS in, competition format out.

    The backend keeps the clause set in memory; every :meth:`solve` call
    writes a fresh DIMACS file (assumptions appended as unit clauses, so
    they bind only that query) and invokes ``executable`` on it.  The
    conventional exit codes (10 = SAT, 20 = UNSAT) and the ``s``/``v``
    output lines are both understood.  ``conflict_budget`` is rejected with
    :class:`~repro.errors.SolveError` and ``stats`` stays at zero — external
    solvers manage their own effort and do not report counters on stdout,
    so budget arithmetic and per-phase conflict reporting are only
    meaningful on the builtin backend.

    **Unsat cores.**  Competition output has no core line, so the backend
    cannot minimise: an UNSAT answer under assumptions reports *all* of
    them as the core (sound — the full assumption set trivially keeps the
    query UNSAT — just not minimal).  To keep the ``empty core <=> root
    UNSAT`` contract it distinguishes root UNSAT with one extra
    assumption-free query; the root verdict is cached per clause count
    (and latched once UNSAT, since adding clauses never restores
    satisfiability), so the recheck runs at most once per clause-set
    revision.
    """

    name = "dimacs"

    def __init__(self, executable: str, extra_args: Sequence[str] = ()):
        resolved = shutil.which(executable)
        if resolved is None:
            raise SolveError(
                f"DIMACS backend executable {executable!r} not found on PATH"
            )
        self.executable = resolved
        self.extra_args = tuple(extra_args)
        self._clauses: list[tuple[int, ...]] = []
        self._num_vars = 0
        self._stats = SolverStats()
        self._root_unsat = False
        # Clause count at which the clause set was last seen root-SAT.
        self._root_sat_clauses: Optional[int] = None

    @property
    def stats(self) -> SolverStats:
        return self._stats

    def reserve(self, num_vars: int) -> None:
        self._num_vars = max(self._num_vars, num_vars)

    def add_clause(self, literals: Sequence[int]) -> None:
        clause = tuple(int(lit) for lit in literals)
        for lit in clause:
            if lit == 0:
                raise SolveError("literal 0 is not allowed in a clause")
            self._num_vars = max(self._num_vars, abs(lit))
        self._clauses.append(clause)

    def _write_query(self, path: str, assumptions: Sequence[int]) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(
                f"p cnf {self._num_vars} {len(self._clauses) + len(assumptions)}\n"
            )
            for clause in self._clauses:
                handle.write(" ".join(str(lit) for lit in clause) + " 0\n")
            for lit in assumptions:
                handle.write(f"{lit} 0\n")

    def solve(
        self,
        assumptions: Iterable[int] = (),
        conflict_budget: Optional[int] = None,
        need_model: bool = True,
    ) -> SatResult:
        if conflict_budget is not None:
            # Failing loudly beats silently running an unbounded query where
            # the caller expected an inconclusive answer.
            raise SolveError(
                "the DIMACS subprocess backend does not support conflict "
                "budgets; drop the budget or use the builtin 'cdcl' backend"
            )
        assumptions = [int(a) for a in assumptions]
        for lit in assumptions:
            self._num_vars = max(self._num_vars, abs(lit))
        result = self._run_query(assumptions, need_model)
        if result.satisfiable is False:
            result.core = self._failed_core(assumptions)
        elif result.satisfiable:
            # SAT — with or without assumptions — proves the clause set
            # alone is satisfiable at this revision, sparing the core
            # path's root-distinction query.
            self._root_sat_clauses = len(self._clauses)
        return result

    def _run_query(self, assumptions: Sequence[int], need_model: bool) -> SatResult:
        fd, path = tempfile.mkstemp(prefix="repro_query_", suffix=".cnf")
        os.close(fd)
        try:
            self._write_query(path, assumptions)
            proc = subprocess.run(
                [self.executable, *self.extra_args, path],
                capture_output=True,
                text=True,
            )
            return self._parse_output(proc, need_model)
        finally:
            os.unlink(path)

    def _failed_core(self, assumptions: Sequence[int]) -> list[int]:
        """Core of an UNSAT answer: ``[]`` for root UNSAT, else all assumptions."""
        if not assumptions:
            self._root_unsat = True
            return []
        if not self._root_unsat and self._root_sat_clauses != len(self._clauses):
            root = self._run_query((), need_model=False)
            if root.satisfiable is False:
                self._root_unsat = True
            else:
                self._root_sat_clauses = len(self._clauses)
        return [] if self._root_unsat else list(assumptions)

    def _parse_output(
        self, proc: subprocess.CompletedProcess, need_model: bool
    ) -> SatResult:
        satisfiable: Optional[bool] = None
        values: list[int] = []
        saw_values = False
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line.startswith("s "):
                verdict = line[2:].strip().upper()
                if verdict == "SATISFIABLE":
                    satisfiable = True
                elif verdict == "UNSATISFIABLE":
                    satisfiable = False
            elif line.startswith("v "):
                saw_values = True
                values.extend(int(tok) for tok in line[2:].split())
        if satisfiable is None:
            if proc.returncode == 10:
                satisfiable = True
            elif proc.returncode == 20:
                satisfiable = False
            else:
                raise SolveError(
                    f"solver {self.executable!r} produced no verdict "
                    f"(exit code {proc.returncode})"
                )
        if not satisfiable:
            return SatResult(False, stats=self._stats)
        if not saw_values:
            if not need_model:
                return SatResult(True, stats=self._stats)
            # Some solvers (e.g. MiniSat) only write the model to an output
            # file; fabricating an all-false model here would turn real
            # counterexamples into bogus traces downstream.
            raise SolveError(
                f"solver {self.executable!r} reported SAT but printed no "
                "'v' model lines; use a wrapper that emits the model on stdout"
            )
        model = {v: False for v in range(1, self._num_vars + 1)}
        for lit in values:
            if lit == 0:
                continue
            model[abs(lit)] = lit > 0
        return SatResult(True, model=model, stats=self._stats)


#: Specs naming the builtin CDCL backend (the default everywhere).
DEFAULT_BACKEND_SPECS = ("cdcl", "builtin")

#: Specs naming the builtin CDCL backend, mapped to the kernel they pin
#: (``None`` = follow the process default / ``REPRO_SAT_BACKEND``).
TUNABLE_BACKEND_SPECS: dict = {
    "cdcl": None,
    "builtin": None,
    "arena": "arena",
    "reference": "reference",
}


def is_default_backend(spec: "str | SatBackend") -> bool:
    """True when ``spec`` names the default builtin backend."""
    return isinstance(spec, str) and spec in DEFAULT_BACKEND_SPECS


def dimacs_solver_available(executable: str) -> bool:
    """True when ``executable`` resolves on PATH (gate for optional backends)."""
    return shutil.which(executable) is not None


def create_backend(spec: "str | SatBackend") -> SatBackend:
    """Resolve a backend from a spec.

    Accepted specs: an already-constructed backend object, ``"cdcl"`` /
    ``"builtin"`` (the builtin solver with the process-default kernel),
    ``"arena"`` / ``"reference"`` (the builtin solver pinned to one kernel,
    overriding ``REPRO_SAT_BACKEND``), or ``"dimacs:<executable>"`` for the
    subprocess backend.
    """
    if not isinstance(spec, str):
        if isinstance(spec, SatBackend):
            return spec
        raise SolveError(f"object {spec!r} does not implement the SatBackend protocol")
    if spec in TUNABLE_BACKEND_SPECS:
        return CdclBackend(kernel=TUNABLE_BACKEND_SPECS[spec])
    if spec.startswith("dimacs:"):
        executable = spec.split(":", 1)[1]
        if not executable:
            raise SolveError("dimacs backend spec needs an executable: 'dimacs:<path>'")
        return DimacsBackend(executable)
    raise SolveError(f"unknown solver backend {spec!r}")
