"""Parallel execution of independent runs (:mod:`repro.par`).

:class:`TaskPool` is a fork-based worker pool with deterministic result
ordering, graceful worker-failure handling and a true sequential
degenerate case at ``jobs=1``.  It backs the ``jobs`` knobs of
:meth:`~repro.core.flow.SqedFlow.run_many`, the Table 1 / Figure 3
experiment harnesses and the bug-zoo campaign; every run inside a worker
is the plain sequential engine.
"""

from repro.par.pool import ParError, TaskPool, TaskResult, resolve_jobs

__all__ = [
    "ParError",
    "TaskPool",
    "TaskResult",
    "resolve_jobs",
]
