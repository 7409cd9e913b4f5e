"""Persistent incremental solving shared by BMC, k-induction, PDR, CEGIS and QED.

The subsystem has three parts:

* :mod:`repro.solve.context` — :class:`SolverContext`, a long-lived pairing
  of one bit-blaster and one SAT backend with assumption-scoped push/pop,
* :mod:`repro.solve.backend` — :class:`CdclBackend`, the builtin CDCL
  backend; ``$REPRO_SAT_BACKEND`` picks its kernel (arena or reference),
* :mod:`repro.solve.pipeline` — :class:`PipelineConfig`, the staged
  term → AIG → CNF → preprocess compilation behind ``opt_level``.

Every solver loop in the stack (``BmcEngine``/``BmcSession``,
``KInductionEngine``, ``PdrEngine``, ``CegisEngine``,
``qed.verify_equivalence``) runs on this API.
"""

from repro.solve.backend import CdclBackend
from repro.solve.context import BVResult, SolverContext
from repro.solve.pipeline import (
    EncodingStats,
    PipelineConfig,
    default_opt_level,
)

__all__ = [
    "BVResult",
    "CdclBackend",
    "EncodingStats",
    "PipelineConfig",
    "SolverContext",
    "default_opt_level",
]
