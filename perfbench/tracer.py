"""Span and counter recording around the public entry points of each layer.

The benchmark never edits ``src/``: :func:`install` replaces each layer's
public function or method with a wrapper, in every loaded ``repro`` module
that holds a reference to it (so ``from x import f`` call sites are
covered too).  Two modes:

* counting (``timed=False``): only the work counters the benchmark's
  self-check compares are tallied — a few dict updates per SAT solve,
  preprocessor flush or restore, PDR run and CEGIS call, and no clock
  reads;
* timed (``timed=True``): every layer boundary also records a span
  ``(name, start, end, parent, job)`` with ``perf_counter_ns``.  Spans stay
  in memory until the run ends; :func:`layer_metrics` turns them into
  per-layer self times.

Span and counter names follow the ``src/repro`` module names (``sat.pre``,
``solve``, ``smt``, ``aig``, ``ts``, ``absint``, ``qed``, ``bmc``, ``pdr``,
``synth``), so a later change can say which layer a saving should land on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

#: Counters that must repeat exactly across runs of one seed and between
#: the counting and the timed run.
DETERMINISTIC = (
    "sat.decisions",
    "sat.conflicts",
    "sat.propagations",
    "pdr.queries",
    "synth.cegis.calls",
    "cnf.clauses_pre",
)

#: Name of the span that wraps one benchmark job; its self time is the
#: job's time outside every layer span and is reported under ``other.ms``.
JOB_SPAN = "job"


class Tracer:
    """In-memory spans plus named counters for one benchmark process."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.counters: Counter = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("i")
        self.job_of = array("i")
        self._stack: list[int] = []
        self.job = -1
        # True while a Preprocessor.require_vars call is open: the clauses
        # it re-emits were already counted as blasted when first flushed.
        self.in_require = False

    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.job_of.append(self.job)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def write(self, path) -> None:
        """Dump every span as ``name start_ns end_ns parent job`` lines."""
        with open(path, "w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.job_of[i]}\n"
                )


# ---------------------------------------------------------------------------
# Counter hooks: before(tracer, obj, args, kwargs) -> token and
# after(tracer, token, obj, args, kwargs, result); ``obj`` is the instance
# for methods and ``None`` for functions.
# ---------------------------------------------------------------------------


def _solve_before(tracer, obj, args, kwargs):
    return obj.stats.copy()


def _solve_after(tracer, before, obj, args, kwargs, result):
    c = tracer.counters
    spent = obj.stats.since(before)
    c["sat.solve.calls"] += 1
    c["sat.decisions"] += spent.decisions
    c["sat.conflicts"] += spent.conflicts
    c["sat.propagations"] += spent.propagations
    c["sat.learned"] += spent.learned_clauses
    answer = {True: "sat", False: "unsat", None: "unknown"}[result.satisfiable]
    c["sat.answers." + answer] += 1


def _flush_before(tracer, obj, args, kwargs):
    return obj.stats.vars_eliminated


def _flush_after(tracer, before, obj, args, kwargs, result):
    c = tracer.counters
    if not tracer.in_require:
        c["cnf.clauses_pre"] += len(args[0])
    c["sat.pre.clauses_out"] += len(result)
    c["sat.pre.vars_eliminated"] += obj.stats.vars_eliminated - before


def _require_before(tracer, obj, args, kwargs):
    outer = tracer.in_require
    tracer.in_require = True
    return outer


def _require_after(tracer, outer, obj, args, kwargs, result):
    tracer.in_require = outer


def _pdr_after(tracer, before, obj, args, kwargs, result):
    c = tracer.counters
    s = result.stats
    c["pdr.runs"] += 1
    c["pdr.queries"] += (
        s.bad_queries + s.consecution_queries + s.init_queries + s.lift_queries
    )
    c["pdr.obligations"] += s.obligations
    c["pdr.ctgs_blocked"] += s.ctgs_blocked
    c["pdr.lemmas_inf"] += s.clauses_pushed_inf
    c["pdr.literals_dropped"] += s.literals_dropped
    c["pdr.decisions"] += s.solver_stats.decisions


def _cegis_after(tracer, before, obj, args, kwargs, result):
    c = tracer.counters
    c["synth.cegis.calls"] += 1
    c["synth.cegis.iterations"] += result.stats.iterations
    c["synth.cegis.programs"] += result.program is not None


def _check_after(tracer, before, obj, args, kwargs, result):
    tracer.counters["solve.check.calls"] += 1


def _aig_nodes(obj) -> int:
    return 0 if obj.aig is None else obj.aig.num_nodes()


def _blast_before(tracer, obj, args, kwargs):
    return _aig_nodes(obj)


def _blast_after(tracer, before, obj, args, kwargs, result):
    tracer.counters["aig.nodes"] += _aig_nodes(obj) - before


def _coi_after(tracer, before, obj, args, kwargs, result):
    tracer.counters["ts.coi.states_dropped"] += len(result.dropped_states)


def _fold_after(tracer, before, obj, args, kwargs, result):
    if result is not None:
        tracer.counters["absint.bits_folded"] += result.bits_folded


def _qed_after(tracer, before, obj, args, kwargs, result):
    tracer.counters["qed.build.calls"] += 1


def _frames_before(tracer, obj, args, kwargs):
    return obj.stats.frames_checked


def _frames_after(tracer, before, obj, args, kwargs, result):
    tracer.counters["bmc.frames_checked"] += obj.stats.frames_checked - before


#: (span name, module, attribute path, before, after, counted untimed).
#: The last flag marks the hooks the counting run needs for the
#: determinism self-check; every other hook is installed only when timed.
HOOKS = (
    ("sat.pre.flush", "repro.sat.preprocess", "Preprocessor.flush", _flush_before, _flush_after, True),
    ("sat.pre.require", "repro.sat.preprocess", "Preprocessor.require_vars", _require_before, _require_after, True),
    ("sat.pre.extend", "repro.sat.preprocess", "Preprocessor.extend_model", None, None, False),
    ("sat.solve", "repro.solve.backend", "CdclBackend.solve", _solve_before, _solve_after, True),
    ("solve.check", "repro.solve.context", "SolverContext.check", None, _check_after, False),
    ("smt.blast", "repro.smt.bitblast", "BitBlaster.blast", _blast_before, _blast_after, False),
    ("aig.lower", "repro.aig.lower", "CnfLowering.materialize", None, None, False),
    ("ts.coi", "repro.ts.coi", "cached_property_cone", None, _coi_after, False),
    ("ts.unroll", "repro.ts.unroll", "Unroller.at_frame", None, None, False),
    ("ts.unroll", "repro.ts.unroll", "Unroller.state_term", None, None, False),
    ("ts.unroll", "repro.ts.unroll", "Unroller.input_term", None, None, False),
    ("ts.unroll", "repro.ts.unroll", "Unroller.frame_mapping", None, None, False),
    ("ts.unroll", "repro.ts.unroll", "Unroller.constraints_at", None, None, False),
    ("ts.unroll", "repro.ts.unroll", "Unroller.property_at", None, None, False),
    ("absint.analyze", "repro.absint.fixpoint", "analyze", None, None, False),
    ("absint.fold", "repro.absint.facts", "fold_system", None, _fold_after, False),
    ("qed.build", "repro.qed.module", "build_verification_model", None, _qed_after, False),
    ("bmc.frames", "repro.bmc.engine", "BmcSession.extend_to", _frames_before, _frames_after, False),
    ("bmc.trace", "repro.bmc.engine", "build_trace", None, None, False),
    ("pdr.self", "repro.pdr.engine", "PdrEngine.prove", None, _pdr_after, True),
    ("synth.rank", "repro.synth.hpf", "HpfCegis.synthesize_for", None, None, False),
    ("synth.cegis", "repro.synth.cegis", "CegisEngine.synthesize", None, _cegis_after, True),
    ("synth.encode", "repro.synth.encoder", "LocationEncoder.wfp_constraints", None, None, False),
    ("synth.encode", "repro.synth.encoder", "LocationEncoder.example_constraints", None, None, False),
    ("synth.encode", "repro.synth.encoder", "LocationEncoder.decode", None, None, False),
)


def _make_wrapper(
    tracer: Tracer,
    fn: Callable,
    name: str,
    before: Optional[Callable],
    after: Optional[Callable],
    is_method: bool,
    timed: bool,
) -> Callable:
    name_id = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        obj = args[0] if is_method else None
        rest = args[1:] if is_method else args
        token = before(tracer, obj, rest, kwargs) if before else None
        if timed:
            index = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
        else:
            result = fn(*args, **kwargs)
        if after:
            after(tracer, token, obj, rest, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every hook the tracer's mode needs, wherever it is referenced.

    Modules imported later pick the wrapper up from the patched module, so
    only the modules already loaded need their by-name references replaced.
    """
    for name, module_name, path, before, after, untimed in HOOKS:
        if not (tracer.timed or untimed):
            continue
        owner = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        is_method = len(parts) > 1
        wrapper = _make_wrapper(
            tracer, original, name, before, after, is_method, tracer.timed
        )
        if is_method:
            setattr(owner, parts[-1], wrapper)
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def layer_metrics(tracer: Tracer, wall_ns: int) -> dict[str, float]:
    """Self time per span name (ms), with ``other.ms`` closing the sum.

    A span's self time is its duration minus its direct children's
    durations.  ``other.ms`` is the job spans' own self time plus any time
    of the timed region outside every job, so the layer self times and
    ``other.ms`` add up to ``wall_ns`` exactly.
    """
    count = len(tracer.start)
    child_ns = [0] * count
    for i in range(count):
        parent = tracer.parent[i]
        if parent >= 0:
            child_ns[parent] += tracer.end[i] - tracer.start[i]
    self_ns: Counter = Counter()
    top_ns = 0
    for i in range(count):
        duration = tracer.end[i] - tracer.start[i]
        self_ns[tracer.names[tracer.name[i]]] += duration - child_ns[i]
        if tracer.parent[i] < 0:
            top_ns += duration
    other_ns = self_ns.pop(JOB_SPAN, 0) + (wall_ns - top_ns)
    out = {f"{name}.ms": ns / 1e6 for name, ns in self_ns.items()}
    out["other.ms"] = other_ns / 1e6
    return out
