#!/usr/bin/env python
"""SAT-kernel benchmark: arena vs reference CDCL on fixed workloads (JSON).

Every workload runs on **both** kernels and the exit status gates on
correctness only — verdict agreement between the kernels (and against the
expected verdict where one is known), model validity on SAT answers, and
core validity on UNSAT-under-assumptions answers.  Wall-clock seconds are
reported in the JSON for trajectory tracking but never asserted: CI
runners are single-CPU and timing-gated benchmarks there are pure noise.

The JSON doubles as the repo's perf-trajectory record (ROADMAP item 5):
committed as ``BENCH_kernel.json``, successive PRs append comparable
snapshots of the work counters — conflicts, propagations, learned clauses,
clause counts — per workload per kernel.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--smoke] [--out BENCH_kernel.json]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
import time

from repro.bmc.engine import BmcEngine
from repro.pdr import PdrEngine
from repro.pdr.designs import lockstep_accumulators
from repro.sat.arena import ArenaSolver
from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver

KERNELS = {"reference": SatSolver, "arena": ArenaSolver}


def _pigeonhole(pigeons: int, holes: int) -> CNF:
    def var(p, h):
        return 1 + p * holes + h

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for i in range(pigeons):
            for j in range(i + 1, pigeons):
                clauses.append([-var(i, h), -var(j, h)])
    return CNF(clauses)


def _random_3sat(seed: int, num_vars: int, num_clauses: int) -> CNF:
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        lits = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in lits])
    return CNF(clauses, num_vars=num_vars)


@contextlib.contextmanager
def _pinned_kernel(kernel: str):
    """Run the enclosed engines on ``kernel`` via ``$REPRO_SAT_BACKEND``."""
    saved = os.environ.get("REPRO_SAT_BACKEND")  # selflint: allow-env
    os.environ["REPRO_SAT_BACKEND"] = kernel  # selflint: allow-env
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_SAT_BACKEND"]  # selflint: allow-env
        else:
            os.environ["REPRO_SAT_BACKEND"] = saved  # selflint: allow-env


def _snapshot(solver, verdict, seconds: float) -> dict:
    stats = solver.stats
    return {
        "verdict": verdict,
        "seconds": round(seconds, 4),
        "conflicts": stats.conflicts,
        "propagations": stats.propagations,
        "decisions": stats.decisions,
        "restarts": stats.restarts,
        "learned_clauses": stats.learned_clauses,
        "lbd_sum": stats.lbd_sum,
        "minimized_literals": stats.minimized_literals,
        "saved_phase_hits": stats.saved_phase_hits,
        "clauses_in_db": solver.num_clauses,
        "learned_in_db": solver.num_learned,
    }


def _model_ok(result, cnf: CNF) -> bool:
    return all(
        any(result.value(abs(l)) == (l > 0) for l in clause) for clause in cnf
    )


# -------------------------------------------------------------------- workloads


def bench_oneshot(name, cnf, expected, failures):
    """One ``solve()`` per kernel on a fixed CNF; verdicts must agree."""
    entry = {"workload": name, "expected_sat": expected, "kernels": {}}
    verdicts = {}
    for kernel, cls in KERNELS.items():
        solver = cls(cnf)
        start = time.perf_counter()
        result = solver.solve()
        seconds = time.perf_counter() - start
        entry["kernels"][kernel] = _snapshot(solver, result.satisfiable, seconds)
        verdicts[kernel] = result.satisfiable
        if result.satisfiable and not _model_ok(result, cnf):
            failures.append(f"{name}/{kernel}: SAT model violates a clause")
    if expected is not None and any(v is not expected for v in verdicts.values()):
        failures.append(f"{name}: verdicts {verdicts} != expected {expected}")
    if len(set(verdicts.values())) != 1:
        failures.append(f"{name}: kernel verdict divergence {verdicts}")
    return entry


def bench_incremental_cores(name, seed, rounds, failures, num_vars=14):
    """Incremental assumption/core workload — the PDR query shape."""
    rng = random.Random(seed)
    entry = {"workload": name, "rounds": rounds, "num_vars": num_vars, "kernels": {}}
    raw = {}
    for kernel, cls in KERNELS.items():
        raw[kernel] = cls()
        raw[kernel].reserve(num_vars)
    rng_clauses = random.Random(seed)
    rng_assumptions = random.Random(seed + 1)
    seconds = dict.fromkeys(KERNELS, 0.0)
    trace = dict.fromkeys(KERNELS, None)
    for _ in range(rounds):
        grown = []
        for _ in range(rng_clauses.randint(4, 10)):
            width = rng_clauses.randint(2, 3)
            lits = rng_clauses.sample(range(1, num_vars + 1), width)
            grown.append(
                [v if rng_clauses.random() < 0.5 else -v for v in lits]
            )
        assumptions = [
            v if rng_assumptions.random() < 0.5 else -v
            for v in range(1, num_vars + 1)
            if rng_assumptions.random() < 0.4
        ]
        round_verdicts = {}
        cores = {}
        for kernel, solver in raw.items():
            for clause in grown:
                solver.add_clause(clause)
            start = time.perf_counter()
            result = solver.solve(assumptions=assumptions, need_model=False)
            seconds[kernel] += time.perf_counter() - start
            round_verdicts[kernel] = result.satisfiable
            if result.satisfiable is False:
                cores[kernel] = result.core
                if result.core is None or not set(result.core) <= set(assumptions):
                    failures.append(f"{name}/{kernel}: core not a subset")
        if len(set(round_verdicts.values())) != 1:
            failures.append(f"{name}: round verdict divergence {round_verdicts}")
        # Cross-validate cores on the *other* kernel.
        for kernel, core in cores.items():
            for other, solver in raw.items():
                if core and solver.solve(assumptions=core).satisfiable is not False:
                    failures.append(
                        f"{name}: {kernel}'s core is not UNSAT on {other}"
                    )
        trace = round_verdicts
    for kernel, solver in raw.items():
        entry["kernels"][kernel] = _snapshot(solver, trace[kernel], seconds[kernel])
    return entry


#: The conflict-quality knob configurations the sweep compares: everything
#: off (the classic baseline), each heuristic alone, and everything on
#: (the default).  Per-knob attribution of any trajectory change.
KNOB_CONFIGS = {
    "classic": dict(lbd_tiers=False, phase_saving=False, minimize=False),
    "lbd-tiers": dict(lbd_tiers=True, phase_saving=False, minimize=False),
    "phase-saving": dict(lbd_tiers=False, phase_saving=True, minimize=False),
    "minimize": dict(lbd_tiers=False, phase_saving=False, minimize=True),
    "all-on": dict(lbd_tiers=True, phase_saving=True, minimize=True),
}


def bench_knob_sweep(name, cnf, expected, failures):
    """The conflict-quality knobs, swept per kernel on one fixed CNF.

    Gated on every configuration of every kernel agreeing on the verdict
    (and with the expected one where known) and producing valid models on
    SAT — the heuristics may only change *how* the search runs, never what
    it concludes.  The per-configuration counters (LBD mass, minimised
    literals, phase hits) are the attribution record.
    """
    entry = {"workload": name, "expected_sat": expected, "kernels": {}}
    verdicts = {}
    for kernel, cls in KERNELS.items():
        entry["kernels"][kernel] = {}
        for config_name, knobs in KNOB_CONFIGS.items():
            solver = cls(cnf, **knobs)
            start = time.perf_counter()
            result = solver.solve()
            seconds = time.perf_counter() - start
            entry["kernels"][kernel][config_name] = _snapshot(
                solver, result.satisfiable, seconds
            )
            verdicts[(kernel, config_name)] = result.satisfiable
            if result.satisfiable and not _model_ok(result, cnf):
                failures.append(
                    f"{name}/{kernel}/{config_name}: SAT model violates a clause"
                )
    if expected is not None and any(v is not expected for v in verdicts.values()):
        failures.append(f"{name}: verdicts {verdicts} != expected {expected}")
    if len(set(verdicts.values())) != 1:
        failures.append(f"{name}: knob verdict divergence {verdicts}")
    return entry


def bench_engine_query(name, smoke, failures):
    """Engine-level workloads through the real bit-blasting pipeline."""
    entry = {"workload": name, "kernels": {}}
    verdicts = {}
    xlen = 4 if smoke else 8
    for kernel in KERNELS:
        ts = lockstep_accumulators(f"bk_{kernel}", xlen=xlen)
        start = time.perf_counter()
        with _pinned_kernel(kernel):
            bmc = BmcEngine(ts).check("consistent", bound=8 if smoke else 12)
            pdr = PdrEngine(ts, max_frames=10).prove("consistent")
        seconds = time.perf_counter() - start
        verdicts[kernel] = (bmc.holds, pdr.proven)
        stats = pdr.stats.solver_stats
        entry["kernels"][kernel] = {
            "verdict": {"bmc_holds_to_8": bmc.holds, "pdr_proven": pdr.proven},
            "seconds": round(seconds, 4),
            "conflicts": stats.conflicts,
            "propagations": stats.propagations,
            "decisions": stats.decisions,
            "restarts": stats.restarts,
            "learned_clauses": stats.learned_clauses,
            "pdr_frames": pdr.frames_explored,
        }
        if bmc.holds is not True or pdr.proven is not True:
            failures.append(
                f"{name}/{kernel}: expected holds+proven, got "
                f"bmc={bmc.holds} pdr={pdr.proven}"
            )
    if len(set(verdicts.values())) != 1:
        failures.append(f"{name}: kernel verdict divergence {verdicts}")
    return entry


def bench_golden_pdr(name, failures):
    """Frame-bounded PDR on the golden QED model — the paper workload.

    Gated on verdict agreement between the kernels.  Counters are
    reported per kernel but deliberately *not* required to match: the
    arena kernel's blocker fast path skips satisfied clauses that the
    reference kernel would relocate to another watch list, so the two
    watch orders (and hence propagation/decision/conflict totals)
    legitimately drift apart on large instances even with every
    conflict-quality knob disabled.  Disabling the blocker path restores
    exact lockstep — the drift is watch-order bookkeeping, not a search
    or correctness difference.
    """
    from repro.core.flow import SqedFlow
    from repro.isa.config import IsaConfig
    from repro.proc.config import ProcessorConfig

    entry = {"workload": name, "kernels": {}}
    verdicts = {}
    for kernel in KERNELS:
        isa = IsaConfig.small(xlen=4, num_regs=4)
        config = ProcessorConfig(isa=isa, supported_ops=("ADD", "SUB"))
        flow = SqedFlow(config)
        start = time.perf_counter()
        with _pinned_kernel(kernel):
            outcome = flow.prove(None, engine="pdr", max_frames=3)
        seconds = time.perf_counter() - start
        stats = outcome.pdr_result.stats.solver_stats
        verdicts[kernel] = outcome.proven
        entry["kernels"][kernel] = {
            "verdict": outcome.proven,
            "seconds": round(seconds, 4),
            "conflicts": stats.conflicts,
            "propagations": stats.propagations,
            "decisions": stats.decisions,
            "restarts": stats.restarts,
            "learned_clauses": stats.learned_clauses,
        }
        if outcome.proven is False:
            failures.append(f"{name}/{kernel}: PDR fabricated a counterexample")
    if len(set(verdicts.values())) != 1:
        failures.append(f"{name}: kernels disagreed on the verdict {verdicts}")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small suite for CI")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    failures: list[str] = []
    workloads = [
        bench_oneshot(
            "pigeonhole-unsat",
            _pigeonhole(*((5, 4) if args.smoke else (8, 7))),
            False,
            failures,
        ),
        bench_oneshot(
            "random-3sat-sat",
            _random_3sat(7, 40 if args.smoke else 150, 150 if args.smoke else 600),
            None,
            failures,
        ),
        bench_incremental_cores(
            "incremental-cores",
            1234,
            6 if args.smoke else 40,
            failures,
            num_vars=14 if args.smoke else 40,
        ),
        bench_engine_query("lockstep-bmc-pdr", args.smoke, failures),
        bench_knob_sweep(
            "pigeonhole-knob-sweep",
            _pigeonhole(*((5, 4) if args.smoke else (7, 6))),
            False,
            failures,
        ),
    ]
    if not args.smoke:
        workloads.append(bench_golden_pdr("qed-golden-pdr-frames3", failures))

    report = {
        "benchmark": "sat-kernel",
        "smoke": args.smoke,
        "workloads": workloads,
        "failures": failures,
        "gate": "verdict agreement + model/core validity only (never wall-clock)",
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if failures:
        print(f"FAILED: {len(failures)} correctness gate(s) tripped", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
