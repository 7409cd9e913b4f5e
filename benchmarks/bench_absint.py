#!/usr/bin/env python
"""Abstract-interpretation benchmark: facts, folds and seeded lemmas (JSON).

The :mod:`repro.absint` layer must pay its way *and* stay invisible in
verdicts.  This benchmark runs the fixpoint over the PDR design gallery
plus a seeded bug-zoo sample and gates on four conditions, all
hardware-independent per the single-CPU host rule (wall-clock is reported
for information only, never gated on):

* **soundness** — every derived fact survives the bounded random
  simulation cross-check (``validate_by_simulation`` aborts on the first
  violation);
* **verdict identity** — BMC with ``absint`` on and off agrees on every
  workload's verdict, bound and counterexample frame (``--verdict-bound``,
  default 7, reaches every gallery/zoo counterexample);
* **clause reduction** — at least one design encodes to strictly fewer
  backend clauses at ``--size-bound`` (default 10) with the fold enabled
  (constant-latch/bit folding must actually shrink something);
* **lemma seeding** — at least one PDR run admits at least one seeded
  frame-∞ lemma through the Init-disjointness + consecution filter.

``--smoke`` shrinks the zoo sample and the simulation budget for the CI
job; the full run is committed as ``BENCH_absint.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_absint.py [--smoke] [--out results.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from _pin import pinned_env
from repro.absint import analyze, latch_facts, validate_by_simulation
from repro.bmc.engine import BmcSession
from repro.errors import AbsintError, ReproError
from repro.lint.cli import _gallery, _zoo_targets
from repro.pdr.engine import PdrEngine
from repro.pdr.invariant import check_invariant

#: Designs whose property PDR should prove (the clean gallery) — these are
#: the runs eligible for the seeded-lemma gate.
PDR_PROVABLE = {
    "saturating_counter",
    "lockstep_accumulators",
    "pipelined_accumulators",
}


def _pinned(absint: bool):
    """Opt level 2 with the absint layer on or off, through the env."""
    return pinned_env(REPRO_OPT_LEVEL="2", REPRO_ABSINT=str(int(absint)))


def _analyze_target(name: str, ts, sim_runs: int) -> dict:
    start = time.perf_counter()
    analysis = analyze(ts)
    seconds = time.perf_counter() - start
    entry = {
        "latches": len(ts.states),
        "state_bits": ts.num_state_bits(),
        "facts": analysis.fact_count(),
        "known_bits": analysis.known_bit_count(),
        "seq_const_latches": sorted(analysis.seq_const),
        "iterations": analysis.iterations,
        "widenings": analysis.widenings,
        "values": {
            fact.name: fact.value.describe() for fact in latch_facts(ts, analysis)
        },
        "fixpoint_seconds": round(seconds, 3),
    }
    try:
        entry["simulation_checks"] = validate_by_simulation(
            ts, analysis, runs=sim_runs, steps=10, seed=0xAB51
        )
        entry["simulation_validated"] = True
    except AbsintError as exc:
        entry["simulation_validated"] = False
        entry["simulation_error"] = str(exc)
    return entry


def _bmc_differential(ts, prop: str, verdict_bound: int, size_bound: int) -> dict:
    entry: dict = {"property": prop, "by_absint": {}}
    for absint in (False, True):
        with _pinned(absint):
            session = BmcSession(ts, prop)
            start = time.perf_counter()
            result = session.extend_to(verdict_bound)
            solve_seconds = time.perf_counter() - start
            sizes = BmcSession(ts, prop).encode_to(size_bound)
        entry["by_absint"][str(int(absint))] = {
            "holds": result.holds,
            "cex_length": result.counterexample_length,
            "cnf_clauses_post": sizes.cnf_clauses_post,
            "cnf_clauses_pre": sizes.cnf_clauses_pre,
            "cnf_vars": sizes.cnf_vars,
            "solve_seconds": round(solve_seconds, 2),
        }
    on, off = entry["by_absint"]["1"], entry["by_absint"]["0"]
    entry["verdict_identical"] = (on["holds"], on["cex_length"]) == (
        off["holds"],
        off["cex_length"],
    )
    entry["clauses_folded"] = off["cnf_clauses_post"] - on["cnf_clauses_post"]
    return entry


def _pdr_run(name: str, ts, prop: str) -> dict:
    with _pinned(True):
        engine = PdrEngine(ts)
    start = time.perf_counter()
    result = engine.prove(prop)
    seconds = time.perf_counter() - start
    entry = {
        "property": prop,
        "proven": result.proven,
        "frames_explored": result.frames_explored,
        "seed_lemmas_admitted": result.stats.seed_lemmas_admitted,
        "seed_lemmas_rejected": result.stats.seed_lemmas_rejected,
        "consecution_queries": result.stats.consecution_queries,
        "seconds": round(seconds, 2),
    }
    if result.proven and result.invariant is not None:
        check = check_invariant(ts, prop, result.invariant)
        entry["invariant_recheck"] = check.valid
    return entry


def run_benchmark(zoo_count: int, sim_runs: int, verdict_bound: int, size_bound: int) -> dict:
    targets = [
        (f"design:{name}", build()) for name, build in sorted(_gallery().items())
    ]
    targets += _zoo_targets(zoo_count, seed=1234)

    workloads = []
    for name, ts in targets:
        entry = {"name": name, "absint": _analyze_target(name, ts, sim_runs)}
        entry["bmc"] = [
            _bmc_differential(ts, prop, verdict_bound, size_bound)
            for prop in sorted(ts.properties)
        ]
        design = name.removeprefix("design:")
        if design in PDR_PROVABLE:
            prop = next(iter(ts.properties))
            entry["pdr"] = _pdr_run(design, ts, prop)
        workloads.append(entry)
    return {"workloads": workloads}


def evaluate_gates(report: dict) -> dict:
    validated = all(
        w["absint"]["simulation_validated"] for w in report["workloads"]
    )
    verdicts_ok = all(
        bmc["verdict_identical"]
        for w in report["workloads"]
        for bmc in w["bmc"]
    )
    max_folded = max(
        bmc["clauses_folded"]
        for w in report["workloads"]
        for bmc in w["bmc"]
    )
    pdr_runs = [w["pdr"] for w in report["workloads"] if "pdr" in w]
    seeded = sum(run["seed_lemmas_admitted"] for run in pdr_runs)
    pdr_ok = all(
        run["proven"] is True and run.get("invariant_recheck", False)
        for run in pdr_runs
    )
    gates = {
        "simulation_gate": "passed" if validated else "FAILED",
        "verdict_gate": "passed" if verdicts_ok else "FAILED",
        "fold_gate": (
            "passed" if max_folded > 0 else "FAILED"
        ),
        "max_clauses_folded": max_folded,
        "seed_gate": "passed" if (seeded >= 1 and pdr_ok) else "FAILED",
        "seed_lemmas_admitted_total": seeded,
    }
    gates["passed"] = all(
        value == "passed"
        for key, value in gates.items()
        if key.endswith("_gate")
    )
    return gates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI budget: smaller zoo sample and simulation budget "
        "(the gates themselves are identical)",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--zoo-count",
        type=int,
        default=None,
        help="bug-zoo instances to include (default 8, smoke 4)",
    )
    parser.add_argument(
        "--sim-runs",
        type=int,
        default=None,
        help="random simulation runs per target (default 120, smoke 30)",
    )
    parser.add_argument(
        "--verdict-bound",
        type=int,
        default=7,
        help="BMC bound solved for the verdict-identity gate (default 7)",
    )
    parser.add_argument(
        "--size-bound",
        type=int,
        default=10,
        help="BMC bound encoded for the clause-reduction gate (default 10)",
    )
    args = parser.parse_args(argv)

    zoo_count = args.zoo_count if args.zoo_count is not None else (4 if args.smoke else 8)
    sim_runs = args.sim_runs if args.sim_runs is not None else (30 if args.smoke else 120)

    try:
        report = run_benchmark(
            zoo_count, sim_runs, args.verdict_bound, args.size_bound
        )
    except ReproError as exc:
        print(f"bench_absint: fatal engine error: {exc}", file=sys.stderr)
        return 1
    gates = evaluate_gates(report)
    report = {
        "benchmark": "absint",
        "smoke": args.smoke,
        "zoo_count": zoo_count,
        "sim_runs": sim_runs,
        "verdict_bound": args.verdict_bound,
        "size_bound": args.size_bound,
        **report,
        **gates,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    for key in ("simulation_gate", "verdict_gate", "fold_gate", "seed_gate"):
        print(f"{key}: {report[key]}")
    return 0 if gates["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
