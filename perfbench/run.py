"""Paper-workload benchmark: seeded bug hunts, golden PDR, HPF synthesis.

    python3 perfbench/run.py --workload hunt|prove|synth --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Each workload runs one job after another in
a single worker process (closed loop, one client, no worker pool); see
``workloads.py`` for the job lists and why each workload was chosen.

``--trace 0`` prints the end-to-end metrics, measured with no spans:
``setup_s`` (median over several fresh processes of process start to the
first job being ready, scaled like ``wall_ref_s``), ``wall_ref_s`` and
``peak_rss_mb``.
``wall_ref_s`` is the job list's host time with each job scaled to the
reference host speed by a calibration loop timed around it (see
``worker.calibrate``); the host is shared, and unscaled times of identical
work spread by 25-30 % between runs.  The report line adds the unscaled
``wall_s``, ``job_p50_s`` with the job count, ``job_tail_s`` (the highest
percentile with ten jobs beyond it), ``failed_frac`` and, for synth,
``solved_frac``.  These stay out of the summary: the median job of a
workload that mixes job kinds jumps between kinds from run to run, and
the fractions are 0 on most workloads.

``--trace 1`` runs the job list twice, in two fresh processes: once
untimed and once with a span around every layer's public entry points.  It
prints the per-layer metrics (self times, work counters, ratios),
``other.ms`` and ``trace.overhead_pct``, and fails the run when a
deterministic work counter differs between the two processes.

Every job's verdict is checked after the timed region by code independent
of the path under test.  The line before the last is a ``report`` JSON
object with everything measured (per-job times, verdicts, counters, the
resolved configuration and host); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
only when every check passed; it never depends on a timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import DETERMINISTIC
from worker import CALIBRATION_REF_S, calibrate

HERE = Path(__file__).resolve().parent
START = time.perf_counter()
WORKER = HERE / "worker.py"
#: Fresh processes timed for ``setup_s`` besides the measured run itself.
SETUP_PROBES = 8
#: Seconds after which a run gives up (every worker is killed).
DEADLINE_SECONDS = 170

#: Per-layer metrics with their units; every one is printed by a traced run.
LAYER_UNITS = {
    "sat.pre.flush.ms": "ms",
    "sat.pre.require.ms": "ms",
    "sat.pre.extend.ms": "ms",
    "sat.pre.vars_eliminated": "count",
    "sat.pre.clause_ratio": "ratio",
    "sat.solve.ms": "ms",
    "sat.solve.calls": "count",
    "sat.answers.sat": "count",
    "sat.answers.unsat": "count",
    "sat.answers.unknown": "count",
    "sat.decisions": "count",
    "sat.propagations": "count",
    "sat.conflicts": "count",
    "sat.learned": "count",
    "sat.decisions_per_conflict": "ratio",
    "sat.props_per_ms": "1/ms",
    "solve.check.ms": "ms",
    "solve.check.calls": "count",
    "smt.blast.ms": "ms",
    "smt.terms": "count",
    "aig.lower.ms": "ms",
    "aig.nodes": "count",
    "cnf.clauses_pre": "count",
    "ts.coi.ms": "ms",
    "ts.coi.states_dropped": "count",
    "ts.unroll.ms": "ms",
    "absint.analyze.ms": "ms",
    "absint.fold.ms": "ms",
    "absint.bits_folded": "count",
    "qed.build.ms": "ms",
    "qed.build.calls": "count",
    "bmc.frames.ms": "ms",
    "bmc.frames_checked": "count",
    "bmc.trace.ms": "ms",
    "pdr.self.ms": "ms",
    "pdr.queries": "count",
    "pdr.obligations": "count",
    "pdr.ctgs_blocked": "count",
    "pdr.lemmas_inf": "count",
    "pdr.literals_dropped": "count",
    "pdr.decisions_per_query": "ratio",
    "synth.rank.ms": "ms",
    "synth.cegis.ms": "ms",
    "synth.cegis.calls": "count",
    "synth.cegis.iterations": "count",
    "synth.encode.ms": "ms",
    "synth.programs_per_call": "ratio",
    "synth.budget_exhausted": "count",
    "other.ms": "ms",
    "trace.wall.ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _worker(args, *extra: str) -> tuple[float, subprocess.Popen]:
    """Start a worker; return its set-up time and the process.

    The set-up time runs from process start to the ``ready`` line, scaled to
    the reference host speed by the calibration loop timed just before and
    just after it (as ``worker.py`` scales job times).
    """
    command = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    before = calibrate()
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    first = proc.stdout.readline().strip()
    setup = time.perf_counter() - start
    setup *= 2 * CALIBRATION_REF_S / (before + calibrate())
    if first != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (got {first!r})")
    return setup, proc


def _wait(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=DEADLINE_SECONDS - (time.perf_counter() - START))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"run exceeded {DEADLINE_SECONDS} s")
    return out


def _finish(proc: subprocess.Popen) -> dict:
    out = _wait(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _setup_probe(args) -> float:
    setup, proc = _worker(args, "--setup-only")
    _wait(proc)
    return setup


def _measure(args, *extra: str) -> tuple[float, dict]:
    setup, proc = _worker(args, *extra)
    return setup, _finish(proc)


def _tail(times: list[float]) -> dict | None:
    """Highest percentile of job time with at least ten jobs beyond it."""
    ordered = sorted(times)
    index = len(ordered) - 11
    if index < 0:
        return None
    return {
        "value": ordered[index],
        "percentile": round(100.0 * (index + 1) / len(ordered), 1),
        "jobs": len(ordered),
    }


def _job_summary(report: dict) -> dict:
    jobs = report["jobs"]
    wrong = [j for j in jobs if j["status"] == "wrong"]
    budget = [j for j in jobs if j["status"] == "budget"]
    summary = {
        "jobs": len(jobs),
        "wrong": len(wrong),
        "budget_exhausted": len(budget),
        "failed_frac": (len(wrong) + len(budget)) / len(jobs),
        "failures": [
            {"job": j["name"], "cause": j["verdict"], **j["facts"]} for j in wrong + budget
        ],
        "job_p50_s": statistics.median(j["seconds"] for j in jobs),
        "job_tail_s": _tail([j["seconds"] for j in jobs]),
    }
    if report["workload"] == "synth":
        solved = [j for j in jobs if j["status"] == "ok" and j["facts"]["programs"]]
        summary["solved_frac"] = len(solved) / len(jobs)
    return summary


def _layer_metrics(plain: dict, traced: dict) -> dict[str, float]:
    c = traced["counters"]
    values = {name: float(c.get(name, 0)) for name in LAYER_UNITS}
    values.update(traced["layers"])
    values["sat.pre.clause_ratio"] = _ratio(
        c.get("sat.pre.clauses_out", 0), c.get("cnf.clauses_pre", 0)
    )
    values["sat.decisions_per_conflict"] = _ratio(
        c.get("sat.decisions", 0), c.get("sat.conflicts", 0)
    )
    values["sat.props_per_ms"] = _ratio(
        c.get("sat.propagations", 0), values.get("sat.solve.ms", 0.0)
    )
    values["pdr.decisions_per_query"] = _ratio(
        c.get("pdr.decisions", 0), c.get("pdr.queries", 0)
    )
    values["synth.programs_per_call"] = _ratio(
        c.get("synth.cegis.programs", 0), c.get("synth.cegis.calls", 0)
    )
    values["synth.budget_exhausted"] = float(_job_summary(traced)["budget_exhausted"])
    values["trace.wall.ms"] = traced["wall_s"] * 1e3
    values["trace.overhead_pct"] = 100.0 * (
        traced["wall_ref_s"] / plain["wall_ref_s"] - 1.0
    )
    return {name: values.get(name, 0.0) for name in LAYER_UNITS}


def run(args) -> tuple[dict, dict]:
    # A traced run prints no set-up time, so it skips the extra probes.
    setup_samples = [_setup_probe(args) for _ in range(0 if args.trace else SETUP_PROBES)]
    setup, plain = _measure(args)
    setup_samples.append(setup)
    reports = [plain]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "closed_loop": {"clients": 1, "jobs": 1},
        "config": plain["config"],
        "config_id": hashlib.sha1(
            json.dumps(plain["config"], sort_keys=True).encode()
        ).hexdigest()[:12],
        "setup_samples_s": setup_samples,
        "untraced": {
            k: plain[k] for k in ("wall_s", "wall_ref_s", "peak_rss_mb", "counters")
        },
        "summary": _job_summary(plain),
        "job_seconds": {j["name"]: j["seconds"] for j in plain["jobs"]},
        "job_ref_seconds": {j["name"]: j["ref_seconds"] for j in plain["jobs"]},
    }
    problems = [
        f"{j['name']}: {j['verdict']}" for j in plain["jobs"] if j["status"] == "wrong"
    ]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_ref_s": (plain["wall_ref_s"], "s"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
    }
    if args.trace:
        spans = Path(".perfbench")
        spans.mkdir(exist_ok=True)
        _, traced = _measure(
            args, "--timed", "--spans", str(spans / f"spans-{args.workload}.tsv")
        )
        reports.append(traced)
        layers = _layer_metrics(plain, traced)
        metrics = {name: (value, LAYER_UNITS[name]) for name, value in layers.items()}
        report["traced"] = {
            k: traced[k] for k in ("wall_s", "wall_ref_s", "counters")
        }
        for name in DETERMINISTIC:
            a, b = plain["counters"].get(name, 0), traced["counters"].get(name, 0)
            if a != b:
                problems.append(f"counter {name} differs: untraced {a}, traced {b}")
    if any(r["config"] != plain["config"] for r in reports):
        report["config_mismatch"] = True
    report["problems"] = problems
    summary = {
        "correct": not problems,
        "attempted": report["summary"]["jobs"],
        "failed": report["summary"]["wrong"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return report, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("hunt", "prove", "synth"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (HERE.parent / "src" / "repro").is_dir():
        print("perfbench: run from a checkout that holds src/repro", file=sys.stderr)
        return 2
    try:
        report, summary = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("report " + json.dumps(report))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
