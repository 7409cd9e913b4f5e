"""One benchmark process: set up one workload, run its job list, report.

Run by ``perfbench/run.py``; every process runs exactly one workload, so
``ru_maxrss`` and the process-global term table describe that workload
alone.  Protocol: the first stdout line is ``ready`` once set-up is done
(the parent times process start to this line); the last line is a JSON
report.  With ``--setup-only`` the process exits right after ``ready``.

    python3 perfbench/worker.py --workload hunt --seed 1 --seconds 25 [--timed]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


#: Seconds ``calibrate`` takes on the reference host, a 2-CPU x86-64
#: container (Intel Xeon, 2.1 GHz), when no other tenant loads it.
CALIBRATION_REF_S = 0.0015


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop (1.5-2.5 ms).

    The host is shared: identical work takes 20-40 % longer while other
    tenants load it.  The loop slows with the host, so dividing a job's
    time by the loop's time around it takes most of that drift out.
    """
    data = list(range(256))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += data[i & 255] * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def config_record() -> dict:
    """Resolved process defaults (through the public resolvers) and host."""
    from repro.lint.gate import default_gate_mode
    from repro.pdr.engine import default_ctg_depth
    from repro.sat.sanitize import default_sanitize
    from repro.solve.backend import default_sat_kernel
    from repro.solve.pipeline import PipelineConfig

    pipeline = PipelineConfig.resolve(None)
    return {
        "opt_level": pipeline.opt_level,
        "absint": pipeline.absint,
        "sat_kernel": default_sat_kernel(),
        "ctg_depth": default_ctg_depth(),
        "sanitize": default_sanitize(),
        "lint_gate": default_gate_mode(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _status(verdict) -> str:
    from workloads import BUDGET_EXHAUSTED

    if verdict is None:
        return "ok"
    return "budget" if verdict == BUDGET_EXHAUSTED else "wrong"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--timed", action="store_true", help="record layer spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans here")
    args = parser.parse_args()

    import tracer as tr
    import workloads

    tracer = tr.Tracer(timed=args.timed)
    tr.install(tracer)
    jobs = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from repro.smt.terms import default_manager

    job_ns: list[int] = []
    calibration = [calibrate()]
    budget_hits: list[int] = []
    raised: dict[int, Exception] = {}
    job_span = tracer.name_id(tr.JOB_SPAN)
    for index, job in enumerate(jobs):
        tracer.job = index
        unknown = tracer.counters["sat.answers.unknown"]
        start = time.perf_counter_ns()
        span = tracer.open(job_span) if tracer.timed else -1
        try:
            job.outcome = job.run()
        except Exception as exc:  # a crashing job is a failed job, not a crash
            raised[index] = exc
        if tracer.timed:
            tracer.close(span)
        job_ns.append(time.perf_counter_ns() - start)
        budget_hits.append(tracer.counters["sat.answers.unknown"] - unknown)
        calibration.append(calibrate())
    tracer.job = -1
    job_seconds = [ns / 1e9 for ns in job_ns]
    # Each job's time at the reference host speed: scaled by the
    # calibration loop's time just before and just after the job.
    job_ref_seconds = [
        sec * 2 * CALIBRATION_REF_S / (calibration[i] + calibration[i + 1])
        for i, sec in enumerate(job_seconds)
    ]
    wall_ns = sum(job_ns)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counters = dict(tracer.counters)
    counters["smt.terms"] = default_manager().num_terms()

    layers = tr.layer_metrics(tracer, wall_ns) if tracer.timed else {}
    if args.spans and tracer.timed:
        tracer.write(args.spans)

    # Verdict checks run outside the timed region.
    for index, (job, hits) in enumerate(zip(jobs, budget_hits)):
        if index in raised:
            exc = raised[index]
            job.verdict = f"raised {type(exc).__name__}: {exc}"
        else:
            job.verdict = job.check(job.outcome)
        if job.verdict is None and hits:
            # A query gave up: the job's "no result" is not a verified answer.
            job.verdict = workloads.BUDGET_EXHAUSTED

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "timed": args.timed,
        "config": config_record(),
        "wall_s": wall_ns / 1e9,
        "wall_ref_s": sum(job_ref_seconds),
        "calibration_s": calibration,
        "peak_rss_mb": peak_rss_mb,
        "jobs": [
            {
                "name": job.name,
                "seconds": sec,
                "ref_seconds": ref,
                "status": _status(job.verdict),
                "verdict": job.verdict,
                "budget_hits": hits,
                "facts": {} if index in raised else job.facts(job.outcome),
            }
            for index, (job, sec, ref, hits) in enumerate(
                zip(jobs, job_seconds, job_ref_seconds, budget_hits)
            )
        ],
        "counters": counters,
        "layers": layers,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
