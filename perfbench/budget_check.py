"""Show that the synth workload's conflict budget binds only on MUL-family cases.

The synth job list runs the MUL-family cases last, so the other 22 cases
form a prefix that no MUL-family case can influence.  This script runs that
prefix twice, each time in a fresh process — with the workload's per-query
conflict budget and with none — and requires every per-case work counter
to match.  Run from the repository root (takes about a minute):

    python3 perfbench/budget_check.py [--seconds 25]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

COUNTERS = (
    "sat.solve.calls",
    "sat.decisions",
    "sat.conflicts",
    "sat.propagations",
    "synth.cegis.calls",
    "synth.cegis.iterations",
    "synth.cegis.programs",
)


def prefix_counters(seconds: int, budget) -> list[list]:
    """Per-case counter deltas over the non-MUL-family prefix."""
    tracer = tr.Tracer(timed=False)
    tr.install(tracer)
    rows = []
    for job in workloads.synth_jobs(0, seconds, conflict_budget=budget):
        if workloads.is_mul_family(job.name.split(":", 1)[1]):
            break
        before = dict(tracer.counters)
        job.run()
        rows.append(
            [job.name] + [tracer.counters[k] - before.get(k, 0) for k in COUNTERS]
        )
    return rows


def _in_fresh_process(seconds: int, budget: str) -> list[list]:
    out = subprocess.run(
        [sys.executable, __file__, "--seconds", str(seconds), "--one", budget],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--one", choices=("default", "none"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        limit = workloads.SYNTH_CONFLICT_BUDGET if args.one == "default" else None
        print(json.dumps(prefix_counters(args.seconds, limit)))
        return 0
    budgeted = _in_fresh_process(args.seconds, "default")
    unbounded = _in_fresh_process(args.seconds, "none")
    for a, b in zip(budgeted, unbounded):
        if a != b:
            print(f"{a[0]}: with budget {a[1:]}, without {b[1:]}")
    same = budgeted == unbounded
    print(f"{len(budgeted)} non-MUL cases, counters identical: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
