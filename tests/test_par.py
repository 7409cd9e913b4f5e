"""Tests for the parallel subsystem (`repro.par`).

The load-bearing guarantees:

* pooled runs return *the same verdicts in the same order* as their
  sequential counterparts,
* ``jobs=1`` degenerates to the plain in-process sequential path,
* a crashing worker fails its own task and nothing else.
"""

from __future__ import annotations

import os

import pytest

from repro.core.flow import SqedFlow
from repro.isa.config import IsaConfig
from repro.proc.bugs import get_bug
from repro.proc.config import ProcessorConfig
from repro.par import ParError, TaskPool, resolve_jobs


def _square(x):
    return x * x


def _crash_on_three(x):
    if x == 3:
        os._exit(13)
    return x


def _reciprocal(x):
    return 1 // x


class TestTaskPool:
    def test_results_in_task_order(self):
        results = TaskPool(jobs=4).run(_square, list(range(12)))
        assert [r.index for r in results] == list(range(12))
        assert [r.value for r in results] == [i * i for i in range(12)]
        assert all(r.ok for r in results)

    def test_jobs1_runs_in_process(self):
        pids = TaskPool(jobs=1).map(lambda _: os.getpid(), [0, 1, 2])
        assert pids == [os.getpid()] * 3

    def test_forked_workers_run_out_of_process(self):
        pids = TaskPool(jobs=2).map(lambda _: os.getpid(), [0, 1, 2, 3])
        assert all(pid != os.getpid() for pid in pids)

    def test_empty_task_list(self):
        assert TaskPool(jobs=4).run(_square, []) == []

    def test_single_task_stays_sequential(self):
        pids = TaskPool(jobs=4).map(lambda _: os.getpid(), [0])
        assert pids == [os.getpid()]

    def test_exception_reported_not_raised(self):
        results = TaskPool(jobs=2).run(_reciprocal, [1, 0, 1])
        assert [r.ok for r in results] == [True, False, True]
        assert "ZeroDivisionError" in results[1].error
        with pytest.raises(ParError):
            TaskPool(jobs=2).map(_reciprocal, [1, 0, 1])

    def test_exception_reported_sequentially_too(self):
        results = TaskPool(jobs=1).run(_reciprocal, [1, 0, 1])
        assert [r.ok for r in results] == [True, False, True]

    def test_worker_crash_fails_only_its_task(self):
        results = TaskPool(jobs=3).run(_crash_on_three, list(range(7)))
        assert [r.ok for r in results] == [True, True, True, False, True, True, True]
        assert "crashed" in results[3].error
        assert [r.value for r in results if r.ok] == [0, 1, 2, 4, 5, 6]

    def test_resolve_jobs(self):
        usable = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == usable
        assert resolve_jobs(0) == usable
        with pytest.raises(ParError):
            resolve_jobs(-1)

    def test_resolve_jobs_counts_only_usable_cpus(self, monkeypatch):
        # Under an affinity mask (cpuset, taskset) the process may run on
        # fewer CPUs than the machine has; one worker per CPU means those.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(None) == 1


class TestFlowJobs:
    """The `jobs` knob on the verification flows (tiny 4-bit datapath)."""

    @pytest.fixture(scope="class")
    def tiny_flow(self):
        isa = IsaConfig.small(xlen=4, num_regs=4)
        config = ProcessorConfig(isa=isa, supported_ops=("ADD", "SUB"))
        return SqedFlow(config)

    def test_run_many_orders_and_matches(self, tiny_flow):
        bugs = [get_bug("multi_no_forward_ex_rs1"), get_bug("multi_no_forward_ex_rs2")]
        parallel = tiny_flow.run_many(bugs, bound=7, jobs=2)
        sequential = tiny_flow.run_many(bugs, bound=7, jobs=1)
        assert any(o.detected for o in sequential)
        assert [o.bug_name for o in parallel] == [b.name for b in bugs]
        assert [(o.bug_name, o.detected, o.counterexample_length) for o in parallel] == [
            (o.bug_name, o.detected, o.counterexample_length) for o in sequential
        ]

    def test_env_pins_reach_forked_workers(self, tiny_flow, monkeypatch):
        # Neither flows nor configs carry a pipeline level: a pin reaches a
        # worker only by fork inheritance of the environment.
        bugs = [get_bug("multi_no_forward_ex_rs1"), get_bug("multi_no_forward_ex_rs2")]
        flow = SqedFlow(tiny_flow.config, jobs=2)

        def encodings():
            return [o.bmc_result.stats.encoding for o in flow.run_many(bugs, bound=7)]

        monkeypatch.setenv("REPRO_OPT_LEVEL", "0")
        assert [e.opt_level for e in encodings()] == [0, 0]
        monkeypatch.setenv("REPRO_OPT_LEVEL", "2")
        monkeypatch.setenv("REPRO_ABSINT", "1")
        assert all(e.opt_level == 2 and e.absint_bits_folded > 0 for e in encodings())
        monkeypatch.setenv("REPRO_ABSINT", "0")
        assert [e.absint_bits_folded for e in encodings()] == [0, 0]
