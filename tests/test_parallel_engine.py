"""Tests for the run-sharding engine: deterministic ordering, the
sequential fallbacks, and the fault paths (a task that raises, a worker
that dies) — each leaving no child process behind."""

import multiprocessing
import os

import pytest

from repro.parallel import ParallelEngine
from repro.parallel import engine as engine_mod
from repro.parallel.engine import effective_cpu_count, fork_available

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")


def _square_task(context, item):
    return (context["offset"] + item) ** 2


def _failing_task(context, item):
    if item == 3:
        raise ValueError("boom")
    return item


def _dies_in_worker_task(context, item):
    if os.getpid() != context["parent"]:
        os._exit(1)
    return item * 10


def _pid_task(context, item):
    return os.getpid()


class TestEngineMap:
    def test_workers_one_never_forks(self):
        engine = ParallelEngine(workers=1)
        assert not engine.parallel
        assert engine.map(_square_task, [1, 2], {"offset": 0}) == [1, 4]
        assert engine.parallel_maps == 0
        assert engine.sequential_maps == 1

    def test_single_item_runs_in_the_caller(self, two_cpus):
        engine = ParallelEngine(workers=2)
        assert engine.map(_pid_task, [0], None) == [os.getpid()]
        assert engine.parallel_maps == 0

    @needs_fork
    def test_parallel_map_preserves_order(self, two_cpus):
        engine = ParallelEngine(workers=2)
        ctx = {"offset": 2}
        result = engine.map(_square_task, range(8), ctx)
        assert result == [(2 + i) ** 2 for i in range(8)]
        assert engine.parallel_maps == 1
        assert engine.tasks_dispatched == 8
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_pool_is_no_larger_than_the_map(self, two_cpus):
        engine = ParallelEngine(workers=8)
        assert engine.pool_size(2) == 2
        pids = engine.map(_pid_task, range(2), None)
        assert os.getpid() not in pids

    @needs_fork
    def test_worker_exception_propagates(self, two_cpus):
        engine = ParallelEngine(workers=2)
        with pytest.raises(ValueError, match="boom"):
            engine.map(_failing_task, [1, 2, 3, 4], object())

    @needs_fork
    def test_failing_task_tears_down_and_recovers_pool(self, two_cpus):
        """A task exception mid-map must not leak the pool or its
        queued work, and the engine stays usable: the next map forks a
        fresh pool."""
        engine = ParallelEngine(workers=2)
        with pytest.raises(ValueError, match="boom"):
            engine.map(_failing_task, range(1, 40), None)
        assert multiprocessing.active_children() == []
        assert engine.parallel_maps == 0
        assert engine.map(_square_task, range(4), {"offset": 0}) == [
            0, 1, 4, 9
        ]
        assert engine.parallel_maps == 1

    @needs_fork
    def test_dead_worker_is_retried_sequentially(self, two_cpus):
        """BrokenProcessPool (a worker killed mid-map) reruns the units
        in the calling process."""
        engine = ParallelEngine(workers=2)
        ctx = {"parent": os.getpid()}
        assert engine.map(_dies_in_worker_task, [1, 2, 3], ctx) == [
            10, 20, 30
        ]
        assert engine.parallel_maps == 0
        assert engine.sequential_maps == 1
        assert multiprocessing.active_children() == []

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ParallelEngine(workers=-1)
        assert ParallelEngine(workers=0).workers >= 1


class TestAutoDegrade:
    """A multi-worker engine on a box with one effective CPU must not
    pay fork+pickle for negative speedup — it degrades to the
    sequential path."""

    def test_one_effective_cpu_degrades(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "effective_cpu_count", lambda: 1)
        engine = ParallelEngine(workers=2)
        assert not engine.parallel
        assert engine.pool_size(8) == 1
        assert engine.map(_pid_task, range(3), None) == [os.getpid()] * 3
        assert engine.stats()["degraded_sequential"] is True

    @needs_fork
    def test_many_effective_cpus_stay_parallel(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "effective_cpu_count", lambda: 8)
        engine = ParallelEngine(workers=2)
        assert engine.parallel
        assert engine.stats()["degraded_sequential"] is False

    def test_effective_cpu_count_positive(self):
        assert effective_cpu_count() >= 1

    def test_auto_workers_follow_affinity_not_the_box(self, monkeypatch):
        """``workers=0`` on a process pinned to 4 of 64 CPUs sizes the
        pool from the 4 it may run on, like the degrade decision."""
        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 64)
        monkeypatch.delattr(engine_mod.os, "process_cpu_count",
                            raising=False)
        monkeypatch.setattr(engine_mod.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3}, raising=False)
        assert ParallelEngine(workers=0).workers == 4
