"""Tests for the parallel candidate-evaluation engine: deterministic
ordering, the workers=1 sequential fallback, and — the core guarantee —
byte-identical advisor recommendations against the sequential path."""

import pytest

from repro.advisor import AdvisorOptions, TuningAdvisor
from repro.api import tune
from repro.datasets import sales_database, sales_workload
from repro.parallel import ParallelEngine
from repro.parallel import engine as engine_mod
from repro.parallel.engine import (
    MIN_TASKS_PER_WORKER,
    effective_cpu_count,
    fork_available,
)


def _square_task(context, item):
    return (context["offset"] + item) ** 2


def _failing_task(context, item):
    if item == 3:
        raise ValueError("boom")
    return item


class TestEngineMap:
    def test_sequential_outside_session(self):
        engine = ParallelEngine(workers=4)
        ctx = {"offset": 1}
        assert engine.map(_square_task, range(5), ctx) == [
            1, 4, 9, 16, 25
        ]
        assert engine.parallel_maps == 0
        assert engine.sequential_maps == 1

    def test_workers_one_never_forks(self):
        engine = ParallelEngine(workers=1)
        assert not engine.parallel
        with engine.session("ctx") as e:
            assert not e.in_session
            assert e.map(_square_task, [1, 2], {"offset": 0}) == [1, 4]
        assert engine.parallel_maps == 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_map_preserves_order(self):
        engine = ParallelEngine(workers=2, force_parallel=True)
        ctx = {"offset": 2}
        with engine.session(ctx):
            result = engine.map(_square_task, range(8), ctx)
        assert result == [(2 + i) ** 2 for i in range(8)]
        assert engine.parallel_maps == 1
        assert engine.tasks_dispatched == 8

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_other_context_falls_back_to_sequential(self):
        engine = ParallelEngine(workers=2, force_parallel=True)
        session_ctx = {"offset": 0}
        other_ctx = {"offset": 10}
        with engine.session(session_ctx):
            result = engine.map(_square_task, [1, 2], other_ctx)
        assert result == [121, 144]
        assert engine.parallel_maps == 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_worker_exception_propagates(self):
        engine = ParallelEngine(workers=2, force_parallel=True)
        ctx = object()
        with engine.session(ctx):
            with pytest.raises(ValueError, match="boom"):
                engine.map(_failing_task, [1, 2, 3, 4], ctx)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_failing_task_tears_down_and_recovers_pool(self):
        """A task exception mid-map must not leak the pool: the old pool
        (with its queued payloads) is shut down, and the session gets a
        fresh pool so later maps still run in parallel."""
        engine = ParallelEngine(workers=2, force_parallel=True)
        ctx = {"offset": 0}
        with engine.session(ctx):
            old_pool = engine._pool
            with pytest.raises(ValueError, match="boom"):
                engine.map(_failing_task, [1, 2, 3, 4], ctx)
            # Old pool refuses new work: it was shut down, not leaked.
            with pytest.raises(RuntimeError):
                old_pool.submit(print)
            assert engine._pool is not None
            assert engine._pool is not old_pool
            # The session recovered: the replacement pool fans out.
            assert engine.map(_square_task, range(4), ctx) == [
                0, 1, 4, 9
            ]
            assert engine.parallel_maps == 1
        # Session exit tears the replacement pool down as usual.
        assert not engine.in_session

    def test_nested_session_is_noop(self):
        engine = ParallelEngine(workers=2, force_parallel=True)
        if not engine.parallel:
            pytest.skip("needs fork")
        outer = {"offset": 0}
        with engine.session(outer):
            with engine.session({"offset": 5}):
                # Inner context postdates the fork: must run sequentially.
                assert engine.map(_square_task, [1, 2], {"offset": 5}) == [
                    36, 49
                ]
            # The outer pool is still usable afterwards.
            assert engine.map(_square_task, [3, 4], outer) == [9, 16]

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ParallelEngine(workers=-1)
        assert ParallelEngine(workers=0).workers >= 1


class TestAutoDegrade:
    """The headline fix: a multi-worker engine on a box with one
    effective CPU (or batches too small to amortize fan-out) must not
    pay fork+pickle for negative speedup — it degrades to the
    sequential path unless explicitly forced."""

    def test_one_effective_cpu_degrades(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "effective_cpu_count", lambda: 1)
        engine = ParallelEngine(workers=2)
        assert not engine.parallel
        stats = engine.stats()
        assert stats["degraded_sequential"] is True
        assert stats["force_parallel"] is False

    def test_many_effective_cpus_stay_parallel(self, monkeypatch):
        if not fork_available():
            pytest.skip("needs fork")
        monkeypatch.setattr(engine_mod, "effective_cpu_count", lambda: 8)
        engine = ParallelEngine(workers=2)
        assert engine.parallel
        assert engine.stats()["degraded_sequential"] is False

    def test_force_parallel_overrides_cpu_degrade(self, monkeypatch):
        if not fork_available():
            pytest.skip("needs fork")
        monkeypatch.setattr(engine_mod, "effective_cpu_count", lambda: 1)
        engine = ParallelEngine(workers=2, force_parallel=True)
        assert engine.parallel

    def test_force_parallel_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        assert ParallelEngine(workers=2).force_parallel is True
        monkeypatch.delenv("REPRO_FORCE_PARALLEL")
        assert ParallelEngine(workers=2).force_parallel is False

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_small_batch_runs_sequentially(self, monkeypatch):
        """Below workers * MIN_TASKS_PER_WORKER tasks the per-task
        dispatch overhead beats the fan-out: stay in the parent."""
        monkeypatch.setattr(engine_mod, "effective_cpu_count", lambda: 8)
        engine = ParallelEngine(workers=2)
        floor = 2 * MIN_TASKS_PER_WORKER
        ctx = {"offset": 0}
        with engine.session(ctx):
            engine.map(_square_task, range(floor - 1), ctx)
            assert engine.parallel_maps == 0
            assert engine.sequential_maps == 1
            engine.map(_square_task, range(floor), ctx)
            assert engine.parallel_maps == 1

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


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestSessionReuse:
    def test_same_context_reuses_pool(self):
        """Back-to-back sessions with the same context share one fork:
        the second session's maps run on the first session's workers."""
        engine = ParallelEngine(workers=2, force_parallel=True)
        ctx = {"offset": 0}
        try:
            with engine.session(ctx):
                assert engine.map(_square_task, [1, 2, 3], ctx) == [1, 4, 9]
            assert not engine.in_session
            with engine.session(ctx):
                assert engine.map(_square_task, [4, 5], ctx) == [16, 25]
            assert engine.pools_forked == 1
            assert engine.pools_reused == 1
        finally:
            engine.shutdown()

    def test_mark_dirty_forces_refork(self):
        engine = ParallelEngine(workers=2, force_parallel=True)
        ctx = {"offset": 0}
        try:
            with engine.session(ctx):
                engine.map(_square_task, [1, 2], ctx)
            engine.mark_dirty()
            with engine.session(ctx):
                engine.map(_square_task, [1, 2], ctx)
            assert engine.pools_forked == 2
            assert engine.pools_reused == 0
        finally:
            engine.shutdown()

    def test_stale_ok_session_survives_dirty_mark(self):
        """SampleCF-style sessions opt into stale worker state (their
        tasks depend only on fork-invariant samples)."""
        engine = ParallelEngine(workers=2, force_parallel=True)
        ctx = {"offset": 0}
        try:
            with engine.session(ctx):
                engine.map(_square_task, [1, 2], ctx)
            engine.mark_dirty()
            with engine.session(ctx, stale_ok=True):
                assert engine.map(_square_task, [3], ctx) == [9]
            assert engine.pools_forked == 1
            assert engine.pools_reused == 1
        finally:
            engine.shutdown()

    def test_different_context_reforks(self):
        engine = ParallelEngine(workers=2, force_parallel=True)
        try:
            first = {"offset": 0}
            second = {"offset": 1}
            with engine.session(first):
                engine.map(_square_task, [1, 2], first)
            with engine.session(second):
                assert engine.map(_square_task, [1, 2], second) == [4, 9]
            assert engine.pools_forked == 2
        finally:
            engine.shutdown()

    def test_shutdown_releases_then_next_session_reforks(self):
        engine = ParallelEngine(workers=2, force_parallel=True)
        ctx = {"offset": 0}
        with engine.session(ctx):
            engine.map(_square_task, [1, 2], ctx)
        engine.shutdown()
        with engine.session(ctx):
            assert engine.map(_square_task, [2, 3], ctx) == [4, 9]
        assert engine.pools_forked == 2
        engine.shutdown()

    def test_keep_alive_false_restores_fork_per_session(self):
        engine = ParallelEngine(workers=2, keep_alive=False,
                                force_parallel=True)
        ctx = {"offset": 0}
        with engine.session(ctx):
            engine.map(_square_task, [1, 2], ctx)
        with engine.session(ctx):
            engine.map(_square_task, [1, 2], ctx)
        assert engine.pools_forked == 2
        assert engine.pools_reused == 0


@pytest.fixture(scope="module")
def tuning_inputs():
    db = sales_database(scale=0.04)
    wl = sales_workload(db)
    return db, wl, db.total_data_bytes() * 0.15


class TestParallelAdvisor:
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_matches_sequential_byte_for_byte(self, tuning_inputs,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        db, wl, budget = tuning_inputs
        seq = tune(db, wl, budget, variant="dtac-both", workers=1)
        par = tune(db, wl, budget, variant="dtac-both", workers=2)
        assert par.configuration == seq.configuration
        assert par.final_cost == seq.final_cost
        assert par.base_cost == seq.base_cost
        assert par.consumed_bytes == seq.consumed_bytes
        assert par.steps == seq.steps
        assert par.engine_stats["parallel_maps"] > 0

    def test_workers_one_fallback_runs_sequentially(self, tuning_inputs):
        db, wl, budget = tuning_inputs
        result = tune(db, wl, budget, variant="dtac-none", workers=1)
        assert result.engine_stats["parallel_maps"] == 0
        assert result.engine_stats["tasks_dispatched"] == 0
        assert result.improvement >= 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_dta_run_reuses_one_pool_across_phases(self, tuning_inputs,
                                                   monkeypatch):
        """A compression-blind run adds no estimation state between
        candidate evaluation and enumeration, so one forked pool serves
        both phases (the old design paid a fork per phase)."""
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        db, wl, budget = tuning_inputs
        result = tune(db, wl, budget, variant="dta", workers=2)
        assert result.engine_stats["pools_forked"] == 1
        assert result.engine_stats["pools_reused"] >= 1

    def test_advisor_accepts_injected_engine(self, tuning_inputs):
        db, wl, budget = tuning_inputs
        engine = ParallelEngine(workers=1)
        advisor = TuningAdvisor(
            db, wl, AdvisorOptions(budget_bytes=budget), engine=engine
        )
        result = advisor.run()
        assert advisor.engine is engine
        assert result.engine_stats == engine.stats()
