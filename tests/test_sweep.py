"""Tests for sweep orchestration: byte-identical results against a
sequential per-run ``tune()`` loop (at workers=1 and sharded), warm
persistent caches reproducing the cold sweep with a >90% cost-cache hit
rate, and cache snapshot isolation between sweep units."""

import pytest

from repro.api import run_sweep, tune
from repro.datasets import sales_database, sales_workload
from repro.errors import AdvisorError
from repro.parallel import engine as engine_mod
from repro.parallel.engine import fork_available
from repro.sampling import DEFAULT_SAMPLE_SEED, SampleManager
from repro.sizeest import SizeEstimator

VARIANT = "dtac-none"
SEEDS = (DEFAULT_SAMPLE_SEED, DEFAULT_SAMPLE_SEED + 7)


@pytest.fixture(scope="module")
def sweep_inputs():
    db = sales_database(scale=0.03)
    wl = sales_workload(db)
    total = db.total_data_bytes()
    return db, wl, (total * 0.1, total * 0.2)


def _assert_same_result(a, b):
    assert a.configuration == b.configuration
    assert a.final_cost == b.final_cost
    assert a.base_cost == b.base_cost
    assert a.consumed_bytes == b.consumed_bytes
    assert a.steps == b.steps


@pytest.fixture(scope="module")
def sequential_baseline(sweep_inputs):
    """The ground truth: independent tune() calls, one fresh estimator
    per (seed, budget), seeds outer / budgets inner."""
    db, wl, budgets = sweep_inputs
    results = []
    for seed in SEEDS:
        for budget in budgets:
            estimator = SizeEstimator(
                db, manager=SampleManager(db, seed=seed)
            )
            results.append(
                tune(db, wl, budget, variant=VARIANT, estimator=estimator)
            )
    return results


class TestSweepEquivalence:
    def test_workers_one_matches_tune_loop(
        self, sweep_inputs, sequential_baseline
    ):
        db, wl, budgets = sweep_inputs
        sweep = run_sweep(
            db, wl, budgets, seeds=SEEDS, variant=VARIANT, workers=1
        )
        assert [
            (run.seed, run.budget_bytes) for run in sweep.runs
        ] == [(seed, budget) for seed in SEEDS for budget in budgets]
        for run, expected in zip(sweep.runs, sequential_baseline):
            _assert_same_result(run.result, expected)
        assert sweep.engine_stats["parallel_maps"] == 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_sharded_matches_tune_loop(
        self, sweep_inputs, sequential_baseline, two_cpus
    ):
        db, wl, budgets = sweep_inputs
        sweep = run_sweep(
            db, wl, budgets, seeds=SEEDS, variant=VARIANT, workers=2
        )
        for run, expected in zip(sweep.runs, sequential_baseline):
            _assert_same_result(run.result, expected)
        # The whole sweep ran as ONE engine map with run-level units.
        assert sweep.engine_stats["parallel_maps"] == 1
        assert sweep.engine_stats["tasks_dispatched"] == len(sweep.runs)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_two_unit_sweep_shards(
        self, sweep_inputs, sequential_baseline, two_cpus
    ):
        """Whole runs are worth a fork each: two units on two workers
        must shard (a per-candidate task floor used to run them in the
        parent while still reporting workers=2)."""
        db, wl, budgets = sweep_inputs
        events = []
        sweep = run_sweep(
            db, wl, budgets, seeds=SEEDS[:1], variant=VARIANT, workers=2,
            progress=events.append,
        )
        assert sweep.engine_stats["parallel_maps"] == 1
        assert sweep.engine_stats["tasks_dispatched"] == 2
        assert sweep.workers == 2
        assert events[0] == {"event": "sweep_sharded", "units": 2,
                             "workers": 2}
        for run, expected in zip(sweep.runs, sequential_baseline[:2]):
            _assert_same_result(run.result, expected)

    def test_one_cpu_sweep_reports_one_worker(
        self, sweep_inputs, sequential_baseline, monkeypatch
    ):
        monkeypatch.setattr(engine_mod, "effective_cpu_count", lambda: 1)
        db, wl, budgets = sweep_inputs
        sweep = run_sweep(
            db, wl, budgets[:1], seeds=SEEDS, variant=VARIANT, workers=2
        )
        assert sweep.workers == 1
        assert sweep.engine_stats["degraded_sequential"] is True
        assert sweep.engine_stats["parallel_maps"] == 0
        for run, expected in zip(sweep.runs, sequential_baseline[::2]):
            _assert_same_result(run.result, expected)

    def test_run_for_lookup(self, sweep_inputs):
        db, wl, budgets = sweep_inputs
        sweep = run_sweep(
            db, wl, budgets[:1], seeds=SEEDS, variant=VARIANT
        )
        result = sweep.run_for(budgets[0], seed=SEEDS[1])
        assert result is sweep.runs[1].result
        with pytest.raises(AdvisorError, match="2 sweep runs"):
            sweep.run_for(budgets[0])

    def test_rejects_reserved_options_and_bad_variant(self, sweep_inputs):
        db, wl, budgets = sweep_inputs
        with pytest.raises(AdvisorError, match="unknown variant"):
            run_sweep(db, wl, budgets, variant="bogus")
        with pytest.raises(AdvisorError, match="budget_bytes"):
            run_sweep(db, wl, budgets, variant=VARIANT, budget_bytes=1.0)
        with pytest.raises(AdvisorError, match="at least one budget"):
            run_sweep(db, wl, [], variant=VARIANT)
        for bad in (float("nan"), -5.0, float("inf"), "10", True):
            with pytest.raises(AdvisorError, match=r"budgets\[1\]"):
                run_sweep(db, wl, [budgets[0], bad], variant=VARIANT)


class TestSweepCaches:
    def test_warm_sweep_reproduces_and_hits(self, sweep_inputs, tmp_path):
        db, wl, budgets = sweep_inputs
        cold = run_sweep(
            db, wl, budgets, seeds=SEEDS[:1], variant=VARIANT,
            cache_dir=tmp_path,
        )
        # Cold sweep units see the empty pre-sweep snapshot: no hits,
        # so the cold sweep equals an uncached one by construction.
        assert cold.cost_cache_stats["hits"] == 0
        assert cold.cost_cache_stats["stores"] > 0
        assert (tmp_path / "costs.json").exists()
        assert (tmp_path / "estimates.json").exists()

        warm = run_sweep(
            db, wl, budgets, seeds=SEEDS[:1], variant=VARIANT,
            cache_dir=tmp_path,
        )
        for cold_run, warm_run in zip(cold.runs, warm.runs):
            _assert_same_result(cold_run.result, warm_run.result)
        # The acceptance bar: a warm sweep skips costing almost entirely.
        assert warm.cost_cache_stats["hit_rate"] > 0.9
        assert warm.estimation_cache_stats["hit_rate"] > 0.9

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_sharded_cached_sweep_persists_and_reproduces(
        self, sweep_inputs, tmp_path, two_cpus
    ):
        """The headline combination: run-level sharding *with* a cache
        directory.  fork_view snapshots are taken inside forked workers
        and multiple worker processes save concurrently through the
        advisory lock — the warm sequential rerun must see everything
        they persisted and reproduce the sharded results exactly."""
        db, wl, budgets = sweep_inputs
        cold = run_sweep(
            db, wl, budgets, seeds=SEEDS, variant=VARIANT,
            workers=2, cache_dir=tmp_path,
        )
        assert cold.engine_stats["parallel_maps"] == 1
        assert (tmp_path / "costs.json").exists()

        warm = run_sweep(
            db, wl, budgets, seeds=SEEDS, variant=VARIANT,
            workers=1, cache_dir=tmp_path,
        )
        for cold_run, warm_run in zip(cold.runs, warm.runs):
            _assert_same_result(cold_run.result, warm_run.result)
        # Every worker's entries reached disk: the warm rerun costs
        # nothing — no run's save may have clobbered a sibling's.
        assert warm.cost_cache_stats["hit_rate"] == 1.0
        assert warm.estimation_cache_stats["hit_rate"] == 1.0

    def test_cold_cached_sweep_matches_uncached(self, sweep_inputs, tmp_path):
        db, wl, budgets = sweep_inputs
        plain = run_sweep(
            db, wl, budgets[:1], seeds=SEEDS[:1], variant=VARIANT
        )
        cached = run_sweep(
            db, wl, budgets[:1], seeds=SEEDS[:1], variant=VARIANT,
            cache_dir=tmp_path,
        )
        for a, b in zip(plain.runs, cached.runs):
            _assert_same_result(a.result, b.result)

    def test_different_seeds_partition_cost_entries(
        self, sweep_inputs, tmp_path
    ):
        """A warm rerun under a *different* sampling seed must not replay
        the first seed's costs: its size estimates differ, and the
        sized-structure keys diverge with them."""
        db, wl, budgets = sweep_inputs
        run_sweep(db, wl, budgets[:1], seeds=SEEDS[:1], variant=VARIANT,
                  cache_dir=tmp_path)
        other_seed = run_sweep(
            db, wl, budgets[:1], seeds=(DEFAULT_SAMPLE_SEED + 99,),
            variant=VARIANT, cache_dir=tmp_path,
        )
        assert other_seed.cost_cache_stats["hit_rate"] == 0.0
