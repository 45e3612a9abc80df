"""Tests for sweep orchestration: two units shard over two workers, one
CPU degrades to one worker, run lookup and argument checks, and cache
snapshot isolation between sweep units.  A sweep's units against
``tune()`` at workers 1 and 2, cold and warm, are cells of
``tests/test_run_identity.py``."""

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
