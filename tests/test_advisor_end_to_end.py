"""End-to-end advisor runs on a tiny TPC-H instance."""

import pytest

from repro.advisor import AdvisorOptions, TuningAdvisor
from repro.api import tune
from repro.datasets import tpch_workload
from repro.errors import AdvisorError
from repro.sizeest import SizeEstimator
from repro.stats import DatabaseStats
from repro.storage import IndexKind


@pytest.fixture(scope="module")
def tuning_env(tiny_tpch):
    stats = DatabaseStats(tiny_tpch)
    estimator = SizeEstimator(tiny_tpch, stats=stats)
    workload = tpch_workload(tiny_tpch, select_weight=5.0, insert_weight=1.0)
    return tiny_tpch, stats, estimator, workload


class TestTuningRuns:
    def test_dta_improves(self, tuning_env):
        db, stats, estimator, workload = tuning_env
        res = tune(db, workload, db.total_data_bytes() * 0.4,
                   variant="dta", estimator=estimator, stats=stats)
        assert res.improvement > 0.05
        assert not any(ix.is_compressed for ix in res.configuration)

    def test_dtac_beats_dta_at_tight_budget(self, tuning_env):
        db, stats, estimator, workload = tuning_env
        budget = db.total_data_bytes() * 0.05
        dta = tune(db, workload, budget, variant="dta",
                   estimator=estimator, stats=stats)
        dtac = tune(db, workload, budget, variant="dtac-both",
                    estimator=estimator, stats=stats)
        assert dtac.improvement >= dta.improvement

    def test_budget_respected_by_estimates(self, tuning_env):
        db, stats, estimator, workload = tuning_env
        budget = db.total_data_bytes() * 0.10
        res = tune(db, workload, budget, variant="dtac-both",
                   estimator=estimator, stats=stats)
        assert res.consumed_bytes <= budget + 1e-6

    def test_one_base_structure_per_table(self, tuning_env):
        db, stats, estimator, workload = tuning_env
        res = tune(db, workload, db.total_data_bytes() * 0.3,
                   variant="dtac-both", estimator=estimator, stats=stats)
        for table in db.table_names:
            bases = [
                ix for ix in res.configuration
                if ix.table == table
                and ix.kind in (IndexKind.HEAP, IndexKind.CLUSTERED)
                and not ix.is_mv_index
            ]
            assert len(bases) <= 1

    def test_monotone_in_budget(self, tuning_env):
        db, stats, estimator, workload = tuning_env
        tight = tune(db, workload, 0.0, variant="dtac-both",
                     estimator=estimator, stats=stats)
        loose = tune(db, workload, db.total_data_bytes() * 0.6,
                     variant="dtac-both", estimator=estimator, stats=stats)
        assert loose.improvement >= tight.improvement - 0.02

    def test_insert_intensive_uses_less_compression(self, tiny_tpch):
        stats = DatabaseStats(tiny_tpch)
        estimator = SizeEstimator(tiny_tpch, stats=stats)
        budget = tiny_tpch.total_data_bytes() * 0.5
        select_heavy = tune(
            tiny_tpch, tpch_workload(tiny_tpch, 20.0, 1.0), budget,
            variant="dtac-both", estimator=estimator, stats=stats,
        )
        insert_heavy = tune(
            tiny_tpch, tpch_workload(tiny_tpch, 1.0, 50.0), budget,
            variant="dtac-both", estimator=estimator, stats=stats,
        )
        n_sel = sum(1 for ix in select_heavy.configuration
                    if ix.is_compressed)
        n_ins = sum(1 for ix in insert_heavy.configuration
                    if ix.is_compressed)
        assert n_ins <= n_sel

    def test_unknown_variant_rejected(self, tuning_env):
        db, stats, estimator, workload = tuning_env
        with pytest.raises(AdvisorError):
            tune(db, workload, 1e9, variant="nope")

    def test_result_metadata(self, tuning_env):
        db, stats, estimator, workload = tuning_env
        res = tune(db, workload, db.total_data_bytes() * 0.2,
                   variant="dtac-both", estimator=estimator, stats=stats)
        assert res.candidate_count > 0
        assert res.pool_size > 0
        assert res.elapsed_seconds > 0
        assert set(res.sizes) == set(res.configuration)
        assert res.improvement_pct == pytest.approx(
            100 * res.improvement
        )

    def test_all_features_run(self, tuning_env):
        db, stats, estimator, workload = tuning_env
        options = AdvisorOptions(
            budget_bytes=db.total_data_bytes() * 0.3,
            enable_partial=True,
            enable_mv=True,
            enable_compression=True,
            candidate_selection="skyline",
            backtracking=True,
        )
        advisor = TuningAdvisor(db, workload, options,
                                estimator=estimator, stats=stats)
        res = advisor.run()
        assert res.improvement > 0
