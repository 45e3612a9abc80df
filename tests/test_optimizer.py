"""Tests for access paths, the compression-aware cost model and the
what-if API."""

import pytest

from repro.compression import CompressionMethod
from repro.optimizer import (
    DEFAULT_COST_CONSTANTS,
    WhatIfOptimizer,
    best_access_plan,
    cost_access,
    mv_matches_query,
)
from repro.optimizer.kernels import CostKernel
from repro.physical import Configuration, IndexDef, MVDefinition
from repro.storage import IndexKind
from repro.workload import (
    Aggregate,
    Comparison,
    InsertQuery,
    Join,
    SelectQuery,
    UpdateQuery,
    Workload,
)


def heap():
    return IndexDef("fact", (), kind=IndexKind.HEAP)


def base_config():
    return Configuration([
        heap(), IndexDef("dim", (), kind=IndexKind.HEAP),
    ])


@pytest.fixture()
def whatif(small_db, small_stats):
    return WhatIfOptimizer(small_db, small_stats)


def q_point():
    return SelectQuery(
        tables=("fact",),
        select_columns=("f_price",),
        predicates=(Comparison("f_cat", "=", "CAT_1"),),
    )


def q_agg_join():
    return SelectQuery(
        tables=("fact", "dim"),
        aggregates=(Aggregate("SUM", ("f_price",)),),
        joins=(Join("f_dkey", "d_key"),),
        predicates=(Comparison("d_group", "=", "G1"),),
        group_by=(),
    )


class TestAccessPaths:
    def test_seek_beats_scan_for_selective_predicate(self, whatif):
        config = base_config().add(IndexDef("fact", ("f_cat",),
                                            included_columns=("f_price",)))
        cost_with = whatif.cost(q_point(), config).total
        cost_without = whatif.cost(q_point(), base_config()).total
        assert cost_with < cost_without

    def test_covering_beats_lookup(self, small_db, small_stats, whatif):
        covering = IndexDef("fact", ("f_cat",), included_columns=("f_price",))
        lookup = IndexDef("fact", ("f_cat",))
        c_cover = whatif.cost(q_point(), base_config().add(covering)).total
        c_lookup = whatif.cost(q_point(), base_config().add(lookup)).total
        assert c_cover <= c_lookup

    def test_compressed_scan_tradeoff(self, small_db, small_stats):
        """Compressed index scans fewer pages but pays decompression
        CPU: the IO share must drop, the CPU share must grow.  Needs a
        real size estimator wired in (the default fallback sizes
        everything uncompressed)."""
        from repro.sizeest import SizeEstimator

        estimator = SizeEstimator(small_db, stats=small_stats)
        whatif = WhatIfOptimizer(
            small_db, small_stats,
            sizes=lambda ix: (
                estimator.estimate(ix).est_bytes,
                estimator.sizer.estimated_rows(ix),
            ),
        )
        scan_all = SelectQuery(
            tables=("fact",),
            select_columns=("f_cat", "f_qty", "f_price"),
        )
        plain = base_config().add(
            IndexDef("fact", ("f_cat",),
                     included_columns=("f_qty", "f_price"))
        )
        compressed = base_config().add(
            IndexDef("fact", ("f_cat",),
                     included_columns=("f_qty", "f_price"),
                     method=CompressionMethod.PAGE)
        )
        b_plain = whatif.cost(scan_all, plain)
        b_comp = whatif.cost(scan_all, compressed)
        assert b_comp.io < b_plain.io
        assert b_comp.cpu > b_plain.cpu

    def test_partial_index_only_when_filter_matches(self, small_stats):
        pred = Comparison("f_cat", "=", "CAT_1")
        partial = IndexDef("fact", ("f_qty",), filter=pred)
        plan = cost_access(
            partial, 8192.0, 100.0,
            predicates=(Comparison("f_cat", "=", "CAT_2"),),
            needed_columns=("f_qty",),
            stats=small_stats.table("fact"),
            constants=DEFAULT_COST_CONSTANTS,
            base_lookup=heap(),
        )
        assert plan is None
        plan2 = cost_access(
            partial, 8192.0, 100.0,
            predicates=(pred,),
            needed_columns=("f_qty",),
            stats=small_stats.table("fact"),
            constants=DEFAULT_COST_CONSTANTS,
            base_lookup=heap(),
        )
        assert plan2 is not None

    def test_best_access_plan_picks_minimum(self, small_db, small_stats):
        structures = [
            (heap(), 40 * 8192.0, 4000.0),
            (IndexDef("fact", ("f_cat",), included_columns=("f_price",)),
             10 * 8192.0, 4000.0),
        ]
        plan = best_access_plan(
            small_stats.table("fact"), "fact", structures,
            predicates=(Comparison("f_cat", "=", "CAT_1"),),
            needed_columns=("f_cat", "f_price"),
            constants=DEFAULT_COST_CONSTANTS,
            kernel=CostKernel(),
        )
        assert plan.index.kind is IndexKind.SECONDARY
        assert plan.used_seek


class TestUpdateCosts:
    def test_more_indexes_cost_more(self, whatif):
        insert = InsertQuery("fact", 1000)
        light = base_config()
        heavy = light.add(IndexDef("fact", ("f_cat",))).add(
            IndexDef("fact", ("f_qty",))
        )
        assert whatif.cost(insert, heavy).total > whatif.cost(
            insert, light
        ).total

    def test_compression_adds_update_cpu(self, whatif):
        insert = InsertQuery("fact", 1000)
        plain = base_config().add(IndexDef("fact", ("f_cat",)))
        compressed = base_config().add(
            IndexDef("fact", ("f_cat",), method=CompressionMethod.PAGE)
        )
        assert whatif.cost(insert, compressed).cpu > whatif.cost(
            insert, plain
        ).cpu

    def test_page_costs_more_than_row_on_updates(self, whatif):
        insert = InsertQuery("fact", 1000)
        row = base_config().add(
            IndexDef("fact", ("f_cat",), method=CompressionMethod.ROW)
        )
        page = base_config().add(
            IndexDef("fact", ("f_cat",), method=CompressionMethod.PAGE)
        )
        assert whatif.cost(insert, page).cpu > whatif.cost(insert, row).cpu

    def test_update_and_delete_costable(self, whatif):
        config = base_config()
        upd = UpdateQuery("fact", ("f_price",),
                          (Comparison("f_cat", "=", "CAT_1"),))
        dele = UpdateQuery("fact", ("f_price",))
        assert whatif.cost(upd, config).total > 0
        assert whatif.cost(dele, config).total > 0


class TestMVMatching:
    def mv(self, predicates=(), group_by=("d_group",)):
        return MVDefinition(
            name="mv1",
            fact_table="fact",
            tables=("fact", "dim"),
            joins=(Join("f_dkey", "d_key"),),
            predicates=tuple(predicates),
            group_by=group_by,
            aggregates=(Aggregate("SUM", ("f_price",)),),
        )

    def query(self, predicates=(), group_by=("d_group",)):
        return SelectQuery(
            tables=("fact", "dim"),
            aggregates=(Aggregate("SUM", ("f_price",)),),
            joins=(Join("f_dkey", "d_key"),),
            predicates=tuple(predicates),
            group_by=group_by,
        )

    def test_exact_match(self):
        assert mv_matches_query(self.mv(), self.query())

    def test_group_mismatch(self):
        assert not mv_matches_query(
            self.mv(), self.query(group_by=("d_name",))
        )

    def test_residual_on_group_columns_ok(self):
        q = self.query(predicates=(Comparison("d_group", "=", "G1"),))
        assert mv_matches_query(self.mv(), q)

    def test_residual_on_non_group_columns_fails(self):
        q = self.query(predicates=(Comparison("f_qty", "<", 10),))
        assert not mv_matches_query(self.mv(), q)

    def test_mv_filter_must_be_implied(self):
        mv = self.mv(predicates=(Comparison("f_qty", "<", 10),))
        assert not mv_matches_query(mv, self.query())

    def test_missing_aggregate_fails(self):
        q = SelectQuery(
            tables=("fact", "dim"),
            aggregates=(Aggregate("MAX", ("f_price",)),),
            joins=(Join("f_dkey", "d_key"),),
            group_by=("d_group",),
        )
        assert not mv_matches_query(self.mv(), q)

    def test_mv_plan_used_when_cheaper(self, small_db, small_stats):
        whatif = WhatIfOptimizer(small_db, small_stats)
        mv_index = IndexDef(
            "mv1", ("d_group",), kind=IndexKind.CLUSTERED, mv=self.mv()
        )
        config = base_config().add(mv_index)
        breakdown = whatif.cost(self.query(), config)
        assert breakdown.used_mv


class TestWhatIfCaching:
    def test_cache_hit_on_irrelevant_change(self, small_db, small_stats):
        whatif = WhatIfOptimizer(small_db, small_stats)
        q = q_point()
        whatif.cost(q, base_config())
        calls = whatif.optimizer_calls
        # Adding a dim index does not change the fact-only query signature.
        config2 = base_config().add(IndexDef("dim", ("d_name",)))
        whatif.cost(q, config2)
        assert whatif.optimizer_calls == calls

    def test_cache_miss_on_relevant_change(self, small_db, small_stats):
        whatif = WhatIfOptimizer(small_db, small_stats)
        q = q_point()
        whatif.cost(q, base_config())
        calls = whatif.optimizer_calls
        config2 = base_config().add(IndexDef("fact", ("f_cat",)))
        whatif.cost(q, config2)
        assert whatif.optimizer_calls == calls + 1

    def test_workload_cost_weighting(self, small_db, small_stats):
        whatif = WhatIfOptimizer(small_db, small_stats)
        wl = Workload()
        wl.add(q_point(), weight=2.0)
        single = whatif.cost(q_point(), base_config()).total
        assert whatif.workload_cost(wl, base_config()) == pytest.approx(
            2.0 * single
        )
