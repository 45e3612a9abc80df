"""Tests for the sample manager, join synopses and MV samples."""

import pytest

from repro.engine import Executor
from repro.errors import SamplingError
from repro.physical import IndexDef, MVDefinition
from repro.sampling import SampleManager, build_join_synopsis, build_mv_sample
from repro.storage import IndexKind
from repro.workload import Aggregate, Comparison, Join, SelectQuery


@pytest.fixture()
def manager(small_db):
    return SampleManager(small_db, min_sample_rows=100)


class TestTableSamples:
    def test_cached_per_fraction(self, manager):
        a = manager.table_sample("fact", 0.1)
        b = manager.table_sample("fact", 0.1)
        assert a is b

    def test_different_fractions_differ(self, manager):
        a = manager.table_sample("fact", 0.1)
        b = manager.table_sample("fact", 0.5)
        assert a is not b
        assert b.table.num_rows > a.table.num_rows

    def test_min_rows_floor(self, manager, small_db):
        sample = manager.table_sample("dim", 0.01)
        assert sample.table.num_rows == small_db.table("dim").num_rows

    def test_effective_fraction(self, manager):
        assert manager.effective_fraction("fact", 0.5) == 0.5
        assert manager.effective_fraction("dim", 0.01) == 1.0

    def test_timing_recorded(self, manager):
        manager.table_sample("fact", 0.2)
        assert manager.counts["table_sample"] >= 1
        manager.reset_timings()
        assert not manager.counts


class TestFilteredSamples:
    def test_filter_applied(self, manager):
        pred = Comparison("f_cat", "=", "CAT_1")
        filtered = manager.filtered_sample("fact", (pred,), 0.2)
        values = set(filtered.table.column_values("f_cat"))
        assert values <= {"CAT_1"}

    def test_cached(self, manager):
        pred = Comparison("f_qty", "<", 10)
        a = manager.filtered_sample("fact", (pred,), 0.2)
        b = manager.filtered_sample("fact", (pred,), 0.2)
        assert a is b


class TestJoinSynopsis:
    def test_row_count_matches_fact_sample(self, manager):
        synopsis = manager.join_synopsis("fact", 0.2)
        fact_sample = manager.table_sample("fact", 0.2)
        assert synopsis.num_rows == fact_sample.table.num_rows

    def test_contains_dimension_columns(self, manager):
        synopsis = manager.join_synopsis("fact", 0.2)
        assert synopsis.has_column("d_name")
        assert synopsis.has_column("f_price")

    def test_join_correctness(self, manager, small_db):
        synopsis = manager.join_synopsis("fact", 0.2)
        dim = small_db.table("dim")
        name_of = dict(zip(dim.column_values("d_key"),
                           dim.column_values("d_name")))
        for dkey, dname in zip(synopsis.column_values("f_dkey"),
                               synopsis.column_values("d_name")):
            assert name_of[dkey] == dname

    def test_dangling_fk_detected(self, small_db):
        bad = small_db.table("fact").empty_clone("bad")
        bad.append_row((0, 9999, "CAT_0", 1, 10, 5))  # f_dkey 9999 missing
        with pytest.raises(SamplingError):
            build_join_synopsis(small_db, bad, "fact")


def mv_def(predicates=(), group_by=("d_group",),
           aggregates=(Aggregate("SUM", ("f_price",)),)):
    return MVDefinition(
        name="mv_test",
        fact_table="fact",
        tables=("fact", "dim"),
        joins=(Join("f_dkey", "d_key"),),
        predicates=tuple(predicates),
        group_by=group_by,
        aggregates=aggregates,
    )


class TestMVSamples:
    def test_full_fraction_matches_executor(self, small_db):
        """An MV 'sample' at fraction 1.0 must equal the defining query."""
        mv = mv_def()
        fact = small_db.table("fact")
        synopsis = build_join_synopsis(small_db, fact, "fact")
        sample = build_mv_sample(small_db, mv, synopsis, synopsis.num_rows,
                                 1.0)
        query = SelectQuery(
            tables=("fact", "dim"),
            aggregates=mv.aggregates,
            joins=mv.joins,
            group_by=mv.group_by,
        )
        expected = Executor(small_db).execute(query)
        got = {
            row[0]: row[1]
            for row in sample.table.iter_rows(("d_group", "sum_f_price"))
        }
        for d_group, total in expected.rows:
            assert got[d_group] == total

    def test_count_column_present(self, manager):
        sample = manager.mv_sample(mv_def(), 0.2)
        assert sample.table.has_column("count_all")
        assert sum(sample.table.column_values("count_all")) == \
            sample.sample_rows

    def test_est_rows_close_for_small_group_count(self, manager):
        # d_group has 5 values: the MV truly has 5 rows.
        sample = manager.mv_sample(mv_def(), 0.3)
        assert sample.est_rows == pytest.approx(5, abs=1)

    def test_filtered_mv(self, manager):
        mv = mv_def(predicates=(Comparison("f_qty", "<", 50),))
        sample = manager.mv_sample(mv, 0.3)
        assert sample.est_base_rows < 4000

    def test_projection_only_mv(self, manager, small_db):
        mv = MVDefinition(
            name="mv_proj",
            fact_table="fact",
            tables=("fact", "dim"),
            joins=(Join("f_dkey", "d_key"),),
            group_by=(),
            aggregates=(),
            predicates=(Comparison("d_group", "=", "G1"),),
        )
        sample = manager.mv_sample(mv, 0.3)
        assert sample.est_rows == pytest.approx(sample.est_base_rows)

    def test_missing_columns_detected(self, small_db):
        mv = mv_def(group_by=("d_group",))
        tiny = small_db.table("fact").project(["f_key"], "nope")
        with pytest.raises(SamplingError):
            build_mv_sample(small_db, mv, tiny, tiny.num_rows, 1.0)

    def test_sample_for_index_routes(self, manager):
        plain = IndexDef("fact", ("f_cat",), kind=IndexKind.SECONDARY)
        partial = IndexDef(
            "fact", ("f_cat",), kind=IndexKind.SECONDARY,
            filter=Comparison("f_qty", "<", 50),
        )
        s_plain = manager.sample_for_index(plain, 0.2)
        s_partial = manager.sample_for_index(partial, 0.2)
        assert s_partial.table.num_rows < s_plain.table.num_rows
        assert s_plain is manager.table_sample("fact", 0.2)

    def test_sample_for_index_caches_the_mv_serialization(self, manager):
        # One SerializedTable per MV sample: its stripped columns and
        # sort orders are shared by every index SampleCF builds on it.
        mv = mv_def()
        on_mv = IndexDef(
            mv.name, ("d_group",), kind=IndexKind.CLUSTERED, mv=mv
        )
        serialized = manager.sample_for_index(on_mv, 0.2)
        assert serialized.table is manager.mv_sample(mv, 0.2).table
        assert manager.sample_for_index(on_mv, 0.2) is serialized
