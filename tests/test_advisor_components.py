"""Tests for candidate generation, selection (skyline), merging and
enumeration — including the paper's Figure 6/8 backtracking scenario."""

import pytest
from hypothesis import given, strategies as st

from repro.advisor import (
    CandidateConfiguration,
    CandidateOptions,
    EnumerationOptions,
    candidate_indexes,
    cluster_skyline,
    expand_compression_variants,
    generate_merged_candidates,
    merge_pair,
    mv_candidates,
    select_skyline,
    select_top_k,
)
from repro.advisor.algorithms import GreedyBacktrackAlgorithm
from repro.compression import CompressionMethod
from repro.physical import Configuration, IndexDef
from repro.storage import IndexKind
from repro.workload import (
    Aggregate,
    Join,
    SelectQuery,
    Workload,
    parse_query,
)


def q_fact():
    return parse_query(
        "SELECT SUM(f_price) FROM fact WHERE f_cat = 'CAT_1' "
        "AND f_day BETWEEN 10 AND 50 GROUP BY f_dkey"
    )


class TestCandidateGeneration:
    def test_basic_candidates(self, small_db):
        cands = candidate_indexes(small_db, q_fact(), CandidateOptions())
        keys = {c.key_columns for c in cands}
        assert ("f_cat",) in keys
        assert ("f_cat", "f_day") in keys

    def test_covering_variants_present(self, small_db):
        cands = candidate_indexes(small_db, q_fact(), CandidateOptions())
        assert any(c.included_columns for c in cands)

    def test_clustered_candidate_present(self, small_db):
        cands = candidate_indexes(small_db, q_fact(), CandidateOptions())
        assert any(c.kind is IndexKind.CLUSTERED for c in cands)

    def test_partial_candidates_toggle(self, small_db):
        off = candidate_indexes(
            small_db, q_fact(), CandidateOptions(enable_partial=False)
        )
        on = candidate_indexes(
            small_db, q_fact(), CandidateOptions(enable_partial=True)
        )
        assert not any(c.is_partial for c in off)
        assert any(c.is_partial for c in on)

    def test_mv_candidates_need_joins(self, small_db):
        assert mv_candidates(small_db, q_fact()) == []
        join_q = SelectQuery(
            tables=("fact", "dim"),
            aggregates=(Aggregate("SUM", ("f_price",)),),
            joins=(Join("f_dkey", "d_key"),),
            group_by=("d_group",),
        )
        mvs = mv_candidates(small_db, join_q)
        assert mvs
        assert all(mv.fact_table == "fact" for mv in mvs)

    def test_insert_statement_yields_nothing(self, small_db):
        from repro.workload import InsertQuery

        assert candidate_indexes(
            small_db, InsertQuery("fact", 10), CandidateOptions()
        ) == []

    def test_compression_expansion(self):
        base = [IndexDef("fact", ("f_cat",))]
        expanded = expand_compression_variants(base, True)
        methods = {ix.method for ix in expanded}
        assert methods == {
            CompressionMethod.NONE, CompressionMethod.ROW,
            CompressionMethod.PAGE,
        }
        assert len(expand_compression_variants(base, False)) == 1

    def test_key_cap(self, small_db):
        cands = candidate_indexes(
            small_db, q_fact(), CandidateOptions(max_key_columns=1)
        )
        assert all(len(c.key_columns) <= 1 for c in cands)


def cc(cost, size):
    return CandidateConfiguration(frozenset(), cost=cost, size=size)


class TestSelection:
    def test_top_k(self):
        configs = [cc(5, 1), cc(1, 9), cc(3, 3)]
        picked = select_top_k(configs, 2)
        assert [c.cost for c in picked] == [1, 3]

    def test_skyline_removes_dominated(self):
        configs = [cc(1, 9), cc(3, 3), cc(5, 1), cc(6, 4)]
        skyline = select_skyline(configs)
        assert cc(6, 4) not in skyline
        assert len(skyline) == 3

    def test_skyline_keeps_slow_small(self):
        """The paper's Figure 5 point: a slow-but-small configuration
        survives the skyline though top-k would drop it."""
        configs = [cc(1, 100), cc(2, 90), cc(10, 5)]
        assert cc(10, 5) in select_skyline(configs)
        assert cc(10, 5) not in select_top_k(configs, 2)

    @given(st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100)),
        min_size=1, max_size=40,
    ))
    def test_skyline_mutually_nondominated(self, points):
        configs = [cc(c, s) for c, s in points]
        skyline = select_skyline(configs)
        for a in skyline:
            for b in skyline:
                if a is not b:
                    assert not a.dominates(b)

    def test_cluster_skyline_bounds(self):
        configs = [cc(100 - i, i) for i in range(30)]
        clustered = cluster_skyline(configs, 5)
        # At most max_points representatives plus the always-retained
        # two cheapest configurations.
        assert 5 <= len(clustered) <= 7
        cheapest = sorted(configs, key=lambda c: c.cost)[:2]
        assert all(c in clustered for c in cheapest)

    def test_cluster_noop_when_small(self):
        configs = [cc(1, 2), cc(2, 1)]
        assert cluster_skyline(configs, 5) == configs


class TestMerging:
    def test_prefix_merge(self):
        a = IndexDef("t", ("a",), included_columns=("x",))
        b = IndexDef("t", ("a", "b"), included_columns=("y",))
        merged = merge_pair(a, b)
        assert merged.key_columns == ("a", "b")
        assert set(merged.included_columns) == {"x", "y"}

    def test_non_prefix_not_merged(self):
        a = IndexDef("t", ("a",))
        b = IndexDef("t", ("b", "a"))
        assert merge_pair(a, b) is None

    def test_different_tables_not_merged(self):
        assert merge_pair(IndexDef("t", ("a",)),
                          IndexDef("u", ("a",))) is None

    def test_different_methods_not_merged(self):
        a = IndexDef("t", ("a",), method=CompressionMethod.ROW)
        b = IndexDef("t", ("a", "b"))
        assert merge_pair(a, b) is None

    def test_identity_merge_skipped(self):
        a = IndexDef("t", ("a",))
        b = IndexDef("t", ("a", "b"))
        merged = merge_pair(a, b)
        assert merged == b or merged is None

    def test_generate_bounded(self):
        pool = [
            IndexDef("t", ("a",), included_columns=(c,))
            for c in "bcdefgh"
        ]
        pool += [IndexDef("t", ("a", "z"))]
        out = generate_merged_candidates(pool, max_new=5)
        assert len(out) <= 5


class FakeCost:
    """A hand-built workload-cost oracle for the Figure 6/8 scenario.

    Budget 15MB.  Indexes: B (10MB, speeds the query by 10), B^c (5MB,
    speeds by 8), C (10MB, speeds by 5; only with C can the design reach
    the optimum).  Pure greedy picks B first and gets stuck; backtracking
    recovers {B^c, C}.
    """

    BASE = 100.0
    MB = 1024 * 1024

    def __init__(self):
        self.b = IndexDef("t", ("b",))
        self.bc = IndexDef("t", ("b",), method=CompressionMethod.ROW)
        self.c = IndexDef("t", ("c",))
        self.heap = IndexDef("t", (), kind=IndexKind.HEAP)
        self.sizes = {
            self.b: 10.0 * self.MB,
            self.bc: 5.0 * self.MB,
            self.c: 10.0 * self.MB,
            self.heap: 0.0,
        }

    def size(self, ix):
        # Backtracking may synthesize compressed variants (e.g. a ROW
        # compressed heap); give them a compressed-ish default.
        if ix not in self.sizes:
            return self.sizes.get(ix.uncompressed(), 0.0) * 0.5
        return self.sizes[ix]

    def cost(self, config):
        cost = self.BASE
        # B-family benefit: the best of B (10) / compressed B (8).
        if self.b in config:
            cost -= 10.0
        elif self.bc in config:
            cost -= 8.0
        if self.c in config:
            cost -= 5.0
        return cost


class TestEnumeration:
    def make(self, backtracking, strategy="greedy", budget_mb=15.0,
             seed_fanout=3):
        fake = FakeCost()
        options = EnumerationOptions(
            budget_bytes=budget_mb * FakeCost.MB,
            strategy=strategy,
            backtracking=backtracking,
            seed_fanout=seed_fanout,
        )
        enumerator = GreedyBacktrackAlgorithm(
            Workload(),
            fake.cost,
            fake.size,
            {"t": 0.0},
            options,
        )
        return fake, enumerator

    def test_pure_greedy_gets_stuck(self):
        """Figure 6: single-seed greedy picks B (benefit 10), then
        nothing fits. (seed_fanout=1 pins the classic pathology that
        multi-start seeding and backtracking exist to escape.)"""
        fake, enumerator = self.make(backtracking=False, seed_fanout=1)
        result = enumerator.run(
            [fake.b, fake.bc, fake.c], Configuration([fake.heap])
        )
        assert fake.b in result.configuration
        assert fake.c not in result.configuration
        assert result.cost == pytest.approx(90.0)

    def test_backtracking_recovers_optimum(self):
        """Figure 8: the oversized {B, C} is recovered as {B^c, C}."""
        fake, enumerator = self.make(backtracking=True)
        result = enumerator.run(
            [fake.b, fake.bc, fake.c], Configuration([fake.heap])
        )
        assert fake.bc in result.configuration
        assert fake.c in result.configuration
        assert result.cost == pytest.approx(100.0 - 8.0 - 5.0)

    def test_density_greedy_prefers_compressed(self):
        """Figure 7: density picks B^c first (8/5 > 10/10), then C."""
        fake, enumerator = self.make(backtracking=False, strategy="density")
        result = enumerator.run(
            [fake.b, fake.bc, fake.c], Configuration([fake.heap])
        )
        assert fake.bc in result.configuration
        assert fake.c in result.configuration

    def test_plain_greedy_wins_at_large_budget(self):
        """Figure 7's flip side: with 20MB, {B, C} is optimal and pure
        greedy finds it while density would still start from B^c."""
        fake, enumerator = self.make(backtracking=False, budget_mb=20.0)
        result = enumerator.run(
            [fake.b, fake.bc, fake.c], Configuration([fake.heap])
        )
        assert fake.b in result.configuration
        assert fake.c in result.configuration
        assert result.cost == pytest.approx(85.0)

    def test_budget_respected(self):
        fake, enumerator = self.make(backtracking=True, budget_mb=15.0)
        result = enumerator.run(
            [fake.b, fake.bc, fake.c], Configuration([fake.heap])
        )
        assert result.consumed_bytes <= 15.0 * FakeCost.MB + 1e-6

    def test_base_swap_frees_budget(self):
        """A compressed base structure has negative consumed bytes."""
        fake, _ = self.make(backtracking=False)
        heap_row = IndexDef("t", (), kind=IndexKind.HEAP,
                            method=CompressionMethod.ROW)
        fake.sizes[heap_row] = -0.0  # placeholder
        options = EnumerationOptions(budget_bytes=0.0)
        enumerator = GreedyBacktrackAlgorithm(
            Workload(),
            lambda cfg: 100.0 - (5.0 if heap_row in cfg else 0.0),
            lambda ix: {heap_row: 4.0 * FakeCost.MB}.get(
                ix, fake.sizes.get(ix, 0.0)
            ),
            {"t": 10.0 * FakeCost.MB},
            options,
        )
        result = enumerator.run([heap_row], Configuration([fake.heap]))
        assert heap_row in result.configuration
        assert result.consumed_bytes < 0
