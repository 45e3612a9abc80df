"""Cross-module property tests on the library's core invariants:
configuration algebra, skyline selection, page quantization, and the
estimation error model's probability machinery."""

from hypothesis import given, settings, strategies as st

from repro.advisor.selection import (
    CandidateConfiguration,
    cluster_skyline,
    select_skyline,
    select_top_k,
)
from repro.compression.base import CompressionMethod
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.physical.mv_def import MVDefinition
from repro.workload import Aggregate, Join
from repro.storage.index_build import IndexKind
from repro.storage.page import PAGE_SIZE, quantize_bytes

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
column_names = st.sampled_from(["a", "b", "c", "d", "e"])
key_sets = st.lists(column_names, min_size=1, max_size=3, unique=True)


@st.composite
def index_defs(draw):
    keys = tuple(draw(key_sets))
    kind = draw(st.sampled_from([IndexKind.SECONDARY, IndexKind.CLUSTERED]))
    return IndexDef("t", keys, kind=kind)


MV = MVDefinition(
    name="m", fact_table="t", tables=("t", "u"), joins=(Join("a", "b"),),
    group_by=("c",), aggregates=(Aggregate("SUM", ("d",)),),
)


@st.composite
def structures(draw):
    """Any member a configuration can hold, on two tables: heaps,
    clustered and secondary indexes under several methods, and an MV
    index (clustered, yet no table's base)."""
    kind = draw(st.sampled_from(list(IndexKind)))
    method = draw(st.sampled_from([
        CompressionMethod.NONE, CompressionMethod.ROW, CompressionMethod.PAGE,
    ]))
    if draw(st.integers(0, 5)) == 0:
        return IndexDef("m", ("c",), kind=IndexKind.CLUSTERED,
                        method=method, mv=MV)
    table = draw(st.sampled_from(["t", "u"]))
    keys = () if kind is IndexKind.HEAP else tuple(draw(key_sets))
    return IndexDef(table, keys, kind=kind, method=method)


@st.composite
def candidate_configs(draw):
    cost = draw(st.floats(min_value=0.0, max_value=1000.0,
                          allow_nan=False))
    size = draw(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    return CandidateConfiguration(frozenset(), cost=cost, size=size)


# ----------------------------------------------------------------------
class TestConfigurationAlgebra:
    @given(st.lists(index_defs(), max_size=6))
    def test_one_base_structure_per_table(self, indexes):
        config = Configuration()
        for ix in indexes:
            config = config.add(ix)
        bases = [
            i for i in config
            if i.kind in (IndexKind.HEAP, IndexKind.CLUSTERED)
        ]
        assert len(bases) <= 1  # single table "t" in this strategy

    @given(index_defs())
    def test_add_then_remove_roundtrip(self, ix):
        config = Configuration()
        grown = config.add(ix)
        assert ix in grown
        assert grown.remove(ix) == config

    @given(st.lists(index_defs(), max_size=6))
    def test_add_is_idempotent(self, indexes):
        config = Configuration()
        for ix in indexes:
            config = config.add(ix)
        for ix in list(config):
            assert config.add(ix) == config

    @given(st.lists(index_defs(), max_size=5))
    def test_equality_is_order_insensitive(self, indexes):
        forward = Configuration()
        for ix in indexes:
            forward = forward.add(ix)
        backward = Configuration()
        for ix in reversed(indexes):
            backward = backward.add(ix)
        # Clustered adds replace each other, so only compare when the
        # insertion order cannot matter (secondary-only sets).
        if all(i.kind is IndexKind.SECONDARY for i in indexes):
            assert forward == backward
            assert hash(forward) == hash(backward)


    @settings(max_examples=200)
    @given(st.data())
    def test_derived_configurations_equal_fresh_ones(self, data):
        """``add`` / ``remove`` / ``replace`` derive the new base map
        from the old one; whatever the sequence, the result is the
        configuration built from scratch over the same members."""
        draw = data.draw
        config = Configuration()
        members: set[IndexDef] = set()
        for _ in range(draw(st.integers(0, 12))):
            op = draw(st.sampled_from(["add", "add", "remove", "replace"]))
            if op != "add" and not members:
                continue
            old = None if op == "add" else draw(st.sampled_from(
                sorted(members, key=repr)
            ))
            if old is not None:
                members.discard(old)
            if op == "remove":
                config = config.remove(old)
                continue
            new = draw(structures())
            if new.kind is not IndexKind.SECONDARY and new.mv is None:
                members = {
                    ix for ix in members
                    if ix.table != new.table or ix.mv is not None
                    or ix.kind is IndexKind.SECONDARY
                }
            members.add(new)
            config = (
                config.add(new) if old is None else config.replace(old, new)
            )
            fresh = Configuration(members)
            assert config.indexes == fresh.indexes == members
            assert config == fresh and hash(config) == hash(fresh)
            assert config.mv_indexes() == fresh.mv_indexes()
            for table in ("t", "u", "m"):
                assert config.base_structure(table) == \
                    fresh.base_structure(table)
                assert config.structures_on(table) == \
                    fresh.structures_on(table)


# ----------------------------------------------------------------------
class TestSkylineProperties:
    @settings(max_examples=60)
    @given(st.lists(candidate_configs(), min_size=1, max_size=25))
    def test_no_skyline_member_is_dominated(self, configs):
        skyline = select_skyline(configs)
        for member in skyline:
            assert not any(
                other.dominates(member)
                for other in configs
                if other is not member
            )

    @settings(max_examples=60)
    @given(st.lists(candidate_configs(), min_size=1, max_size=25))
    def test_cheapest_always_on_skyline(self, configs):
        skyline = select_skyline(configs)
        cheapest_cost = min(c.cost for c in configs)
        assert any(c.cost == cheapest_cost for c in skyline)

    @settings(max_examples=60)
    @given(st.lists(candidate_configs(), min_size=1, max_size=25),
           st.integers(min_value=1, max_value=8))
    def test_cluster_bound_and_topk_retention(self, configs, max_points):
        skyline = select_skyline(configs)
        clustered = cluster_skyline(skyline, max_points)
        assert len(clustered) <= max_points + 2
        for keep in select_top_k(skyline, 2):
            assert keep in clustered

    @settings(max_examples=60)
    @given(st.lists(candidate_configs(), min_size=1, max_size=25),
           st.integers(min_value=1, max_value=5))
    def test_top_k_is_sorted_prefix(self, configs, k):
        top = select_top_k(configs, k)
        assert len(top) == min(k, len(configs))
        costs = [c.cost for c in top]
        assert costs == sorted(costs)
        assert costs[-1] <= max(c.cost for c in configs)


# ----------------------------------------------------------------------
class TestQuantizeBytes:
    @given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
    def test_multiple_of_page_and_covers_input(self, size):
        q = quantize_bytes(size)
        assert q % PAGE_SIZE == 0
        assert q >= size or q == PAGE_SIZE
        assert q >= PAGE_SIZE

    @given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
    def test_idempotent(self, size):
        q = quantize_bytes(size)
        assert quantize_bytes(q) == q

    @given(st.floats(min_value=1.0, max_value=1e12, allow_nan=False))
    def test_within_one_page_of_input(self, size):
        assert quantize_bytes(size) - size < PAGE_SIZE

    def test_zero_and_negative(self):
        assert quantize_bytes(0.0) == PAGE_SIZE
        assert quantize_bytes(-5.0) == PAGE_SIZE
