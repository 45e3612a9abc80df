"""Tests for IndexDef, Configuration and MVDefinition."""

import os
import pickle
from dataclasses import fields, replace

import pytest

from repro.catalog import IntType, decimal
from repro.compression import CompressionMethod
from repro.errors import AdvisorError
from repro.physical import Configuration, IndexDef, MVDefinition
from repro.physical.mv_def import aggregate_column_name
from repro.storage import IndexKind
from repro.workload import Aggregate, Comparison, Join


class TestIndexDef:
    def test_key_included_overlap_rejected(self):
        with pytest.raises(AdvisorError):
            IndexDef("t", ("a",), included_columns=("a",))

    def test_clustered_needs_keys(self):
        with pytest.raises(AdvisorError):
            IndexDef("t", (), kind=IndexKind.CLUSTERED)

    def test_heap_allows_empty_keys(self):
        heap = IndexDef("t", (), kind=IndexKind.HEAP)
        assert heap.column_sequence == ()

    def test_with_method_preserves_rest(self):
        a = IndexDef("t", ("a",), included_columns=("b",))
        b = a.with_method(CompressionMethod.PAGE)
        assert b.method is CompressionMethod.PAGE
        assert b.key_columns == a.key_columns
        assert b.included_columns == a.included_columns
        assert a.method is CompressionMethod.NONE  # original untouched

    def test_uncompressed(self):
        a = IndexDef("t", ("a",), method=CompressionMethod.ROW)
        assert a.uncompressed().method is CompressionMethod.NONE

    def test_covers(self):
        ix = IndexDef("t", ("a",), included_columns=("b",))
        assert ix.covers(("a", "b"))
        assert not ix.covers(("a", "c"))
        cl = IndexDef("t", ("a",), kind=IndexKind.CLUSTERED)
        assert cl.covers(("anything", "at", "all"))

    def test_key_prefix_length(self):
        ix = IndexDef("t", ("a", "b", "c"))
        assert ix.key_prefix_length({"a", "b"}) == 2
        assert ix.key_prefix_length({"a"}, {"b"}) == 2  # eq then range
        assert ix.key_prefix_length({"b"}) == 0
        assert ix.key_prefix_length({"a", "b", "c"}) == 3
        assert ix.key_prefix_length(set(), {"a"}) == 1  # range stops scan

    def test_display_name_tags(self):
        ix = IndexDef("t", ("a",), kind=IndexKind.CLUSTERED,
                      method=CompressionMethod.PAGE)
        name = ix.display_name()
        assert "cl" in name and "page" in name

    def test_hashable_and_equal(self):
        a = IndexDef("t", ("a",))
        b = IndexDef("t", ("a",))
        assert a == b
        assert len({a, b}) == 1


def _hash_cases() -> list[IndexDef]:
    mv = MVDefinition(
        name="m", fact_table="fact", tables=("fact", "dim"),
        joins=(Join("f_dkey", "d_key"),), group_by=("d_group",),
        aggregates=(Aggregate("SUM", ("f_price",)),),
    )
    return [
        IndexDef("t", (), kind=IndexKind.HEAP),
        IndexDef("t", ("a", "b"), kind=IndexKind.CLUSTERED,
                 method=CompressionMethod.PAGE),
        IndexDef("t", ("a",), included_columns=("c",),
                 method=CompressionMethod.ROW),
        IndexDef("t", ("a",), filter=Comparison("b", "=", "x")),
        IndexDef("m", ("d_group",), kind=IndexKind.CLUSTERED, mv=mv),
    ]


class CountedHash:
    """A filter stand-in that counts how often it is hashed."""

    def __init__(self) -> None:
        self.hashed = 0

    def __hash__(self) -> int:
        self.hashed += 1
        return 7


_UNPICKLE_SCRIPT = """\
import pickle
from tests.test_physical import _hash_cases

loaded = pickle.loads(bytes.fromhex({blob!r}))
fresh = _hash_cases()
assert loaded == fresh
print([hash(ix) == hash(again) for ix, again in zip(loaded, fresh)])
print([hash(ix) for ix in fresh])
"""


class TestIndexDefHash:
    """``IndexDef`` caches its hash; it must stay the dataclass's own
    field-tuple hash (so set iteration order under every hash seed is
    what it was) and never travel with a copy or a pickle."""

    def test_equals_the_field_tuple_hash(self):
        for ix in _hash_cases():
            assert hash(ix) == hash(
                tuple(getattr(ix, f.name) for f in fields(ix))
            )
            assert hash(ix) == hash(ix)

    def test_computed_once_per_instance(self):
        counted = CountedHash()
        ix = IndexDef("t", ("a",), filter=counted)
        for _ in range(3):
            hash(ix)
        assert ix in frozenset([ix]) | {IndexDef("t", ("b",))}
        assert counted.hashed == 1

    def test_replaced_instances_compute_their_own(self):
        counted = CountedHash()
        ix = IndexDef("t", ("a",), filter=counted)
        hash(ix)
        for other in (
            ix.with_method(CompressionMethod.ROW),
            replace(ix, key_columns=("b",)),
            replace(ix),
        ):
            assert "_hash_cache" not in other.__dict__
            before = counted.hashed
            assert hash(other) == hash(other)
            assert counted.hashed == before + 1
            assert hash(other) == hash(
                tuple(getattr(other, f.name) for f in fields(other))
            )

    def test_not_pickled(self, run_with_hashseed):
        cases = _hash_cases()
        ours = [hash(ix) for ix in cases]
        blob = pickle.dumps(cases)
        assert all(
            "_hash_cache" not in ix.__dict__ for ix in pickle.loads(blob)
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        same, theirs = run_with_hashseed(
            _UNPICKLE_SCRIPT.format(blob=blob.hex()), seed
        ).splitlines()
        assert same == str([True] * len(cases))
        # The child's hashes really differ from ours (str hashes are
        # seeded), so a pickled cache could not have passed.
        assert theirs != str(ours)


class TestConfiguration:
    def test_two_bases_rejected(self):
        with pytest.raises(AdvisorError):
            Configuration([
                IndexDef("t", (), kind=IndexKind.HEAP),
                IndexDef("t", ("a",), kind=IndexKind.CLUSTERED),
            ])

    def test_base_swap_on_add(self):
        heap = IndexDef("t", (), kind=IndexKind.HEAP)
        clustered = IndexDef("t", ("a",), kind=IndexKind.CLUSTERED)
        config = Configuration([heap]).add(clustered)
        assert heap not in config
        assert config.base_structure("t") == clustered

    def test_secondary_add_keeps_base(self):
        heap = IndexDef("t", (), kind=IndexKind.HEAP)
        sec = IndexDef("t", ("a",))
        config = Configuration([heap]).add(sec)
        assert heap in config and sec in config

    def test_remove_and_replace(self):
        sec = IndexDef("t", ("a",))
        config = Configuration([sec])
        assert len(config.remove(sec)) == 0
        replaced = config.replace(sec, sec.with_method(CompressionMethod.ROW))
        assert sec not in replaced
        with pytest.raises(AdvisorError):
            config.remove(IndexDef("t", ("zz",)))

    def test_total_size(self):
        a = IndexDef("t", ("a",))
        b = IndexDef("t", ("b",))
        config = Configuration([a, b])
        assert config.total_size({a: 10.0, b: 5.0}) == 15.0

    def test_indexes_on(self):
        a = IndexDef("t", ("a",))
        b = IndexDef("u", ("b",))
        config = Configuration([a, b])
        assert config.indexes_on("t") == [a]

    def test_equality_and_hash(self):
        a = Configuration([IndexDef("t", ("a",))])
        b = Configuration([IndexDef("t", ("a",))])
        assert a == b
        assert hash(a) == hash(b)


class TestMVDefinition:
    def mv(self, **kw):
        defaults = dict(
            name="m",
            fact_table="fact",
            tables=("fact", "dim"),
            joins=(Join("f_dkey", "d_key"),),
            group_by=("d_group",),
            aggregates=(Aggregate("SUM", ("f_price",)),),
        )
        defaults.update(kw)
        return MVDefinition(**defaults)

    def test_aggregate_column_name(self):
        assert aggregate_column_name(Aggregate("SUM", ("a", "b"))) == \
            "sum_a_b"
        assert aggregate_column_name(Aggregate("COUNT", ())) == "count_all"

    def test_storage_columns_with_count(self, small_db):
        cols = dict(self.mv().storage_columns(small_db))
        assert set(cols) == {"d_group", "sum_f_price", "count_all"}
        assert isinstance(cols["count_all"], IntType)
        assert isinstance(cols["sum_f_price"], type(decimal()))

    def test_explicit_count_not_duplicated(self, small_db):
        mv = self.mv(aggregates=(Aggregate("COUNT", ()),))
        names = [n for n, _ in mv.storage_columns(small_db)]
        assert names.count("count_all") == 1

    def test_min_keeps_source_type(self, small_db):
        mv = self.mv(aggregates=(Aggregate("MIN", ("f_qty",)),))
        cols = dict(mv.storage_columns(small_db))
        assert cols["min_f_qty"].width == \
            small_db.table("fact").column("f_qty").width

    def test_referenced_base_columns(self):
        mv = self.mv(predicates=(Comparison("f_qty", "<", 10),))
        refs = mv.referenced_base_columns()
        assert set(refs) == {
            "f_qty", "f_dkey", "d_key", "d_group", "f_price"
        }

    def test_projection_view_columns(self, small_db):
        mv = self.mv(group_by=(), aggregates=(),
                     predicates=(Comparison("d_group", "=", "G1"),))
        names = [n for n, _ in mv.storage_columns(small_db)]
        assert "count_all" not in names
        assert "d_group" in names
