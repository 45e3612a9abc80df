"""Tests for page packing and physical index construction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Column, INT, Table, char
from repro.compression import CompressionMethod, make_codecs
from repro.errors import StorageError
from repro.storage import (
    PAGE_CAPACITY,
    PAGE_SIZE,
    ROW_OVERHEAD,
    IndexKind,
    SerializedTable,
    btree_overhead_pages,
    compression_fraction,
    measure_structure,
    pack_columns,
    pack_fixed_width,
    stored_columns,
)
from repro.compression.base import strip_value
from repro.storage import rowcache
from repro.storage.rowcache import RID_COLUMN


def make_table(n=2000, seed=5):
    rng = random.Random(seed)
    t = Table(
        "t",
        [Column("a", INT), Column("b", char(10)), Column("c", INT)],
        primary_key=("a",),
    )
    for i in range(n):
        t.append_row((i, f"G{rng.randrange(6)}", rng.randrange(1000)))
    return t


class TestPackFixedWidth:
    def test_zero_rows(self):
        assert pack_fixed_width(0, 40).pages == 0

    def test_exact_page_math(self):
        per_row = 40 + ROW_OVERHEAD
        rows_per_page = PAGE_CAPACITY // per_row
        assert pack_fixed_width(rows_per_page, 40).pages == 1
        assert pack_fixed_width(rows_per_page + 1, 40).pages == 2

    def test_row_too_wide(self):
        with pytest.raises(StorageError):
            pack_fixed_width(1, PAGE_CAPACITY + 1)

    @given(st.integers(min_value=1, max_value=100000),
           st.integers(min_value=1, max_value=500))
    def test_page_capacity_invariant(self, rows, width):
        result = pack_fixed_width(rows, width)
        assert result.pages * (PAGE_CAPACITY // (width + ROW_OVERHEAD)) >= rows


class TestPackColumns:
    def _pack(self, n, method=CompressionMethod.ROW):
        cols = [Column("a", INT)]
        values = [INT.encode(i).lstrip(b"\x00") for i in range(n)]
        codecs = make_codecs(method, cols, {"a": n})
        return pack_columns([values], codecs)

    def test_empty(self):
        assert self._pack(0).pages == 0

    def test_rows_preserved(self):
        assert self._pack(500).rows == 500

    def test_pages_never_overflow(self):
        result = self._pack(50000)
        # Every page's used bytes must fit capacity on average.
        assert result.used_bytes <= result.pages * PAGE_CAPACITY

    def test_mismatched_codecs(self):
        with pytest.raises(StorageError):
            pack_columns([[b"a"]], [])

    def test_ragged_columns(self):
        cols = [Column("a", INT), Column("b", INT)]
        codecs = make_codecs(CompressionMethod.ROW, cols)
        with pytest.raises(StorageError):
            pack_columns([[b"a"], [b"a", b"b"]], codecs)

    def test_extra_bytes_carried(self):
        result = self._pack(10, CompressionMethod.ROW)
        assert result.total_bytes == result.pages * PAGE_SIZE


class TestBtreeOverhead:
    def test_single_leaf_no_interior(self):
        assert btree_overhead_pages(1, 20) == 0

    def test_grows_with_leaves(self):
        assert btree_overhead_pages(10000, 20) > btree_overhead_pages(100, 20)

    def test_wide_keys_lower_fanout(self):
        assert btree_overhead_pages(10000, 4000) >= btree_overhead_pages(
            10000, 8
        )


class TestSerializedTable:
    def test_stripped_cached(self):
        s = SerializedTable(make_table(100))
        assert s.stripped("a") is s.stripped("a")

    def test_rid_values(self):
        s = SerializedTable(make_table(300))
        rids = s.rid_stripped()
        assert len(rids) == 300
        assert rids[0] == b""  # rid 0 strips to nothing
        assert rids[299] == (299).to_bytes(2, "big").lstrip(b"\x00")

    def test_distinct(self):
        s = SerializedTable(make_table(500))
        assert s.n_distinct("b") == 6

    def test_sort_order_sorted(self):
        t = make_table(200)
        s = SerializedTable(t)
        order = s.sort_order(("c",))
        values = t.column_values("c")
        assert all(
            values[order[i]] <= values[order[i + 1]]
            for i in range(len(order) - 1)
        )

    def test_sort_order_handles_nulls(self):
        t = Table("n", [Column("a", INT, nullable=True)])
        t.extend_rows([(3,), (None,), (1,)])
        s = SerializedTable(t)
        order = s.sort_order(("a",))
        assert t.column_values("a")[order[0]] is None

    @staticmethod
    def nullable_table(n=400, seed=9):
        rng = random.Random(seed)
        t = Table("n", [
            Column("a", INT, nullable=True),
            Column("b", char(6), nullable=True),
            Column("c", INT),
        ])
        t.extend_rows([
            (
                rng.choice([None, rng.randrange(-5, 5)]),
                rng.choice([None, "", "x", f"v{rng.randrange(4)}"]),
                rng.randrange(7),
            )
            for _ in range(n)
        ])
        return t

    @pytest.mark.parametrize(
        "key", [("a",), ("c",), ("c", "a"), ("b", "c"), ("a", "b", "c")]
    )
    def test_sort_order_matches_per_row_tuple_keys(self, key):
        # The order as it was computed before the keys were zipped (and
        # NULL-free columns left unwrapped): one tuple of (is not NULL,
        # value) pairs per row, built by a Python key function.
        t = self.nullable_table()
        col_keys = [
            [((v is not None), v) for v in t.column_values(name)]
            for name in key
        ]
        reference = sorted(
            range(t.num_rows),
            key=lambda i: tuple(ck[i] for ck in col_keys),
        )
        assert SerializedTable(t).sort_order(key) == reference

    def test_stripped_matches_per_row_serialization(self):
        for t in (self.nullable_table(), make_table(300)):
            s = SerializedTable(t)
            for col in t.columns:
                assert s.stripped(col.name) == [
                    strip_value(col.dtype.encode(v), col)
                    for v in t.column_values(col.name)
                ]

    def test_ordered_is_the_gathered_column(self):
        # What measure_structure used to gather per call, memoized; no
        # key columns means row order, the stored list as is.
        s = SerializedTable(make_table(500))
        key = ("b", "c")
        order = s.sort_order(key)
        for name in ("a", "b", "c"):
            source = s.stripped(name)
            assert s.ordered(name, key) == [source[i] for i in order]
            assert s.ordered(name, key) is s.ordered(name, list(key))
            assert s.ordered(name, ()) is source
        rid = s.rid_stripped()
        assert s.ordered(RID_COLUMN.name, key) == [rid[i] for i in order]
        assert s.ordered(RID_COLUMN.name, ()) is rid

    def test_ordered_memo_is_bounded(self, monkeypatch):
        # On a full table the memo starts over instead of growing past
        # its budget; what it returns does not change.
        monkeypatch.setattr(rowcache, "_ORDERED_MEMO_VALUES", 1000)
        s = SerializedTable(make_table(300))
        for key in (("a",), ("b",), ("c",), ("b", "c"), ("c", "b")):
            for name in ("a", "b", "c"):
                source = s.stripped(name)
                assert s.ordered(name, key) == [
                    source[i] for i in s.sort_order(key)
                ]
                assert len(s._ordered) * 300 <= 1000


class TestMeasureStructure:
    def test_heap_vs_clustered_same_columns(self):
        s = SerializedTable(make_table(1000))
        heap = measure_structure(s, IndexKind.HEAP)
        clustered = measure_structure(s, IndexKind.CLUSTERED, ("a",))
        assert heap.leaf_pages == clustered.leaf_pages
        assert clustered.interior_pages >= heap.interior_pages

    def test_clustered_requires_keys(self):
        s = SerializedTable(make_table(10))
        with pytest.raises(StorageError):
            measure_structure(s, IndexKind.CLUSTERED)

    def test_secondary_narrower_than_clustered(self):
        s = SerializedTable(make_table(1000))
        secondary = measure_structure(s, IndexKind.SECONDARY, ("b",))
        clustered = measure_structure(s, IndexKind.CLUSTERED, ("b",))
        assert secondary.total_bytes < clustered.total_bytes

    def test_compression_shrinks(self):
        s = SerializedTable(make_table(2000))
        for method in (CompressionMethod.ROW, CompressionMethod.PAGE):
            cf = compression_fraction(s, IndexKind.SECONDARY, ("b",),
                                      ("c",), method)
            assert cf < 1.0

    def test_page_never_worse_than_row(self):
        s = SerializedTable(make_table(2000))
        row = measure_structure(s, IndexKind.SECONDARY, ("b",), ("c",),
                                CompressionMethod.ROW)
        page = measure_structure(s, IndexKind.SECONDARY, ("b",), ("c",),
                                 CompressionMethod.PAGE)
        assert page.total_bytes <= row.total_bytes

    def test_ord_ind_invariance(self):
        """The ColSet premise: ROW-compressed size is (near) identical for
        any key order over the same column set."""
        s = SerializedTable(make_table(3000))
        ab = measure_structure(s, IndexKind.SECONDARY, ("b", "c"), (),
                               CompressionMethod.ROW)
        ba = measure_structure(s, IndexKind.SECONDARY, ("c", "b"), (),
                               CompressionMethod.ROW)
        assert abs(ab.leaf_pages - ba.leaf_pages) <= 1

    def test_ord_dep_sensitivity(self):
        """PAGE compression should generally differ between key orders
        (local dictionaries see different per-page distributions)."""
        s = SerializedTable(make_table(3000))
        ab = measure_structure(s, IndexKind.SECONDARY, ("b", "a"), (),
                               CompressionMethod.PAGE)
        ba = measure_structure(s, IndexKind.SECONDARY, ("a", "b"), (),
                               CompressionMethod.PAGE)
        assert ab.used_bytes != ba.used_bytes

    def test_stored_columns_secondary_has_rid(self):
        s = SerializedTable(make_table(10))
        cols = stored_columns(s, IndexKind.SECONDARY, ("b",), ("c",))
        assert cols[-1].name == RID_COLUMN.name
        assert [c.name for c in cols[:-1]] == ["b", "c"]

    def test_stored_columns_clustered_has_all(self):
        s = SerializedTable(make_table(10))
        cols = stored_columns(s, IndexKind.CLUSTERED, ("c",))
        assert {c.name for c in cols} == {"a", "b", "c"}
        assert cols[0].name == "c"

    def test_rle_on_sorted_column_compresses(self):
        s = SerializedTable(make_table(3000))
        rle = measure_structure(s, IndexKind.SECONDARY, ("b",), (),
                                CompressionMethod.RLE)
        plain = measure_structure(s, IndexKind.SECONDARY, ("b",))
        assert rle.total_bytes < plain.total_bytes

    def test_global_dict_has_extra_bytes(self):
        s = SerializedTable(make_table(2000))
        g = measure_structure(s, IndexKind.SECONDARY, ("b",), (),
                              CompressionMethod.GLOBAL_DICT)
        assert g.extra_bytes > 0

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=1, max_value=400))
    def test_rows_always_preserved(self, n):
        s = SerializedTable(make_table(n, seed=n))
        result = measure_structure(s, IndexKind.SECONDARY, ("b",), (),
                                   CompressionMethod.PAGE)
        assert result.rows == n
