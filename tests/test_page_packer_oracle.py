"""`pack_columns` against the row-at-a-time packer it replaced.

The production packer fills a page by extending every column codec with
a chunk sized from the remaining capacity and backs off to single rows
at the page boundary.  The row-at-a-time packer lives on here, verbatim,
as the oracle: every `PackResult` — and with it every SampleCF estimate
and every true size — must come out identical.  The one thing that is
allowed (and required) to differ is how often `add` runs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Column, char
from repro.compression import ADVISOR_METHODS, CompressionMethod, make_codec
from repro.compression.packages import PageCodec
from repro.datasets import sales_database, tpcds_lite_database, tpch_database
from repro.errors import StorageError
from repro.sampling import SampleManager
from repro.storage import (
    IndexKind,
    SerializedTable,
    measure_structure,
    pack_columns,
)
from repro.storage import index_build
from repro.storage.page import PAGE_CAPACITY, ROW_OVERHEAD, PackResult


# ----------------------------------------------------------------------
# The reference: pack_columns as it stood before the rewrite.
# ----------------------------------------------------------------------
def reference_pack_columns(
    stripped_columns,
    codecs,
    extra_bytes=0,
    row_overhead=ROW_OVERHEAD,
):
    if len(stripped_columns) != len(codecs):
        raise StorageError("column/codec count mismatch")
    n_rows = len(stripped_columns[0]) if stripped_columns else 0
    for col in stripped_columns:
        if len(col) != n_rows:
            raise StorageError("ragged column data")
    for codec in codecs:
        codec.reset()
    if n_rows == 0:
        return PackResult(pages=0, used_bytes=0, rows=0,
                          extra_bytes=extra_bytes)

    pages = 1
    used = 0
    rows_on_page = 0
    closed_size = 0  # size of the current page before the latest row
    # codec.add() returns the column's exact on-page size, so the hot
    # loop sums the returns instead of a second size() pass per row.
    pairs = list(zip(stripped_columns, codecs))
    for i in range(n_rows):
        total = 0
        for col, codec in pairs:
            total += codec.add(col[i])
        rows_on_page += 1
        current = rows_on_page * row_overhead + total
        if current > PAGE_CAPACITY:
            if rows_on_page == 1:
                raise StorageError(
                    "a single compressed row exceeds page capacity"
                )
            # Close the page without this row, then re-add the row fresh.
            pages += 1
            used += closed_size
            for codec in codecs:
                codec.reset()
            total = 0
            for col, codec in pairs:
                total += codec.add(col[i])
            rows_on_page = 1
            current = row_overhead + total
        closed_size = current
    used += closed_size
    return PackResult(pages=pages, used_bytes=used, rows=n_rows,
                      extra_bytes=extra_bytes)


COL = Column("c", char(16))
ALL_METHODS = tuple(CompressionMethod)


def codecs_for(method, columns, column=COL):
    """One fresh codec per column; the global-code codecs get the
    column's distinct count, as `measure_structure` gives them."""
    return [
        make_codec(method, column, n_distinct=max(1, len(set(col))))
        for col in columns
    ]


def assert_same(columns, method, column=COL, **kwargs):
    """The packer and the reference agree on ``columns``; returns the
    common outcome — the PackResult or the StorageError message."""
    outcomes = []
    for pack in (pack_columns, reference_pack_columns):
        try:
            outcomes.append(
                pack(columns, codecs_for(method, columns, column), **kwargs)
            )
        except StorageError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1], (method, kwargs)
    return outcomes[0]


# ----------------------------------------------------------------------
# Real samples and one full table, through measure_structure
# ----------------------------------------------------------------------
def structures(table):
    """Heap, clustered and secondary structures over ``table``: single
    and composite keys, with and without included columns."""
    names = table.column_names
    out = [(IndexKind.HEAP, (), ())]
    out.append((IndexKind.CLUSTERED, tuple(names[:1]), ()))
    out.append((IndexKind.CLUSTERED, tuple(names[1:3][::-1]), ()))
    for i, name in enumerate(names):
        out.append((IndexKind.SECONDARY, (name,), ()))
        if i + 2 < len(names) and i % 2 == 0:
            out.append(
                (IndexKind.SECONDARY, (names[i + 1], name), (names[i + 2],))
            )
    return [s for s in out if s[0] is IndexKind.HEAP or s[1]]


def assert_structures_match(serialized, monkeypatch):
    for kind, key, included in structures(serialized.table):
        for method in ADVISOR_METHODS:
            with monkeypatch.context() as patch:
                built = measure_structure(
                    serialized, kind, key, included, method
                )
                patch.setattr(
                    index_build, "pack_columns", reference_pack_columns
                )
                reference = measure_structure(
                    serialized, kind, key, included, method
                )
            assert built == reference, (
                serialized.table.name, kind, key, included, method
            )


@pytest.mark.parametrize(
    "make_db, fraction",
    [
        (lambda: sales_database(scale=0.1, seed=1), 0.1),
        (lambda: tpch_database(scale=0.2, z=1.0, seed=1), 0.1),
        (lambda: tpcds_lite_database(scale=0.2, seed=1), 0.1),
    ],
    ids=["sales-0.1", "tpch-0.2-zipf", "tpcds_lite-0.2"],
)
def test_samples_match_reference(make_db, fraction, monkeypatch):
    database = make_db()
    manager = SampleManager(database)
    for table in database.tables:
        assert_structures_match(
            manager.table_sample(table.name, fraction), monkeypatch
        )


def test_full_table_matches_reference(monkeypatch):
    database = tpch_database(scale=0.2, z=1.0, seed=1)
    assert_structures_match(
        SerializedTable(database.table("orders")), monkeypatch
    )


# ----------------------------------------------------------------------
# The page boundary, case by case
# ----------------------------------------------------------------------
@pytest.mark.parametrize("row_overhead", [0, 4])
def test_page_that_fills_exactly(row_overhead):
    # ROW compression stores 1 + len bytes per value: 8096 = 253 * 32.
    value = b"x" * (32 - row_overhead - 1)
    full = assert_same([[value] * 253], CompressionMethod.ROW,
                       row_overhead=row_overhead)
    assert (full.pages, full.used_bytes) == (1, PAGE_CAPACITY)
    over = assert_same([[value] * 254], CompressionMethod.ROW,
                       row_overhead=row_overhead)
    assert (over.pages, over.used_bytes) == (2, PAGE_CAPACITY + 32)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_first_row_over_capacity_raises(method):
    wide = Column("w", char(PAGE_CAPACITY + 1))
    outcome = assert_same(
        [[b"y" * (PAGE_CAPACITY + 1), b"z"]], method, column=wide
    )
    # Pointer codecs store a fixed-width code whatever the value is.
    pointers = (CompressionMethod.GLOBAL_DICT, CompressionMethod.BITPACK)
    if method not in pointers:
        assert outcome == "a single compressed row exceeds page capacity"


@pytest.mark.parametrize("method", ALL_METHODS)
def test_later_row_over_capacity_sits_alone(method):
    # Inherited from the row-at-a-time packer: only the very first row
    # is refused; a later one wider than a page gets a page of its own.
    column = [b"a"] * 5 + [b"y" * (PAGE_CAPACITY + 1)] + [b"b"] * 5
    assert_same([column], method)


@pytest.mark.parametrize("row_overhead", [0, 4])
def test_pointer_switch_lands_mid_chunk(row_overhead):
    # 300 distinct two-byte values fit one page; the 257th distinct
    # value (where on-page pointers widen) arrives inside a chunk.
    distinct = [bytes([1 + i // 200, 1 + i % 200]) for i in range(300)]
    column = (distinct + distinct[:150]) * 6
    assert_same([column], CompressionMethod.PAGE, row_overhead=row_overhead)


@pytest.mark.parametrize("row_overhead", [0, 4])
def test_prefix_collapses_mid_chunk(row_overhead):
    shared = [b"prefix-%04d" % i for i in range(180)]
    column = shared + [b"q"] + shared + [b""] + shared * 4
    assert_same([column], CompressionMethod.PAGE, row_overhead=row_overhead)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_empty_values_and_empty_input(method):
    assert_same([[b""] * 5000], method)
    assert_same([[b""] * 700, [b"v"] * 700], method, row_overhead=0)
    assert_same([[]], method, extra_bytes=17)
    assert assert_same([], method, extra_bytes=17) == PackResult(
        pages=0, used_bytes=0, rows=0, extra_bytes=17
    )


def test_rows_that_occupy_nothing():
    # A zero-width uncompressed column in a dense (column-store) segment:
    # every row fits, whatever the chunking divides by.
    packed = assert_same(
        [[b""] * 1000], CompressionMethod.NONE,
        column=Column("z", char(0)), row_overhead=0,
    )
    assert packed == PackResult(pages=1, used_bytes=0, rows=1000)


def test_mismatched_inputs_raise_as_before():
    for pack in (pack_columns, reference_pack_columns):
        with pytest.raises(StorageError, match="ragged"):
            pack([[b"a", b"b"], [b"a"]], codecs_for(
                CompressionMethod.ROW, [[b"a"], [b"a"]]))
        with pytest.raises(StorageError, match="count mismatch"):
            pack([[b"a"]], [])


# ----------------------------------------------------------------------
# Property: arbitrary byte columns, every method
# ----------------------------------------------------------------------
@st.composite
def byte_columns(draw):
    """1-3 equally long columns drawn from small alphabets of byte
    strings — short ones (many rows, many distinct values on a page)
    and long ones (few rows per page, so boundaries abound)."""
    n_rows = draw(st.integers(min_value=0, max_value=700))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        alphabet = draw(st.lists(
            st.one_of(
                st.binary(max_size=4),
                st.binary(min_size=40, max_size=400),
                st.builds(lambda tail: b"shared/" + tail,
                          st.binary(max_size=6)),
            ),
            min_size=1, max_size=40,
        ))
        pick = draw(st.lists(
            st.integers(min_value=0, max_value=len(alphabet) - 1),
            min_size=n_rows, max_size=n_rows,
        ))
        columns.append([alphabet[i] for i in pick])
    return columns


@settings(max_examples=60, deadline=None)
@given(byte_columns(), st.sampled_from(ALL_METHODS),
       st.sampled_from([0, 4]))
def test_any_columns_match_reference(columns, method, row_overhead):
    assert_same(columns, method, row_overhead=row_overhead, extra_bytes=3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=3), max_size=2500),
       st.sampled_from([0, 4]))
def test_many_distinct_values_match_reference(column, row_overhead):
    # Short values: hundreds of distinct ones share a page, so the
    # 256 -> 257 pointer switch happens wherever the data puts it.
    assert_same([column], CompressionMethod.PAGE, row_overhead=row_overhead)


# ----------------------------------------------------------------------
# What must differ: the packer no longer feeds PAGE one value at a time
# ----------------------------------------------------------------------
class CountingPageCodec(PageCodec):
    adds = 0

    def add(self, stripped):
        CountingPageCodec.adds += 1
        return super().add(stripped)


#: one-row probes the packer may spend per page and column closing in
#: on the boundary (the row-at-a-time packer spent one per row:
#: hundreds).
ADDS_PER_PAGE = 8


def test_page_codec_adds_are_per_page_not_per_row(monkeypatch):
    monkeypatch.setattr(
        index_build, "make_codecs",
        lambda method, columns, distincts: [
            CountingPageCodec(col) for col in columns
        ],
    )
    database = tpch_database(scale=0.2, z=1.0, seed=1)
    sample = SampleManager(database).table_sample("lineitem", 0.1)
    for kind, key, included in structures(sample.table):
        CountingPageCodec.adds = 0
        size = measure_structure(
            sample, kind, key, included, CompressionMethod.PAGE
        )
        n_columns = len(
            index_build.stored_columns(sample, kind, key, included)
        )
        assert size.rows > 50 * size.leaf_pages
        assert CountingPageCodec.adds <= (
            ADDS_PER_PAGE * size.leaf_pages * n_columns
        ), (kind, key, included)
