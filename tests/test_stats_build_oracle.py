"""`TableStats.build` / `EquiDepthHistogram.build` against their
per-row reference.

The production builders work per *distinct value* (one ``Counter`` pass
per column, bucket boundaries found by bisection over cumulative
counts), and an integer-backed column's stripped lengths are summed per
byte band rather than per value.  The per-row builders they replaced
live on here, verbatim, as the oracle: every `ColumnStats` field and
every `Bucket` must come out identical, so selectivities — and with
them every recommendation — are unchanged.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Column, DATE, INT, INT32, Table, char, decimal
from repro.compression.base import strip_value
from repro.datasets import sales_database, tpcds_lite_database, tpch_database
from repro.errors import StatisticsError, StorageError
from repro.stats import EquiDepthHistogram, TableStats
from repro.stats.histogram import Bucket


# ----------------------------------------------------------------------
# The reference: the per-row builders as they stood before the rewrite.
# ----------------------------------------------------------------------
def reference_histogram(values, n_buckets=32):
    if n_buckets <= 0:
        raise StatisticsError("n_buckets must be positive")
    data = sorted(values)
    total = len(data)
    if total == 0:
        return [], 0
    n_buckets = min(n_buckets, total)
    buckets = []
    per = total / n_buckets
    start = 0
    for b in range(n_buckets):
        end = total if b == n_buckets - 1 else int(round((b + 1) * per))
        end = max(end, start + 1)
        end = min(end, total)
        if start >= total:
            break
        chunk = data[start:end]
        buckets.append(
            Bucket(
                lo=chunk[0],
                hi=chunk[-1],
                count=len(chunk),
                distinct=len(set(chunk)),
            )
        )
        start = end
    return buckets, total


def reference_column_stats(table, histogram_buckets=32):
    """{column: field dict} computed the per-row way."""
    stats = {}
    for col in table.columns:
        values = table.column_values(col.name)
        non_null = [v for v in values if v is not None]
        n_nulls = len(values) - len(non_null)
        distinct = set(non_null)
        if non_null:
            total_stripped = sum(
                len(strip_value(col.dtype.encode(v), col))
                for v in non_null
            )
            avg_len = total_stripped / len(non_null)
            mn, mx = min(non_null), max(non_null)
        else:
            avg_len, mn, mx = 0.0, None, None
        buckets, total = reference_histogram(non_null, histogram_buckets)
        stats[col.name] = dict(
            name=col.name,
            n_rows=len(values),
            n_nulls=n_nulls,
            n_distinct=len(distinct),
            min_value=mn,
            min_type=type(mn),
            max_value=mx,
            max_type=type(mx),
            avg_stripped_len=avg_len,
            buckets=buckets,
            total=total,
        )
    return stats


def built_column_stats(table, histogram_buckets=32):
    built = TableStats.build(table, histogram_buckets)
    out = {}
    for name in built.column_names:
        cs = built.column(name)
        out[name] = dict(
            name=cs.name,
            n_rows=cs.n_rows,
            n_nulls=cs.n_nulls,
            n_distinct=cs.n_distinct,
            min_value=cs.min_value,
            min_type=type(cs.min_value),
            max_value=cs.max_value,
            max_type=type(cs.max_value),
            avg_stripped_len=cs.avg_stripped_len,
            buckets=cs.histogram.buckets,
            total=cs.histogram.total,
        )
    return out


def one_column_table(dtype, values):
    table = Table("t", [Column("c", dtype, nullable=True)])
    table.set_column_data("c", values)
    return table


# ----------------------------------------------------------------------
# Whole datasets
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make_db",
    [
        lambda: sales_database(scale=0.1, seed=1),
        lambda: tpch_database(scale=0.2, z=1.0, seed=1),
        lambda: tpcds_lite_database(scale=0.2, seed=1),
    ],
    ids=["sales-0.1", "tpch-0.2-zipf", "tpcds_lite-0.2"],
)
def test_datasets_match_reference(make_db):
    for table in make_db().tables:
        assert built_column_stats(table) == reference_column_stats(table), (
            table.name
        )


# ----------------------------------------------------------------------
# Property: arbitrary columns, including the degenerate ones
# ----------------------------------------------------------------------
def _ints(dtype):
    """Every value ``dtype`` can hold."""
    half = 1 << (8 * dtype.width - 1)
    return st.integers(min_value=-half, max_value=half - 1)


def _band_edges(dtype):
    """The integers on and beside every byte-band edge of the stripped
    length (0, +-1, +-2^(8k-1), -2^(8k-1)-1, 2^(8k)) that ``dtype`` can
    hold."""
    edges = {0, 1, -1}
    for k in range(1, dtype.width + 1):
        half = 1 << (8 * k - 1)
        edges |= {half, -half, -half - 1, 1 << (8 * k)}
    top = 1 << (8 * dtype.width - 1)
    return sorted(v for v in edges if -top <= v < top)


#: a narrow domain, so a handful of values repeat often enough to span
#: several equi-depth buckets (heavy hitters), negatives included
_HEAVY_INTS = st.integers(min_value=-3, max_value=3)
_STRINGS = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=16
)
_HEAVY_STRINGS = st.sampled_from(["", "a", "ab", "b", "zz"])


def _column(values):
    return st.lists(st.one_of(st.none(), values), max_size=120)


def _integer_columns(dtype):
    edges = st.sampled_from(_band_edges(dtype))
    return st.one_of(
        st.tuples(st.just(dtype), _column(_ints(dtype))),
        st.tuples(st.just(dtype), _column(_HEAVY_INTS)),
        st.tuples(st.just(dtype), _column(edges)),
        st.tuples(
            st.just(dtype),
            _column(st.one_of(_HEAVY_INTS, edges, _ints(dtype))),
        ),
    )


_INTEGER_TYPES = (INT, INT32, decimal(), DATE)

_COLUMNS = st.one_of(
    *(_integer_columns(dtype) for dtype in _INTEGER_TYPES),
    st.tuples(st.just(char(16)), _column(_STRINGS)),
    st.tuples(st.just(char(16)), _column(_HEAVY_STRINGS)),
    st.tuples(st.just(INT), st.lists(st.none(), max_size=5)),
)


@settings(max_examples=300, deadline=None)
@given(column=_COLUMNS, n_buckets=st.sampled_from([1, 2, 8, 32]))
def test_any_column_matches_reference(column, n_buckets):
    dtype, values = column
    table = one_column_table(dtype, values)
    assert built_column_stats(table, n_buckets) == reference_column_stats(
        table, n_buckets
    )
    non_null = [v for v in values if v is not None]
    hist = EquiDepthHistogram.build(non_null, n_buckets)
    assert (hist.buckets, hist.total) == reference_histogram(
        non_null, n_buckets
    )


def test_degenerate_inputs_keep_their_results():
    empty = built_column_stats(one_column_table(INT, []))["c"]
    assert (empty["n_rows"], empty["n_distinct"], empty["buckets"]) == (0, 0, [])
    assert empty["avg_stripped_len"] == 0.0 and empty["min_value"] is None

    nulls = built_column_stats(one_column_table(INT, [None] * 4))["c"]
    assert (nulls["n_rows"], nulls["n_nulls"], nulls["total"]) == (4, 4, 0)

    few = built_column_stats(one_column_table(INT, [5, 5, 7]), 32)["c"]
    assert [(b.lo, b.hi, b.count, b.distinct) for b in few["buckets"]] == [
        (5, 5, 1, 1), (5, 5, 1, 1), (7, 7, 1, 1),
    ]


@pytest.mark.parametrize("dtype", _INTEGER_TYPES, ids=lambda t: t.name)
def test_every_band_edge_matches_reference(dtype):
    """Each edge alone, and all of them in one column, with repeats."""
    edges = _band_edges(dtype)
    for value in edges:
        table = one_column_table(dtype, [value, value, None])
        assert built_column_stats(table) == reference_column_stats(table)
    table = one_column_table(dtype, edges + edges[::3] + [None])
    assert built_column_stats(table) == reference_column_stats(table)


# ----------------------------------------------------------------------
# Named error at the boundary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", _INTEGER_TYPES, ids=lambda t: t.name)
@pytest.mark.parametrize("where", ["above", "below"])
def test_overflowing_column_raises_storage_error(dtype, where):
    """Both builders name the overflow: a value past either end of the
    type's range is a StorageError, not a bare OverflowError."""
    half = 1 << (8 * dtype.width - 1)
    bad = half if where == "above" else -half - 1
    table = one_column_table(dtype, [0, bad, 5, None])
    with pytest.raises(StorageError, match="overflows"):
        reference_column_stats(table)
    with pytest.raises(StorageError, match="overflows"):
        TableStats.build(table)


def test_unorderable_column_raises_named_error():
    table = Table("orders", [Column("o_key", INT), Column("o_note", char(8))])
    table.append_row((1, "a"))
    table.append_row((2, 7))
    with pytest.raises(StatisticsError, match=r"orders\.o_note"):
        TableStats.build(table)


# ----------------------------------------------------------------------
# Work bound: serialization is per distinct value, not per row
# ----------------------------------------------------------------------
class CountingType:
    """A dtype that counts its ``encode`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.encode_calls = 0

    def encode(self, value):
        self.encode_calls += 1
        return self.inner.encode(value)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_encode_called_at_most_once_per_distinct_value():
    """Character columns serialize each distinct value once; the
    integer-backed ones only their minimum and maximum."""
    source = sales_database(scale=0.05, seed=1).table("sales")
    counted = Table(
        source.name,
        [Column(c.name, CountingType(c.dtype), c.nullable)
         for c in source.columns],
    )
    for name in source.column_names:
        counted.set_column_data(name, source.column_values(name))
    built = TableStats.build(counted)
    repeated = 0
    integer_backed = 0
    for col in counted.columns:
        cs = built.column(col.name)
        assert col.dtype.encode_calls <= cs.n_distinct, col.name
        if not col.dtype.is_character:
            integer_backed += 1
            assert col.dtype.encode_calls <= 2, col.name
        repeated += cs.n_distinct < cs.n_rows - cs.n_nulls
    assert repeated  # the bound is only a bound if values repeat
    assert integer_backed
