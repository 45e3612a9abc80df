"""Table/column statistics used by the what-if optimizer and the size
estimation framework (cardinalities, distinct counts, histograms, average
stripped lengths)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

from repro.catalog.table import Table
from repro.compression.base import stripped_length_total
from repro.errors import StatisticsError
from repro.stats.histogram import EquiDepthHistogram


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column.

    Attributes:
        n_rows: rows in the table.
        n_nulls: NULL count.
        n_distinct: distinct non-NULL values.
        min_value / max_value: domain bounds (None when all NULL).
        avg_stripped_len: mean bytes after padding suppression (drives the
            analytic parts of compressed-size reasoning).
        histogram: equi-depth histogram over non-NULL values.
    """

    name: str
    n_rows: int
    n_nulls: int
    n_distinct: int
    min_value: object
    max_value: object
    avg_stripped_len: float
    histogram: EquiDepthHistogram

    @property
    def null_fraction(self) -> float:
        return self.n_nulls / self.n_rows if self.n_rows else 0.0

    @property
    def density(self) -> float:
        """1 / distinct: average fraction of rows per distinct value."""
        return 1.0 / self.n_distinct if self.n_distinct else 1.0


class TableStats:
    """Per-column statistics of a table (built once, read often)."""

    def __init__(self, table: Table, columns: Mapping[str, ColumnStats]) -> None:
        self.table_name = table.name
        self.n_rows = table.num_rows
        self.row_width = table.row_width
        self._columns = dict(columns)
        #: per-instance selectivity memos (stats are immutable once
        #: built, so a memoized selectivity can never go stale); see
        #: :mod:`repro.stats.selectivity`.
        self.selectivity_memo: dict = {}
        self.conjunction_memo: dict = {}

    def column(self, name: str) -> ColumnStats:
        return self._columns[name]

    def has_column(self, name: str) -> bool:
        return name in self._columns

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @classmethod
    def build(cls, table: Table, histogram_buckets: int = 32) -> "TableStats":
        """Compute exact statistics from the table data.

        One ``Counter`` pass per column; everything after it is per
        distinct value.  The sorted distinct values and their running
        row counts feed both the histogram and the average stripped
        length.  A character column serializes and strips each distinct
        value once; an integer-backed one sums its stripped lengths per
        byte band — a handful of bisections over the sorted values,
        weighted by the running counts — and encodes only its minimum
        and maximum, which is enough to raise a
        :class:`~repro.errors.StorageError` for a value that overflows
        the column (see :func:`stripped_length_total`).
        """
        stats: dict[str, ColumnStats] = {}
        for col in table.columns:
            values = table.column_values(col.name)
            counts = Counter(values)
            n_nulls = counts.pop(None, 0)
            try:
                keys = sorted(counts)
            except TypeError as exc:
                raise StatisticsError(
                    f"column {table.name}.{col.name}: values cannot be "
                    f"ordered ({exc})"
                ) from exc
            ends = list(accumulate(map(counts.__getitem__, keys)))
            if keys:
                total_stripped = stripped_length_total(keys, ends, col)
                avg_len = total_stripped / (len(values) - n_nulls)
                mn, mx = keys[0], keys[-1]
            else:
                avg_len, mn, mx = 0.0, None, None
            stats[col.name] = ColumnStats(
                name=col.name,
                n_rows=len(values),
                n_nulls=n_nulls,
                n_distinct=len(keys),
                min_value=mn,
                max_value=mx,
                avg_stripped_len=avg_len,
                histogram=EquiDepthHistogram.from_ends(
                    keys, ends, histogram_buckets
                ),
            )
        return cls(table, stats)


class DatabaseStats:
    """Statistics for all tables of a database, built lazily."""

    def __init__(self, database) -> None:
        self._database = database
        self._stats: dict[str, TableStats] = {}

    def table(self, name: str) -> TableStats:
        if name not in self._stats:
            self._stats[name] = TableStats.build(self._database.table(name))
        return self._stats[name]

    def invalidate(self, name: str | None = None) -> None:
        """Drop cached stats (after data changes)."""
        if name is None:
            self._stats.clear()
        else:
            self._stats.pop(name, None)
