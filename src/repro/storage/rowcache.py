"""Per-table cache of serialized/stripped column bytes.

Building many candidate indexes over the same table re-serializes the same
values again and again; this cache does the (relatively expensive) fixed
width serialization and padding-stripping once per column and memoizes
sort orders per key-column sequence, and the columns laid out in those
orders.
"""

from __future__ import annotations

from typing import Sequence

from repro.catalog.column import Column
from repro.catalog.datatypes import IntType
from repro.catalog.table import Table
from repro.compression.base import strip_value

#: Pseudo-column used as the row locator stored in secondary indexes.
RID_COLUMN = Column("_rid", IntType(8))

#: Values the ordered-column memo of one table may hold (8 MiB of
#: pointers).  Samples never come near it; on a full table the memo
#: starts over when the next column would cross it.
_ORDERED_MEMO_VALUES = 1 << 20


def _sort_key_for(values: list) -> list:
    """Per-column sort keys tolerant of NULLs (None sorts first).

    A column without NULLs sorts by its values as they are — the
    ``(is not NULL, value)`` wrapper would tie on its first element in
    every comparison."""
    if None in values:
        return [((v is not None), v) for v in values]
    return values


class SerializedTable:
    """Lazy cache of stripped bytes, distinct stats and sort orders."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self._stripped: dict[str, list[bytes]] = {}
        self._distinct: dict[str, set[bytes]] = {}
        self._orders: dict[tuple[str, ...], list[int]] = {}
        self._ordered: dict[tuple[tuple[str, ...], str], list[bytes]] = {}
        self._rid_stripped: list[bytes] | None = None

    # ------------------------------------------------------------------
    def stripped(self, column_name: str) -> list[bytes]:
        """Padding-stripped serialized bytes of one column, in row order."""
        cached = self._stripped.get(column_name)
        if cached is not None:
            return cached
        column = self.table.column(column_name)
        encode = column.dtype.encode
        values = self.table.column_values(column_name)
        # Serialize each distinct value once; the per-row pass is a
        # C-level lookup.
        by_value = {v: strip_value(encode(v), column) for v in set(values)}
        out = list(map(by_value.__getitem__, values))
        self._stripped[column_name] = out
        return out

    def rid_stripped(self) -> list[bytes]:
        """Stripped RID bytes (row position as an 8-byte int), row order."""
        if self._rid_stripped is None:
            encode = RID_COLUMN.dtype.encode
            self._rid_stripped = [
                strip_value(encode(i), RID_COLUMN)
                for i in range(self.table.num_rows)
            ]
        return self._rid_stripped

    # ------------------------------------------------------------------
    def distinct_stripped(self, column_name: str) -> set[bytes]:
        """Distinct stripped values of a column (global dictionary input)."""
        cached = self._distinct.get(column_name)
        if cached is None:
            cached = set(self.stripped(column_name))
            self._distinct[column_name] = cached
        return cached

    def n_distinct(self, column_name: str) -> int:
        return len(self.distinct_stripped(column_name))

    def distinct_bytes(self, column_name: str) -> int:
        """Global-dictionary overhead bytes for this column."""
        return sum(1 + len(v) for v in self.distinct_stripped(column_name))

    # ------------------------------------------------------------------
    def sort_order(self, key_columns: Sequence[str]) -> list[int]:
        """Row indices sorted by the key columns (memoized)."""
        key = tuple(key_columns)
        cached = self._orders.get(key)
        if cached is not None:
            return cached
        if not key:
            order = list(range(self.table.num_rows))
        else:
            col_keys = [
                _sort_key_for(self.table.column_values(name)) for name in key
            ]
            # One key per row: the column's own, or a tuple of the
            # per-column keys zipped at C speed.
            row_keys = (
                col_keys[0] if len(col_keys) == 1 else list(zip(*col_keys))
            )
            order = sorted(
                range(self.table.num_rows), key=row_keys.__getitem__
            )
        self._orders[key] = order
        return order

    def ordered(
        self, column_name: str, key_columns: Sequence[str]
    ) -> list[bytes]:
        """Stripped bytes of one column (or the RID pseudo-column) in
        :meth:`sort_order` of ``key_columns`` (memoized; no key columns
        is row order, the stored list as is)."""
        source = (
            self.rid_stripped()
            if column_name == RID_COLUMN.name
            else self.stripped(column_name)
        )
        if not key_columns:
            return source
        key = (tuple(key_columns), column_name)
        cached = self._ordered.get(key)
        if cached is None:
            cached = list(map(source.__getitem__, self.sort_order(key[0])))
            # Every memoized column holds one value per table row.
            if (len(self._ordered) + 1) * len(cached) > _ORDERED_MEMO_VALUES:
                self._ordered.clear()
            self._ordered[key] = cached
        return cached
