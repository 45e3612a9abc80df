"""Global dictionary codec (one dictionary per column per index).

IBM DB2-style: a single dictionary shared by all pages of a table
partition/index.  Every value on a page is a fixed-width pointer whose
width depends on the column's index-wide distinct count, so the per-page
footprint is order *independent* — the dictionary itself is charged once
per index via :func:`global_dictionary_overhead`.
"""

from __future__ import annotations

from typing import Iterable

from repro.compression.base import ColumnCodec


def pointer_width(n_distinct: int) -> int:
    """Bytes needed to address ``n_distinct`` dictionary entries."""
    if n_distinct <= 0:
        return 1
    width = 1
    capacity = 256
    while capacity < n_distinct:
        width += 1
        capacity *= 256
    return width


def global_dictionary_overhead(distinct_values: Iterable[bytes]) -> int:
    """Index-level bytes for the dictionary itself (entries + length
    bytes)."""
    return sum(1 + len(v) for v in distinct_values)


class GlobalDictionaryCodec(ColumnCodec):
    """Fixed-width pointers into an index-wide dictionary.

    Args:
        column: the column being encoded.
        n_distinct: index-wide distinct count of this column (decides the
            pointer width).
    """

    def __init__(self, column, n_distinct: int) -> None:
        super().__init__(column)
        self._ptr = pointer_width(n_distinct)

    def add(self, stripped: bytes) -> int:
        self.count += 1
        return self.count * self._ptr

    def extend(self, values) -> int:
        self.count += len(values)
        return self.size()

    def size(self) -> int:
        return self.count * self._ptr
