"""Physical index construction: measure the exact size of (compressed)
heaps and indexes by packing real serialized rows into pages.

This is the ground-truth generator behind SampleCF (built on samples) and
behind every "true size" an experiment compares an estimate against (built
on full tables).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.catalog.column import Column
from repro.compression.base import CompressionMethod
from repro.compression.packages import make_codecs
from repro.errors import StorageError
from repro.storage.page import (
    PAGE_SIZE,
    btree_overhead_pages,
    pack_columns,
    pack_fixed_width,
)
from repro.storage.rowcache import RID_COLUMN, SerializedTable


class IndexKind(enum.Enum):
    """Physical structure kinds the advisor designs over."""

    HEAP = "heap"
    CLUSTERED = "clustered"
    SECONDARY = "secondary"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class IndexSize:
    """Measured size of a physical structure.

    Attributes:
        leaf_pages: data pages.
        interior_pages: B-tree pages above the leaves (0 for heaps).
        rows: number of entries.
        used_bytes: bytes occupied inside leaf pages.
        extra_bytes: index-level overhead (global dictionary).
    """

    leaf_pages: int
    interior_pages: int
    rows: int
    used_bytes: int
    extra_bytes: int = 0

    @property
    def pages(self) -> int:
        return self.leaf_pages + self.interior_pages

    @property
    def total_bytes(self) -> int:
        return self.pages * PAGE_SIZE + self.extra_bytes


def stored_columns(
    serialized: SerializedTable,
    kind: IndexKind,
    key_columns: Sequence[str],
    included_columns: Sequence[str] = (),
) -> list[Column]:
    """The columns physically stored by a structure, in storage order.

    * HEAP / CLUSTERED: every table column (key first for clustered).
    * SECONDARY: key columns, then included columns, then the row locator.
    """
    table = serialized.table
    if kind in (IndexKind.HEAP, IndexKind.CLUSTERED):
        ordered = list(key_columns) + [
            c for c in table.column_names if c not in key_columns
        ]
        return [table.column(name) for name in ordered]
    cols = [table.column(name) for name in key_columns]
    cols += [
        table.column(name)
        for name in included_columns
        if name not in key_columns
    ]
    cols.append(RID_COLUMN)
    return cols


def measure_structure(
    serialized: SerializedTable,
    kind: IndexKind,
    key_columns: Sequence[str] = (),
    included_columns: Sequence[str] = (),
    method: CompressionMethod = CompressionMethod.NONE,
) -> IndexSize:
    """Build (size-wise) a heap/index over the cached table data.

    Args:
        serialized: the table's serialization cache.
        kind: heap, clustered, or secondary.
        key_columns: sort key (empty allowed only for heaps).
        included_columns: extra non-key columns (secondary only).
        method: compression package to apply.
    """
    table = serialized.table
    if kind is not IndexKind.HEAP and not key_columns:
        raise StorageError(f"{kind} requires key columns")
    columns = stored_columns(serialized, kind, key_columns, included_columns)

    row_width = sum(c.width for c in columns)
    if method is CompressionMethod.NONE:
        leaf = pack_fixed_width(table.num_rows, row_width)
    else:
        # Index-wide distinct counts: only the global-code codecs size
        # their pointers from them.
        distincts = {}
        if method in (CompressionMethod.GLOBAL_DICT,
                      CompressionMethod.BITPACK):
            distincts = {
                col.name: (
                    table.num_rows
                    if col.name == RID_COLUMN.name
                    else serialized.n_distinct(col.name)
                )
                for col in columns
            }
        extra = 0
        if method is CompressionMethod.GLOBAL_DICT:
            extra = sum(
                serialized.distinct_bytes(col.name)
                for col in columns
                if col.name != RID_COLUMN.name
            )
        codecs = make_codecs(method, columns, distincts)
        # Per-column stripped bytes in storage order: row order for a
        # heap, key order for an index.
        order_key = () if kind is IndexKind.HEAP else key_columns
        stripped_cols = [
            serialized.ordered(col.name, order_key) for col in columns
        ]
        leaf = pack_columns(stripped_cols, codecs, extra_bytes=extra)

    interior = 0
    if kind is not IndexKind.HEAP:
        key_width = sum(table.column(c).width for c in key_columns) + 8
        interior = btree_overhead_pages(leaf.pages, key_width)
    return IndexSize(
        leaf_pages=leaf.pages,
        interior_pages=interior,
        rows=leaf.rows,
        used_bytes=leaf.used_bytes,
        extra_bytes=leaf.extra_bytes,
    )


def uncompressed_size(
    serialized: SerializedTable,
    kind: IndexKind,
    key_columns: Sequence[str] = (),
    included_columns: Sequence[str] = (),
) -> IndexSize:
    """Shortcut: size of the structure without compression."""
    return measure_structure(
        serialized, kind, key_columns, included_columns,
        CompressionMethod.NONE,
    )


def compression_fraction(
    serialized: SerializedTable,
    kind: IndexKind,
    key_columns: Sequence[str],
    included_columns: Sequence[str],
    method: CompressionMethod,
) -> float:
    """Measured CF = compressed bytes / uncompressed bytes (Section 2.2)."""
    compressed = measure_structure(
        serialized, kind, key_columns, included_columns, method
    )
    plain = measure_structure(
        serialized, kind, key_columns, included_columns,
        CompressionMethod.NONE,
    )
    if plain.total_bytes == 0:
        return 1.0
    return compressed.total_bytes / plain.total_bytes
