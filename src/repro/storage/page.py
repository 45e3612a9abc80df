"""Slotted-page layout constants and the exact page packer.

Pages are 8 KiB as in SQL Server.  The packer feeds values into the
per-column incremental codecs a chunk at a time and starts a new page
exactly when the next row no longer fits, so page counts (and hence
compression fractions) are measured, not approximated.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Sequence

from repro.compression.base import ColumnCodec
from repro.errors import StorageError

PAGE_SIZE = 8192
PAGE_HEADER = 96
#: Slot array entry + record header per row.
ROW_OVERHEAD = 4

#: Bytes on a page available for row data.
PAGE_CAPACITY = PAGE_SIZE - PAGE_HEADER

#: Rows in the first chunk tried on the first page (later pages start
#: from what the page before them held).
_FIRST_CHUNK = 128


@dataclass(frozen=True)
class PackResult:
    """Outcome of packing a row stream into pages.

    Attributes:
        pages: number of leaf data pages.
        used_bytes: bytes actually occupied (excluding page slack).
        rows: number of rows packed.
        extra_bytes: index-level overhead charged outside pages (e.g. a
            global dictionary), already included in ``total_bytes``.
    """

    pages: int
    used_bytes: int
    rows: int
    extra_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """Size as the storage layer accounts it: whole pages + extras."""
        return self.pages * PAGE_SIZE + self.extra_bytes


def quantize_bytes(size: float) -> float:
    """Round a byte estimate up to whole pages (minimum one page), as
    the storage layer accounts space.  Estimation internals work with
    fractional bytes; consumers comparing against physically built
    structures apply this at their boundary."""
    pages = math.ceil(size / PAGE_SIZE)
    return float(max(1, pages) * PAGE_SIZE)


def pack_fixed_width(rows: int, row_width: int) -> PackResult:
    """Fast path for uncompressed data: fixed rows-per-page arithmetic."""
    per_row = row_width + ROW_OVERHEAD
    if per_row > PAGE_CAPACITY:
        raise StorageError(f"row of {row_width} bytes exceeds page capacity")
    if rows == 0:
        return PackResult(pages=0, used_bytes=0, rows=0)
    rows_per_page = PAGE_CAPACITY // per_row
    pages = -(-rows // rows_per_page)  # ceil division
    return PackResult(pages=pages, used_bytes=rows * per_row, rows=rows)


def _short_of(estimate: int) -> int:
    """A chunk a sixteenth short of ``estimate`` rows (at least one row).

    Falling short costs a few one-row chunks at the page boundary;
    overshooting costs re-extending every row verified so far.
    """
    return max(1, estimate - (estimate >> 4))


def pack_columns(
    stripped_columns: Sequence[Sequence[bytes]],
    codecs: Sequence[ColumnCodec],
    extra_bytes: int = 0,
    row_overhead: int = ROW_OVERHEAD,
) -> PackResult:
    """Pack rows (given column-wise, already padding-stripped) into pages.

    Args:
        stripped_columns: one sequence of stripped byte strings per column,
            all of equal length, in the desired row order.
        codecs: one incremental codec per column (reset by this function).
        extra_bytes: index-level overhead to charge on top of pages.
        row_overhead: per-row slot/record-header bytes; the row-store
            default is :data:`ROW_OVERHEAD`, column-store segments store
            dense arrays and pass 0.

    Returns:
        The exact :class:`PackResult`.
    """
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

    pairs = list(zip(stripped_columns, codecs))
    pages = 0
    used = 0
    start = 0  # first row of the page being filled
    expect = _FIRST_CHUNK  # rows the page is expected to hold
    while True:
        # Invariant: the codecs hold exactly rows [start, start + rows),
        # which occupy ``size`` <= PAGE_CAPACITY bytes.
        rows = size = 0
        step = min(expect, n_rows - start)
        while step:
            lo = start + rows
            total = (rows + step) * row_overhead
            for col, codec in pairs:
                total += codec.extend(col[lo:lo + step])
            if total <= PAGE_CAPACITY:
                rows += step
                size = total
                # Next chunk: what the remaining capacity holds at this
                # page's bytes per row so far.
                step = min(
                    _short_of((PAGE_CAPACITY - size) * rows // max(1, size)),
                    n_rows - start - rows,
                )
                continue
            if step == 1:
                # The row after the verified prefix overflows: sizes
                # are non-decreasing in rows, so the prefix is the
                # largest that fits.
                if rows:
                    break
                if start == 0:
                    raise StorageError(
                        "a single compressed row exceeds page capacity"
                    )
                # A later row wider than a page sits alone on its page
                # (as the row-at-a-time packer left it).
                rows, size = 1, total
                break
            # Overshoot: rebuild the verified prefix and retry with the
            # chunk the overshoot's own bytes per row would have fit.
            for codec in codecs:
                codec.reset()
            if rows:
                for col, codec in pairs:
                    codec.extend(col[start:lo])
            step = min(
                _short_of((PAGE_CAPACITY - size) * step // (total - size)),
                step - 1,
            )
        pages += 1
        used += size
        start += rows
        if start == n_rows:
            return PackResult(pages=pages, used_bytes=used, rows=n_rows,
                              extra_bytes=extra_bytes)
        expect = _short_of(rows)
        for codec in codecs:
            codec.reset()


def btree_overhead_pages(leaf_pages: int, key_width: int) -> int:
    """Interior B-tree pages above ``leaf_pages`` leaves.

    Interior entries are uncompressed (key + child pointer), as in SQL
    Server where only leaf pages are page-compressed.
    """
    if leaf_pages <= 1:
        return 0
    fanout = max(2, PAGE_CAPACITY // (key_width + 8 + ROW_OVERHEAD))
    total = 0
    level = leaf_pages
    while level > 1:
        level = -(-level // fanout)
        total += level
    return total
