"""Compression method taxonomy and the incremental codec interface.

The paper (Section 4.2) splits compression schemes into two groups:

* **ORD-IND** (order independent): the compressed size of an index does not
  depend on the order of tuples — NULL suppression and *global* dictionary
  encoding.
* **ORD-DEP** (order dependent): the size depends on the tuple order within
  each page — page-local dictionary encoding, prefix suppression, RLE.

SQL Server packages these as ROW (NULL suppression — ORD-IND) and PAGE
(NULL suppression + prefix + local dictionary — ORD-DEP); we mirror that
and additionally expose GLOBAL_DICT and RLE codecs.

Codecs are *incremental*: values are fed a value (``add``) or a chunk
(``extend``) at a time and the codec can report the exact number of bytes
the column would occupy on the current page at any moment.  The page
packer fills 8 KiB pages chunk-wise exact — it extends by a chunk sized
from the remaining capacity and backs off to single rows at the page
boundary — which is what makes measured compression fractions respond
to value distributions the way the paper requires.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from typing import Sequence

from repro.catalog.column import Column
from repro.errors import CompressionError


class CompressionMethod(enum.Enum):
    """Compression applied to an index (SQL Server style packages)."""

    NONE = "none"
    ROW = "row"            # NULL suppression
    PAGE = "page"          # NULL suppression + prefix + local dictionary
    GLOBAL_DICT = "gdict"  # per-index global dictionary
    RLE = "rle"            # run length encoding
    DELTA = "delta"        # delta-of-previous, zig-zag varint
    BITPACK = "bitpack"    # global fixed-bit-width packing

    @property
    def is_compressed(self) -> bool:
        return self is not CompressionMethod.NONE

    @property
    def is_order_dependent(self) -> bool:
        """ORD-DEP per Section 4.2 (size sensitive to tuple order)."""
        return self in (
            CompressionMethod.PAGE,
            CompressionMethod.RLE,
            CompressionMethod.DELTA,
        )

    @property
    def is_order_independent(self) -> bool:
        return self.is_compressed and not self.is_order_dependent

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Compression variants an advisor considers per candidate index (as in SQL
#: Server: uncompressed, ROW, PAGE).
ADVISOR_METHODS: tuple[CompressionMethod, ...] = (
    CompressionMethod.NONE,
    CompressionMethod.ROW,
    CompressionMethod.PAGE,
)


def strip_value(raw: bytes, column: Column) -> bytes:
    """NULL/padding suppression primitive.

    For integer-backed types this removes leading ``0x00`` (non-negative)
    or ``0xFF`` (negative) bytes; for character types it removes trailing
    ``0x00`` padding.  At least one byte is kept for non-empty semantics
    except fully-padded (NULL) values which strip to ``b""``.
    """
    if column.dtype.is_character:
        return raw.rstrip(b"\x00")
    lead = raw[0:1]
    if lead == b"\x00":
        stripped = raw.lstrip(b"\x00")
    elif lead == b"\xff":
        stripped = raw.lstrip(b"\xff")
        # Keep one sign byte so the value remains decodable.
        if not stripped or stripped[0] < 0x80:
            stripped = b"\xff" + stripped
    else:
        stripped = raw
    return stripped


def stripped_length_total(
    keys: Sequence, ends: Sequence[int], column: Column
) -> int:
    """Total :func:`strip_value` length over a column's non-NULL rows.

    ``keys`` are the column's sorted distinct non-NULL values and
    ``ends`` their running row counts (``ends[i]``: rows holding a value
    ``<= keys[i]``).  Character values are serialized and stripped once
    per distinct value.  An integer-backed value's stripped length
    depends only on its byte band — 0 bytes for 0, k bytes for
    ``2^(8k-8) <= v < 2^(8k)`` and for ``-2^(8k-1) <= v < -2^(8k-9)``
    (its minimal two's complement) — so those columns bisect ``keys``
    at the band edges and sum ``k`` times each band's row count, after
    encoding only the minimum and the maximum: if any value overflows
    the column's width, one of those two does, and ``encode`` raises.
    """
    encode = column.dtype.encode
    if column.dtype.is_character:
        total, prev = 0, 0
        for value, end in zip(keys, ends):
            total += (end - prev) * len(strip_value(encode(value), column))
            prev = end
        return total
    if not keys:
        return 0
    encode(keys[0])
    if len(keys) > 1:
        encode(keys[-1])

    def rows_before(i: int) -> int:
        return ends[i - 1] if i else 0

    # Edges are written for int(value) truncating toward zero, so a
    # non-integral number (1.5, -128.5) lands in the band of its int().
    total = 0
    lo = bisect_left(keys, 1)
    for k in range(1, column.dtype.width + 1):
        hi = bisect_left(keys, 1 << (8 * k), lo)
        total += k * (rows_before(hi) - rows_before(lo))
        lo = hi
    hi = bisect_right(keys, -1)
    for k in range(1, column.dtype.width + 1):
        lo = bisect_right(keys, -(1 << (8 * k - 1)) - 1, 0, hi)
        total += k * (rows_before(hi) - rows_before(lo))
        hi = lo
    return total


class ColumnCodec:
    """Incremental per-column, per-page codec.

    Subclasses implement :meth:`add` and :meth:`size`.  ``size`` must be the
    exact byte footprint of this column on the current page, including any
    per-page metadata the scheme needs (stored prefixes, dictionaries...).
    ``add`` returns that same footprint *after* the value lands, and
    ``extend`` the footprint after a whole chunk lands, so the page packer
    gets the running size from the call it already makes instead of a
    second ``size()`` pass.

    The on-page size must be **non-decreasing in rows**: a value never
    makes the page smaller.  The packer's exactness rests on it — "close
    the page at the first row that overflows" equals "keep the largest
    prefix that fits" only then — and every codec here has the property
    (a shrinking common prefix costs each earlier row at least what the
    anchor saves; a dictionary entry's footprint only grows with its
    count; ``min`` over non-decreasing parts is non-decreasing).
    """

    def __init__(self, column: Column) -> None:
        self.column = column
        self.count = 0

    def add(self, stripped: bytes) -> int:
        """Feed the next (already padding-stripped) value; returns the
        column's exact on-page size after the add (== :meth:`size`)."""
        raise NotImplementedError

    def extend(self, values: Sequence[bytes]) -> int:
        """Feed a run of values; returns what the last :meth:`add` of
        that run would have returned (== :meth:`size` afterwards).

        This default is that loop — correct for every codec, and what
        the order-sensitive ones (RLE, DELTA) use.  Codecs whose state
        is a function of the chunk as a whole override it with C-level
        built-ins.
        """
        size = self.size()
        for stripped in values:
            size = self.add(stripped)
        return size

    def size(self) -> int:
        """Exact bytes this column occupies on the current page."""
        raise NotImplementedError

    def reset(self) -> None:
        """Start a fresh page."""
        self.count = 0


class RawCodec(ColumnCodec):
    """No compression: fixed-width storage."""

    def add(self, stripped: bytes) -> int:
        self.count += 1
        return self.count * self.column.width

    def extend(self, values: Sequence[bytes]) -> int:
        self.count += len(values)
        return self.size()

    def size(self) -> int:
        return self.count * self.column.width


class MinOfCodec(ColumnCodec):
    """Composite codec: the engine stores whichever representation is
    smallest on this page (used by the PAGE package to pick prefix vs
    dictionary per column per page, as SQL Server's page compression
    effectively does)."""

    def __init__(self, column: Column, parts: Sequence[ColumnCodec]) -> None:
        super().__init__(column)
        if not parts:
            raise CompressionError("MinOfCodec needs at least one part")
        self.parts = list(parts)

    def add(self, stripped: bytes) -> int:
        self.count += 1
        best = None
        for part in self.parts:
            s = part.add(stripped)
            if best is None or s < best:
                best = s
        return best

    def size(self) -> int:
        return min(part.size() for part in self.parts)

    def reset(self) -> None:
        super().reset()
        for part in self.parts:
            part.reset()
