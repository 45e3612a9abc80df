"""Bit-packing codec.

Packs each value into ``ceil(log2(n_distinct))`` bits given the
index-wide distinct count — the storage layout of a global dictionary
*after* the codes have been assigned, without charging for the dictionary
itself (appropriate for ordinal/code columns whose decode is a pure
arithmetic mapping).  The compressed size only depends on the row count
and the global distinct count, never on row order: bit packing is
order independent (ORD-IND), so the paper's ColSet and ColExt deductions
apply to it exactly as they do to NULL suppression.
"""

from __future__ import annotations

import math

from repro.compression.base import ColumnCodec
from repro.errors import CompressionError

#: Per-page metadata: bit width + value count.
PAGE_OVERHEAD = 4


def bits_for(n_distinct: int) -> int:
    """Bits per value needed to address ``n_distinct`` codes (min 1)."""
    if n_distinct < 1:
        raise CompressionError("bit packing needs n_distinct >= 1")
    return max(1, math.ceil(math.log2(n_distinct))) if n_distinct > 1 else 1


class BitPackCodec(ColumnCodec):
    """Fixed-width bit packing against a global code space."""

    def __init__(self, column, n_distinct: int) -> None:
        super().__init__(column)
        self.bits = bits_for(n_distinct)

    def add(self, stripped: bytes) -> int:
        self.count += 1
        return PAGE_OVERHEAD + -(-self.count * self.bits // 8)

    def extend(self, values) -> int:
        self.count += len(values)
        return self.size()

    def size(self) -> int:
        if self.count == 0:
            return 0
        return PAGE_OVERHEAD + -(-self.count * self.bits // 8)
