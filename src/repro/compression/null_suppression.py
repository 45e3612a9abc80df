"""NULL suppression codec (SQL Server ROW compression).

Each value is stored as a one-byte length header plus its padding-stripped
bytes.  Order independent: the page footprint is the sum of per-value
footprints regardless of tuple order.
"""

from __future__ import annotations

from repro.compression.base import ColumnCodec

#: Per-value header: length (and sign flag) byte.
VALUE_HEADER = 1


class NullSuppressionCodec(ColumnCodec):
    """Stores ``1 + len(stripped)`` bytes per value."""

    def __init__(self, column) -> None:
        super().__init__(column)
        self._bytes = 0

    def add(self, stripped: bytes) -> int:
        self.count += 1
        self._bytes += VALUE_HEADER + len(stripped)
        return self._bytes

    def extend(self, values) -> int:
        n = len(values)
        self.count += n
        self._bytes += n * VALUE_HEADER + sum(map(len, values))
        return self._bytes

    def size(self) -> int:
        return self._bytes

    def reset(self) -> None:
        super().reset()
        self._bytes = 0
