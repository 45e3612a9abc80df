"""Codec factories for the compression packages an index can use."""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from repro.catalog.column import Column
from repro.compression.base import (
    ColumnCodec,
    CompressionMethod,
    RawCodec,
)
from repro.compression.bitpack import BitPackCodec
from repro.compression.delta import DeltaCodec
from repro.compression.global_dictionary import GlobalDictionaryCodec
from repro.compression.local_dictionary import (
    DICT_OVERHEAD,
    _PTR1_LIMIT,
)
from repro.compression.null_suppression import NullSuppressionCodec
from repro.compression.prefix import (
    ANCHOR_OVERHEAD,
    common_prefix_len,
)
from repro.compression.rle import RunLengthCodec
from repro.errors import CompressionError

#: Shared per-value header byte (identical in the NS, prefix and local
#: dictionary accountings the PAGE package fuses).
_VALUE_HEADER = 1


class PageCodec(ColumnCodec):
    """SQL Server PAGE compression for one column, fused.

    Byte-identical to ``MinOfCodec([NullSuppressionCodec, PrefixCodec,
    LocalDictionaryCodec])`` — the same three accountings, the same
    per-page ``min`` — but maintained inline in a single ``add``.  The
    composite pays three dispatched sub-adds per value, and PAGE is the
    codec SampleCF runs most, so the fusion is visible in advisor wall
    time.  ``extend`` lands a whole chunk with built-ins: the common
    prefix of a set is that of its ``min`` and ``max``, and the
    dictionary totals move once per distinct value of the chunk.
    ``tests/test_compression_codecs.py`` pins the equivalence against
    the composite on randomized data.
    """

    def __init__(self, column) -> None:
        super().__init__(column)
        # NULL-suppression accounting.
        self._ns_bytes = 0
        # Prefix accounting.
        self._prefix: bytes | None = None
        self._sum_len = 0
        # Local-dictionary accounting.
        self._counts: dict[bytes, int] = {}
        self._ptr = 1
        self._totals = [0, 0]

    def add(self, stripped: bytes) -> int:
        self.count += 1
        count = self.count
        length = len(stripped)

        self._ns_bytes += _VALUE_HEADER + length
        ns = self._ns_bytes

        self._sum_len += length
        prefix = self._prefix
        if prefix is None:
            self._prefix = prefix = stripped
        elif prefix:
            keep = common_prefix_len(prefix, stripped)
            if keep < len(prefix):
                self._prefix = prefix = prefix[:keep]
        p = len(prefix)
        pre = (
            ANCHOR_OVERHEAD + p + count * _VALUE_HEADER
            + (self._sum_len - count * p)
        )

        counts = self._counts
        totals = self._totals
        # _contribution(length, c, ptr) = min(c * header, c * ptr +
        # header) with header = VALUE_HEADER + length, inlined (it runs
        # twice per add, four times on repeats — the hottest arithmetic
        # in SampleCF).
        header = _VALUE_HEADER + length
        old = counts.get(stripped, 0)
        new = old + 1
        counts[stripped] = new
        if old:
            plain = old * header
            enc = old + header
            totals[0] -= plain if plain < enc else enc
            enc = old + old + header
            totals[1] -= plain if plain < enc else enc
        plain = new * header
        enc = new + header
        totals[0] += plain if plain < enc else enc
        enc = new + new + header
        totals[1] += plain if plain < enc else enc
        if self._ptr == 1 and len(counts) > _PTR1_LIMIT:
            self._ptr = 2
        dic = DICT_OVERHEAD + totals[self._ptr - 1]

        if pre < ns:
            ns = pre
        if dic < ns:
            ns = dic
        return ns

    def extend(self, values: Sequence[bytes]) -> int:
        n = len(values)
        if n <= 1:
            # The packer's one-row probes at a page boundary.
            return self.add(values[0]) if n else self.size()
        self.count += n
        plain_bytes = n * _VALUE_HEADER + sum(map(len, values))
        self._ns_bytes += plain_bytes
        self._sum_len += plain_bytes - n * _VALUE_HEADER

        prefix = self._prefix
        if prefix is None or prefix:
            lo, hi = min(values), max(values)
            if prefix is None:
                prefix = lo
            keep = min(common_prefix_len(prefix, lo),
                       common_prefix_len(prefix, hi))
            self._prefix = prefix[:keep]

        # Dictionary totals: charge every value as if new to the page
        # and seen once (plain: header + length), then settle the
        # distinct values that is wrong for — already on the page, or
        # repeated within the chunk.
        counts = self._counts
        totals = self._totals
        tally = Counter(values)
        settle = counts.keys() & tally.keys()
        if len(tally) < n:
            settle.update([v for v, c in tally.items() if c > 1])
        total1 = total2 = plain_bytes
        for stripped in settle:
            # As in add(): a value seen c times costs min(c * header,
            # c * ptr + header).  Move it from its old count to its new
            # one and refund the provisional charge.
            header = _VALUE_HEADER + len(stripped)
            old = counts.get(stripped, 0)
            tally[stripped] = new = old + tally[stripped]
            refund = (new - old) * header
            plain = new * header
            enc = new + header
            total1 += (plain if plain < enc else enc) - refund
            enc += new
            total2 += (plain if plain < enc else enc) - refund
            if old:
                plain = old * header
                enc = old + header
                total1 -= plain if plain < enc else enc
                enc += old
                total2 -= plain if plain < enc else enc
        totals[0] += total1
        totals[1] += total2
        counts.update(tally)
        if self._ptr == 1 and len(counts) > _PTR1_LIMIT:
            self._ptr = 2
        return self.size()

    def size(self) -> int:
        if self.count == 0:
            return 0
        ns = self._ns_bytes
        p = len(self._prefix) if self._prefix else 0
        pre = (
            ANCHOR_OVERHEAD + p + self.count * _VALUE_HEADER
            + (self._sum_len - self.count * p)
        )
        dic = DICT_OVERHEAD + self._totals[self._ptr - 1]
        return min(ns, pre, dic)

    def reset(self) -> None:
        super().reset()
        self._ns_bytes = 0
        self._prefix = None
        self._sum_len = 0
        self._counts = {}
        self._ptr = 1
        self._totals = [0, 0]


def make_codec(
    method: CompressionMethod,
    column: Column,
    n_distinct: int | None = None,
) -> ColumnCodec:
    """Build the per-column codec for ``method``.

    Args:
        method: the compression package.
        column: the column to encode.
        n_distinct: index-wide distinct count, required by GLOBAL_DICT.
    """
    if method is CompressionMethod.NONE:
        return RawCodec(column)
    if method is CompressionMethod.ROW:
        return NullSuppressionCodec(column)
    if method is CompressionMethod.PAGE:
        # SQL Server page compression: ROW first, then prefix + dictionary.
        # Per column per page the engine keeps whichever is smallest; a
        # column never ends up larger than its ROW-compressed form.
        # PageCodec fuses the three accountings (byte-identical to the
        # MinOfCodec composite of NS + prefix + local dictionary).
        return PageCodec(column)
    if method is CompressionMethod.GLOBAL_DICT:
        if n_distinct is None:
            raise CompressionError("GLOBAL_DICT codec needs n_distinct")
        return GlobalDictionaryCodec(column, n_distinct)
    if method is CompressionMethod.RLE:
        return RunLengthCodec(column)
    if method is CompressionMethod.DELTA:
        return DeltaCodec(column)
    if method is CompressionMethod.BITPACK:
        if n_distinct is None:
            raise CompressionError("BITPACK codec needs n_distinct")
        return BitPackCodec(column, n_distinct)
    raise CompressionError(f"unknown compression method {method!r}")


def make_codecs(
    method: CompressionMethod,
    columns: Sequence[Column],
    n_distinct: Mapping[str, int] | None = None,
) -> list[ColumnCodec]:
    """Per-column codecs for an index storing ``columns``."""
    distincts = n_distinct or {}
    return [
        make_codec(method, col, distincts.get(col.name))
        for col in columns
    ]
