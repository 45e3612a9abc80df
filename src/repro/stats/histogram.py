"""Equi-depth histograms for selectivity estimation.

The what-if optimizer estimates predicate selectivities from these, the
same role single-column statistics play for SQL Server's cardinality
estimation (and for the "Optimizer" baseline of the paper's Table 1).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from repro.errors import StatisticsError


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket over a sorted value domain (lo <= v <= hi)."""

    lo: object
    hi: object
    count: int
    distinct: int


class EquiDepthHistogram:
    """Equi-depth histogram over one column's non-NULL values."""

    def __init__(self, buckets: Sequence[Bucket], total: int) -> None:
        self.buckets = list(buckets)
        self.total = total

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, values: Sequence, n_buckets: int = 32) -> "EquiDepthHistogram":
        """Build from raw values (NULLs excluded by the caller)."""
        counts = Counter(values)
        keys = sorted(counts)
        ends = list(accumulate(map(counts.__getitem__, keys)))
        return cls.from_ends(keys, ends, n_buckets)

    @classmethod
    def from_ends(
        cls, keys: Sequence, ends: Sequence[int], n_buckets: int = 32
    ) -> "EquiDepthHistogram":
        """Build from the sorted distinct values and their running counts.

        ``ends[i]`` is the number of rows sorting at or before
        ``keys[i]``, so the row at sorted position p holds
        ``keys[bisect_right(ends, p)]``.  Bucket boundaries are row
        positions in the (never materialized) sorted column, mapped back
        to their distinct values by that bisection, so the work is per
        distinct value and per bucket, not per row.
        """
        if n_buckets <= 0:
            raise StatisticsError("n_buckets must be positive")
        total = ends[-1] if ends else 0
        if total == 0:
            return cls([], 0)
        n_buckets = min(n_buckets, total)
        buckets: list[Bucket] = []
        per = total / n_buckets
        start = 0
        for b in range(n_buckets):
            end = total if b == n_buckets - 1 else int(round((b + 1) * per))
            end = max(end, start + 1)
            end = min(end, total)
            if start >= total:
                break
            first = bisect_right(ends, start)
            last = bisect_right(ends, end - 1, first)
            buckets.append(
                Bucket(
                    lo=keys[first],
                    hi=keys[last],
                    count=end - start,
                    distinct=last - first + 1,
                )
            )
            start = end
        return cls(buckets, total)

    # ------------------------------------------------------------------
    def selectivity_eq(self, value) -> float:
        """Fraction of rows equal to ``value``.

        A heavy hitter can span several equi-depth buckets, so the
        per-bucket shares are summed over every bucket whose range
        contains the value.
        """
        if self.total == 0:
            return 0.0
        rows = 0.0
        for bucket in self.buckets:
            if self._le(bucket.lo, value) and self._le(value, bucket.hi):
                rows += bucket.count / max(1, bucket.distinct)
        return min(1.0, rows / self.total)

    def selectivity_range(
        self,
        lo=None,
        hi=None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> float:
        """Fraction of rows in [lo, hi] (either bound may be None)."""
        if self.total == 0:
            return 0.0
        rows = 0.0
        for bucket in self.buckets:
            rows += bucket.count * self._bucket_overlap(
                bucket, lo, hi, lo_inclusive, hi_inclusive
            )
        return min(1.0, rows / self.total)

    # ------------------------------------------------------------------
    @staticmethod
    def _le(a, b) -> bool:
        try:
            return a <= b
        except TypeError:
            return str(a) <= str(b)

    @staticmethod
    def _interp(lo, hi, v) -> float:
        """Position of v within [lo, hi] in 0..1, numeric when possible."""
        if isinstance(lo, (int, float)) and isinstance(hi, (int, float)):
            if hi == lo:
                return 1.0
            return max(0.0, min(1.0, (v - lo) / (hi - lo)))
        # Strings: coarse interpolation on the first differing character.
        slo, shi, sv = str(lo), str(hi), str(v)
        if shi == slo:
            return 1.0
        width = max(len(slo), len(shi), len(sv))
        try:
            flo = _string_ordinal(slo, width)
            fhi = _string_ordinal(shi, width)
            fv = _string_ordinal(sv, width)
            if fhi == flo:
                return 1.0
            return max(0.0, min(1.0, (fv - flo) / (fhi - flo)))
        except Exception:  # pragma: no cover - defensive
            return 0.5

    def _bucket_overlap(self, bucket, lo, hi, lo_inc, hi_inc) -> float:
        """Fraction of a bucket's rows inside the range."""
        if lo is not None and self._lt(bucket.hi, lo):
            return 0.0
        if hi is not None and self._lt(hi, bucket.lo):
            return 0.0
        frac_lo = (
            0.0
            if lo is None or self._le(lo, bucket.lo)
            else self._interp(bucket.lo, bucket.hi, lo)
        )
        frac_hi = (
            1.0
            if hi is None or self._le(bucket.hi, hi)
            else self._interp(bucket.lo, bucket.hi, hi)
        )
        frac = frac_hi - frac_lo
        if frac <= 0.0:
            # Degenerate range touching the bucket: one value's share.
            frac = 1.0 / max(1, bucket.distinct)
        return min(1.0, frac)

    @staticmethod
    def _lt(a, b) -> bool:
        try:
            return a < b
        except TypeError:
            return str(a) < str(b)


def _string_ordinal(s: str, width: int) -> float:
    """Map a string to a float preserving lexicographic order (approx)."""
    value = 0.0
    scale = 1.0
    padded = s.ljust(width, "\x00")
    for ch in padded[:8]:
        scale /= 256.0
        value += min(255, ord(ch)) * scale
    return value
