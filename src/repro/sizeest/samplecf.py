"""SampleCF: sampling-based compressed-size estimation (Sections 2.2/4.1).

``SampleCF(I)`` builds index ``I`` on a (cached, amortized) sample, both
uncompressed and compressed, and returns the ratio as the compression
fraction.  The full compressed size estimate is then
``CF * analytic uncompressed size``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

from repro.compression.base import CompressionMethod
from repro.physical.index_def import IndexDef
from repro.sampling.sample_manager import SampleManager
from repro.sizeest.analytic import AnalyticSizer, avg_rid_stripped_len
from repro.sizeest.error_model import ErrorModel, ErrorRV
from repro.storage.index_build import IndexKind, measure_structure
from repro.storage.page import PAGE_CAPACITY, PAGE_SIZE, btree_overhead_pages
from repro.storage.rowcache import SerializedTable


def extrapolate_size(
    rows: float,
    bytes_per_row: float,
    key_width: int,
    is_heap: bool = False,
) -> float:
    """Full-index size from a measured per-row byte footprint.

    Packs ``rows`` rows of ``bytes_per_row`` bytes into pages the same way
    the storage layer would, then adds B-tree interior pages.
    """
    if rows <= 0:
        return 0.0
    rows_per_page = max(1.0, PAGE_CAPACITY // max(1.0, bytes_per_row))
    leaf_pages = max(1, -(-int(round(rows)) // int(rows_per_page)))
    interior = 0 if is_heap else btree_overhead_pages(leaf_pages, key_width)
    return float((leaf_pages + interior) * PAGE_SIZE)


@dataclass(frozen=True)
class SizeEstimate:
    """An estimated compressed-index size.

    Attributes:
        index: what was estimated.
        est_bytes: estimated full-size bytes.
        compression_fraction: estimated CF (compressed/uncompressed).
        source: 'exact' | 'samplecf' | 'colset' | 'colext'.
        error: the composed error RV of this estimate.
        cost: estimation cost charged (uncompressed sample pages indexed;
            0 for deductions and exact sizes).
        fraction: sampling fraction used (0 for deductions/exact).
    """

    index: IndexDef
    est_bytes: float
    compression_fraction: float
    source: str
    error: ErrorRV
    cost: float
    fraction: float = 0.0


def index_category(index: IndexDef) -> str:
    """Fig 11 category of an index: 'mv' / 'partial' / 'table'."""
    if index.is_mv_index:
        return "mv"
    if index.is_partial:
        return "partial"
    return "table"


class SampleCFRunner:
    """Executes SampleCF runs with timing instrumentation."""

    def __init__(
        self,
        manager: SampleManager,
        sizer: AnalyticSizer,
        error_model: ErrorModel,
    ) -> None:
        self.manager = manager
        self.sizer = sizer
        self.error_model = error_model
        #: seconds spent building indexes on samples, per category
        self.timings: dict[str, float] = defaultdict(float)
        self.run_count = 0

    def measure_bytes_per_row(
        self, index: IndexDef, sample: SerializedTable
    ) -> tuple[float, float]:
        """Build the compressed index on ``sample`` (the one
        :meth:`SampleManager.sample_for_index` routes it to).

        Returns ``(compressed bytes/row, index-level extra bytes)`` —
        per-row byte footprints transfer from sample to full data (page
        counts do not: a 1.5k-row sample quantizes to a handful of pages).
        """
        start = time.perf_counter()
        try:
            if sample.table.num_rows == 0:
                return float(self.sizer.row_width(index)), 0.0
            compressed = measure_structure(
                sample, index.kind, index.key_columns,
                index.included_columns, index.method,
            )
            if compressed.rows == 0:
                return float(self.sizer.row_width(index)), 0.0
            bytes_per_row = compressed.used_bytes / compressed.rows
            return bytes_per_row, float(compressed.extra_bytes)
        finally:
            self.timings[index_category(index)] += (
                time.perf_counter() - start
            )
            self.run_count += 1

    def _rid_correction(self, index: IndexDef, sample_rows: int,
                        full_rows: float) -> float:
        """Secondary-index row locators on a sample are drawn from a much
        smaller id domain than on the full table, so their suppressed
        width under-represents the real one; correct analytically."""
        if index.kind is not IndexKind.SECONDARY or not index.method.is_compressed:
            return 0.0
        if index.method is CompressionMethod.GLOBAL_DICT:
            return 0.0
        return avg_rid_stripped_len(int(full_rows)) - avg_rid_stripped_len(
            max(1, sample_rows)
        )

    def run(self, index: IndexDef, fraction: float) -> SizeEstimate:
        """Full SampleCF estimate of a compressed index's size."""
        sample = self.manager.sample_for_index(index, fraction)
        bytes_per_row, extra = self.measure_bytes_per_row(index, sample)
        rows = self.sizer.estimated_rows(index)
        bytes_per_row += self._rid_correction(
            index, sample.table.num_rows, rows
        )
        est_bytes = extrapolate_size(
            rows, bytes_per_row, self.sizer.key_width(index),
            is_heap=index.kind is IndexKind.HEAP,
        ) + extra
        uncompressed = self.sizer.uncompressed_bytes(index)
        cf = est_bytes / uncompressed if uncompressed else 1.0
        scope = index.mv.fact_table if index.is_mv_index else index.table
        effective = self.manager.effective_fraction(scope, fraction)
        return SizeEstimate(
            index=index,
            est_bytes=est_bytes,
            compression_fraction=cf,
            source="samplecf",
            error=self.error_model.samplecf_rv(index.method, effective),
            cost=self.sizer.samplecf_cost(index, fraction),
            fraction=effective,
        )

    def reset_timings(self) -> None:
        self.timings.clear()
        self.run_count = 0
