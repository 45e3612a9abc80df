"""SizeEstimator: the public facade of the size-estimation framework.

The advisor hands it batches of candidate compressed indexes; it plans a
SampleCF/deduction strategy under an (e, q) accuracy constraint, executes
the plan, and caches the resulting :class:`SizeEstimate` objects.  Partial
and MV indexes are estimated by SampleCF on filtered/MV samples directly
(Appendix B); plain table indexes flow through the deduction graph.

``use_deduction=False`` reproduces the paper's "DTAc w/o deduction"
baseline from Figure 11 (every index pays a SampleCF run).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Iterable, Sequence

from repro.catalog.schema import Database
from repro.checks import check_budget, check_probability
from repro.parallel.cache import EstimationCache
from repro.parallel.signature import sample_fingerprint
from repro.physical.index_def import IndexDef
from repro.sampling.sample_manager import DEFAULT_FRACTIONS, SampleManager
from repro.sizeest.analytic import AnalyticSizer
from repro.sizeest.deduction import DeductionEngine, MultiColumnDistinct
from repro.sizeest.error_model import DEFAULT_ERROR_MODEL, ErrorModel, ErrorRV
from repro.sizeest.graph import node_key
from repro.sizeest.planner import choose_plan, execute_plan
from repro.sizeest.samplecf import SampleCFRunner, SizeEstimate, index_category
from repro.stats.column_stats import DatabaseStats
from repro.storage.index_build import measure_structure
from repro.storage.page import quantize_bytes
from repro.storage.rowcache import SerializedTable

#: fault-injection hook (see :mod:`repro.service.faults`): rebound to
#: that module's ``fire`` when a plan is installed, None otherwise —
#: declared here so the estimator never imports the service package.
FAULT_HOOK = None


class SizeEstimator:
    """Estimates (compressed) index sizes with tunable accuracy.

    Args:
        database: the database the indexes live on.
        stats: per-table statistics (built lazily when omitted).
        manager: the shared sample manager.
        error_model: fitted error coefficients.
        e, q: default accuracy constraint for batch planning, checked
            by the rules :data:`~repro.advisor.advisor.OPTION_RULES`
            applies to the options of the same names (an
            :class:`~repro.errors.AdvisorError` naming the field,
            before any sample is drawn).
        default_fraction: sampling fraction for one-off estimates.
        use_deduction: disable to force SampleCF on everything.
        cache: persistent estimate cache shared across runs (optional).
    """

    def __init__(
        self,
        database: Database,
        stats: DatabaseStats | None = None,
        manager: SampleManager | None = None,
        error_model: ErrorModel = DEFAULT_ERROR_MODEL,
        e: float = 0.5,
        q: float = 0.9,
        default_fraction: float = 0.05,
        fractions: Sequence[float] = DEFAULT_FRACTIONS,
        use_deduction: bool = True,
        cache: EstimationCache | None = None,
    ) -> None:
        self.e = check_budget("e", e)
        self.q = check_probability("q", q)
        self.database = database
        self.stats = stats or DatabaseStats(database)
        self.manager = manager or SampleManager(database)
        self.error_model = error_model
        self.default_fraction = default_fraction
        self.fractions = tuple(fractions)
        self.use_deduction = use_deduction
        self.cache = cache
        self._fingerprint: str | None = None

        self.sizer = AnalyticSizer(database, self.stats, self.manager)
        self.runner = SampleCFRunner(self.manager, self.sizer, error_model)
        self.distinct = MultiColumnDistinct(database, self.manager)
        self.deduction = DeductionEngine(database, self.sizer, self.distinct)

        self._cache: dict[IndexDef, SizeEstimate] = {}
        #: index -> its estimate in whole pages (:meth:`quantized_bytes`).
        self._quantized: dict[IndexDef, float] = {}
        self._existing: list[IndexDef] = []
        self._full_serialized: dict[str, SerializedTable] = {}
        self._truths: dict[IndexDef, float] = {}
        #: planning/estimation wall-clock per category (Fig 11)
        self.timings: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def register_existing(self, indexes: Iterable[IndexDef]) -> None:
        """Declare indexes that already exist (exact size, zero cost)."""
        for index in indexes:
            self._existing.append(index)
            self._quantized.pop(index, None)
            self._cache[index] = SizeEstimate(
                index=index,
                est_bytes=self.true_size(index),
                compression_fraction=1.0,
                source="exact",
                error=ErrorRV.exact(),
                cost=0.0,
            )

    # ------------------------------------------------------------------
    def uncompressed_bytes(self, index: IndexDef) -> float:
        """Analytic size of the uncompressed variant (always cheap)."""
        return self.sizer.uncompressed_bytes(index.uncompressed())

    def estimate(self, index: IndexDef) -> SizeEstimate:
        """Estimated size of one index (cached)."""
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        if not index.method.is_compressed:
            est = SizeEstimate(
                index=index,
                est_bytes=self.sizer.uncompressed_bytes(index),
                compression_fraction=1.0,
                source="exact",
                error=ErrorRV.exact(),
                cost=0.0,
            )
        else:
            self.estimate_many([index])
            return self._cache[index]
        self._cache[index] = est
        return est

    def quantized_bytes(self, index: IndexDef) -> float:
        """The estimate of ``index`` rounded up to whole pages, as the
        advisor budgets and costs it.  Asks :meth:`estimate` once per
        structure: an estimate is never replaced once made (but by
        :meth:`register_existing`, which drops the rounded one too).
        Bytes only — never the row count, which samples an MV."""
        size = self._quantized.get(index)
        if size is None:
            size = self._quantized[index] = quantize_bytes(
                self.estimate(index).est_bytes
            )
        return size

    def peek(self, index: IndexDef) -> SizeEstimate | None:
        """The estimate for ``index`` only if no new estimation *work*
        is needed: uncompressed indexes (pure analytic arithmetic, safe
        to compute at any time) and compressed indexes already in the
        in-memory cache.  Never consults the persistent cache and never
        plans a SampleCF batch, so calling it cannot change which
        estimates later batches compute or how deduction plans them.
        That is what its readers rely on: the advisor's
        ``_size_if_known``, which sizes the structures of the cost memo
        file's namespace, and the benchmark ledger's
        ``_count_new_compressed``."""
        if not index.method.is_compressed:
            return self.estimate(index)
        return self._cache.get(index)

    @property
    def sample_fingerprint(self) -> str:
        """Digest of the sampled data + sampling seed (computed once);
        persisted estimate keys embed it, so estimates can never be
        replayed against changed data."""
        if self._fingerprint is None:
            self._fingerprint = sample_fingerprint(self.manager)
        return self._fingerprint

    def estimate_many(
        self,
        indexes: Sequence[IndexDef],
        e: float | None = None,
        q: float | None = None,
    ) -> dict[IndexDef, SizeEstimate]:
        """Plan + execute size estimation for a batch of indexes.

        Consults the persistent :class:`EstimationCache` first (when
        wired) and stores fresh estimates back.
        """
        if FAULT_HOOK is not None:
            FAULT_HOOK("estimator.estimate", indexes=len(indexes))
        e = self.e if e is None else e
        q = self.q if q is None else q
        pending = list(dict.fromkeys(
            ix for ix in indexes
            if ix not in self._cache and ix.method.is_compressed
        ))
        for ix in indexes:
            if ix not in self._cache and not ix.method.is_compressed:
                self.estimate(ix)

        if self.cache is not None and pending:
            fingerprint = self.sample_fingerprint
            still_pending = []
            for ix in pending:
                hit = self.cache.get(ix, fingerprint, e, q)
                if hit is not None:
                    self._cache[ix] = hit
                else:
                    still_pending.append(ix)
            pending = still_pending

        # Partial and MV indexes: direct SampleCF on their special samples.
        direct = [ix for ix in pending if ix.is_partial or ix.is_mv_index]
        for ix in direct:
            start = time.perf_counter()
            self._cache[ix] = self.runner.run(ix, self.default_fraction)
            self.timings[index_category(ix)] += time.perf_counter() - start

        plain = [ix for ix in pending if not (ix.is_partial or ix.is_mv_index)]
        if plain:
            start = time.perf_counter()
            if self.use_deduction:
                result = choose_plan(
                    plain, self._existing, self.error_model, self.sizer,
                    self.manager, e, q, self.fractions, algorithm="greedy",
                )
                plan = result.plan
            else:
                result = choose_plan(
                    plain, self._existing, self.error_model, self.sizer,
                    self.manager, e, q, (self.default_fraction,),
                    algorithm="all",
                )
                plan = result.plan
            estimates = execute_plan(
                plan, self.runner, self.deduction, self.error_model,
                self.manager, exact_size_fn=self.true_size,
            )
            for ix in plain:
                key = node_key(ix)
                if key in estimates:
                    self._cache[ix] = SizeEstimate(
                        index=ix,
                        est_bytes=estimates[key].est_bytes,
                        compression_fraction=estimates[key].compression_fraction,
                        source=estimates[key].source,
                        error=estimates[key].error,
                        cost=estimates[key].cost,
                        fraction=estimates[key].fraction,
                    )
            self.timings["table"] += time.perf_counter() - start

        if self.cache is not None and pending:
            fingerprint = self.sample_fingerprint
            for ix in pending:
                est = self._cache.get(ix)
                if est is not None:
                    self.cache.put(ix, fingerprint, e, q, est)
            self.cache.save()

        return {ix: self._cache[ix] for ix in indexes}

    # ------------------------------------------------------------------
    def true_size(self, index: IndexDef) -> float:
        """Ground truth: build the structure on the FULL data and measure
        (used by experiments to quantify estimation error, and for
        existing indexes whose size the catalog would know).  Built once
        per index."""
        truth = self._truths.get(index)
        if truth is not None:
            return truth
        if index.is_mv_index or index.is_partial:
            serialized = self._full_structure_data(index)
        else:
            serialized = self._full_serialized.get(index.table)
            if serialized is None:
                serialized = SerializedTable(self.database.table(index.table))
                self._full_serialized[index.table] = serialized
        size = measure_structure(
            serialized, index.kind, index.key_columns,
            index.included_columns, index.method,
        )
        truth = self._truths[index] = float(size.total_bytes)
        return truth

    def _full_structure_data(self, index: IndexDef) -> SerializedTable:
        """Materialize the full rows behind a partial index or MV."""
        from repro.sampling.mv_sample import build_mv_sample
        from repro.sampling.join_synopsis import build_join_synopsis

        if index.is_partial:
            table = self.database.table(index.table)
            out = table.empty_clone(f"{index.table}_full_filtered")
            names = table.column_names
            for raw in table.iter_rows():
                row = dict(zip(names, raw))
                if index.filter.evaluate(row):
                    out.append_row(raw)
            return SerializedTable(out)
        mv = index.mv
        fact = self.database.table(mv.fact_table)
        synopsis = build_join_synopsis(self.database, fact, mv.fact_table)
        sample = build_mv_sample(
            self.database, mv, synopsis, synopsis.num_rows, 1.0
        )
        return SerializedTable(sample.table)
