"""The what-if optimizer API (Section 3 / Figure 1).

Physical design tools ask "what would this query cost under that
hypothetical configuration?".  This facade answers from the
compression-aware cost model, caches per (statement, relevant-structures)
signature — a query's cost only depends on the structures of the tables
it touches — and totals weighted workload costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.catalog.schema import Database
from repro.parallel.cache import CostCache
from repro.parallel.signature import index_identity
from repro.optimizer.constants import DEFAULT_COST_CONSTANTS, CostConstants
from repro.optimizer.kernels import CostKernel
from repro.optimizer.statement_cost import (
    CostBreakdown,
    SizeLookup,
    StatementCoster,
)
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.stats.column_stats import DatabaseStats
from repro.workload.query import SelectQuery, Statement
from repro.workload.query import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle with delta
    from repro.optimizer.delta import DeltaWorkloadCoster, PlanTables


class WhatIfOptimizer:
    """Costs statements/workloads under hypothetical configurations.

    Args:
        database: catalog.
        stats: database statistics.
        sizes: callable ``IndexDef -> (est_bytes, est_rows)``; the advisor
            wires in its size-estimation framework here, which is exactly
            the paper's integration point between DTA and size estimation.
        constants: cost-model constants.
        cost_cache: persistent what-if cost cache shared across runs
            (optional).  Hits replay earlier breakdowns exactly; the key
            embeds each relevant structure's estimated size, so a replay
            is always consistent with the sizes this optimizer would
            feed the cost model.
        cost_context: run-level fingerprint for persistent cost keys
            (sampled data, accuracy constraint, cost constants); a
            string, or a zero-argument callable resolved lazily on the
            first persistent lookup.
    """

    def __init__(
        self,
        database: Database,
        stats: DatabaseStats | None = None,
        sizes: SizeLookup | None = None,
        constants: CostConstants = DEFAULT_COST_CONSTANTS,
        cost_cache: CostCache | None = None,
        cost_context: str | Callable[[], str] = "",
    ) -> None:
        self.database = database
        self.stats = stats or DatabaseStats(database)
        self._sizes = sizes or self._default_sizes
        #: the run's access-shape memo and lane evaluator, shared with
        #: the statement coster and the delta coster.
        self.kernel = CostKernel()
        self.coster = StatementCoster(
            database, self.stats, self._lookup_size, constants,
            self.kernel,
        )
        self._cache: dict[tuple, CostBreakdown] = {}
        #: plan costs recovered from persistent replays (fresh
        #: breakdowns carry their plans inline).
        self._plan_costs: dict[tuple, tuple[float, ...]] = {}
        self.cost_cache = cost_cache
        self._cost_context = cost_context
        self._resolved_context: str | None = None
        self._sized_signatures: dict[tuple, str] = {}
        self.optimizer_calls = 0

    # ------------------------------------------------------------------
    def _default_sizes(self, index: IndexDef) -> tuple[float, float]:
        """Fallback sizing when no estimator is wired in: uncompressed
        analytic size (compression fractions need the framework)."""
        from repro.sizeest.analytic import AnalyticSizer
        from repro.sampling.sample_manager import SampleManager

        if not hasattr(self, "_fallback_sizer"):
            self._fallback_sizer = AnalyticSizer(
                self.database, self.stats, SampleManager(self.database)
            )
        sizer = self._fallback_sizer
        return (
            sizer.uncompressed_bytes(index),
            sizer.estimated_rows(index),
        )

    def _lookup_size(self, index: IndexDef) -> tuple[float, float]:
        return self._sizes(index)

    # ------------------------------------------------------------------
    @staticmethod
    def _index_cache_key(index: IndexDef) -> tuple:
        """Explicit structure identity for cost-cache signatures.

        Delegates to the canonical :func:`index_identity`, which spells
        out every field the cost model can observe — notably the
        **compression method** — so hypothetical configurations that
        differ only in method can never alias to the same cached cost
        entry, regardless of how :class:`IndexDef` equality evolves.
        """
        return index_identity(index)

    def _relevant_structures(
        self, statement: Statement, config: Configuration
    ) -> list[IndexDef]:
        """The structures a statement's cost can depend on: those on the
        tables it touches (MV indexes count when their MV overlaps)."""
        if isinstance(statement, SelectQuery):
            tables = set(statement.tables)
        else:
            tables = {statement.table}
        relevant = []
        for index in config:
            if index.is_mv_index:
                if tables & set(index.mv.tables):
                    relevant.append(index)
            elif index.table in tables:
                relevant.append(index)
        return relevant

    def _signature_of(self, statement: Statement,
                      relevant: Sequence[IndexDef]) -> tuple:
        """In-memory cache key from an already-computed relevant set —
        the single key constructor behind both :meth:`_signature` (what
        the aliasing regression tests probe) and :meth:`cost`."""
        return (
            statement,
            frozenset(self._index_cache_key(ix) for ix in relevant),
        )

    def _signature(self, statement: Statement,
                   config: Configuration) -> tuple:
        """Cache key: the statement plus the structures on its tables."""
        return self._signature_of(
            statement, self._relevant_structures(statement, config)
        )

    def _context(self) -> str:
        if self._resolved_context is None:
            ctx = self._cost_context
            self._resolved_context = ctx() if callable(ctx) else ctx
        return self._resolved_context

    def _sized_signature(self, index: IndexDef) -> str:
        """Memoized sized-structure signature: sizes are fixed for the
        lifetime of this optimizer (the size lookup is deterministic per
        run — the persistent key's context fingerprint assumes exactly
        that), so the lookup + string build happen once per structure,
        not once per costing."""
        identity = self._index_cache_key(index)
        cached = self._sized_signatures.get(identity)
        if cached is None:
            from repro.parallel.signature import sized_index_signature

            cached = sized_index_signature(index, *self._sizes(index))
            self._sized_signatures[identity] = cached
        return cached

    def cost(self, statement: Statement,
             config: Configuration) -> CostBreakdown:
        """Optimizer-estimated cost of one statement."""
        return self.cost_with_plans(statement, config)[0]

    def cost_with_plans(
        self, statement: Statement, config: Configuration
    ) -> "tuple[CostBreakdown, tuple[float, ...] | None]":
        """One statement's cost plus its chosen per-table access-plan
        costs (aligned with ``statement.tables``), or None when plans
        are unknown — an update statement, an MV substitution, or an
        old-format persistent replay.  The delta coster checks its
        plan table's choice against these, so they survive persistent
        replays (the cost cache stores them alongside the totals)."""
        relevant = self._relevant_structures(statement, config)
        key = self._signature_of(statement, relevant)
        cached = self._cache.get(key)
        if cached is not None:
            return cached, self._plan_costs_of(key, cached)
        persistent_key = None
        if self.cost_cache is not None:
            persistent_key = CostCache.key_from_signatures(
                statement,
                [self._sized_signature(ix) for ix in relevant],
                self._context(),
            )
            replayed = self.cost_cache.get_with_plans(persistent_key)
            if replayed is not None:
                breakdown, plan_costs = replayed
                self._cache[key] = breakdown
                if plan_costs is not None:
                    self._plan_costs[key] = plan_costs
                return breakdown, plan_costs
        self.optimizer_calls += 1
        breakdown = self.coster.cost(statement, config)
        self._cache[key] = breakdown
        if persistent_key is not None:
            self.cost_cache.put(persistent_key, breakdown)
        return breakdown, self._plan_costs_of(key, breakdown)

    def _plan_costs_of(
        self, key: tuple, breakdown: CostBreakdown
    ) -> "tuple[float, ...] | None":
        if breakdown.plans:
            return tuple(plan.cost for plan in breakdown.plans)
        return self._plan_costs.get(key)

    def delta_coster(
        self, workload: Workload, tables: "PlanTables | None" = None,
    ) -> "DeltaWorkloadCoster":
        """A :class:`~repro.optimizer.delta.DeltaWorkloadCoster` bound
        to this optimizer and ``workload``.  Its weights, reference and
        counters are its own; its :class:`~repro.optimizer.delta.
        PlanTables` are fresh unless ``tables`` hands in those of an
        earlier coster over this optimizer and the same statements —
        they must never outlive this optimizer's size lookup."""
        from repro.optimizer.delta import DeltaWorkloadCoster

        return DeltaWorkloadCoster(self, workload, tables)

    def workload_cost(self, workload: Workload,
                      config: Configuration) -> float:
        """Weighted total workload cost (the advisor's objective)."""
        return sum(
            ws.weight * self.cost(ws.statement, config).total
            for ws in workload
        )

    @property
    def cache_entries(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()
        self._plan_costs.clear()
        self._sized_signatures.clear()
