"""Compression-aware projection advisor: DTAc one storage model down.

The advisor answers the open problem of the paper's Section 8 with the
paper's own architecture: per-query candidate generation (which columns,
which sort order), skyline candidate selection over (size, cost), and a
seeded greedy enumeration under a storage budget.  The base
configuration is one super projection per table (every table must stay
scannable); additional projections consume budget.

The ``compression_aware`` flag is this tool's integration/decoupling
switch: when off, candidate projections are *sized and costed* as plain
fixed-width columns (the decoupled tool's view of the world) and only
the final recommendation is re-measured with encodings — reproducing the
paper's core observation, now for sort orders: a tool blind to RLE's
order sensitivity picks the wrong projections.

It is its own advisor loop, not a :class:`~repro.api.Session` run: its
structures are projections, not indexes, and it shares no candidate,
sizing or costing layer with the row-store advisor a session drives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.catalog.schema import Database
from repro.columnstore.cost import ProjectionCostModel
from repro.columnstore.encodings import COLUMN_ENCODINGS
from repro.columnstore.projection import (
    ProjectionDef,
    ProjectionSize,
    super_projection,
)
from repro.columnstore.sizing import ProjectionSizer
from repro.compression.base import CompressionMethod
from repro.errors import AdvisorError
from repro.optimizer.constants import DEFAULT_COST_CONSTANTS, CostConstants
from repro.stats.column_stats import DatabaseStats
from repro.workload.query import SelectQuery, Workload

#: Fixed-width-only "encoding" set used by the compression-blind variant.
UNCOMPRESSED_ONLY = (CompressionMethod.NONE,)


@dataclass(frozen=True)
class ColumnStoreOptions:
    """Projection-advisor knobs.

    Attributes:
        budget_bytes: budget for projections beyond the super projections.
        compression_aware: size/cost candidates with real encodings
            (True) or as fixed-width columns (False, the decoupled
            strawman).
        max_sort_candidates: sort orders proposed per query and table.
        seed_fanout: greedy multi-start width (as in the row advisor).
        sample_fraction: when set, size candidates from a row sample of
            this fraction instead of the full table (SampleCF mode).
        max_steps: greedy iteration cap.
    """

    budget_bytes: float
    compression_aware: bool = True
    max_sort_candidates: int = 3
    seed_fanout: int = 3
    sample_fraction: float | None = None
    max_steps: int = 40


@dataclass
class ColumnStoreResult:
    """Outcome of a projection-tuning run."""

    projections: list[ProjectionDef]
    sizes: dict[ProjectionDef, ProjectionSize]
    base_cost: float
    final_cost: float
    consumed_bytes: float
    budget_bytes: float
    elapsed_seconds: float
    candidate_count: int
    steps: list[str] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        if self.base_cost <= 0:
            return 0.0
        return 1.0 - self.final_cost / self.base_cost

    @property
    def improvement_pct(self) -> float:
        return 100.0 * self.improvement


class ColumnStoreAdvisor:
    """Recommends projections for a workload under a storage budget."""

    def __init__(
        self,
        database: Database,
        workload: Workload,
        options: ColumnStoreOptions,
        stats: DatabaseStats | None = None,
        constants: CostConstants = DEFAULT_COST_CONSTANTS,
    ) -> None:
        self.database = database
        self.workload = workload
        self.options = options
        self.stats = stats or DatabaseStats(database)
        self.cost_model = ProjectionCostModel(
            database, self.stats, constants
        )
        self._sizers = {
            t.name: ProjectionSizer(t) for t in database.tables
        }
        self._size_cache: dict[tuple[ProjectionDef, bool], ProjectionSize] = {}

    # ------------------------------------------------------------------
    def size_of(
        self, projection: ProjectionDef, aware: bool | None = None
    ) -> ProjectionSize:
        """(Cached) size of a projection, encoded or fixed width."""
        aware = self.options.compression_aware if aware is None else aware
        key = (projection, aware)
        cached = self._size_cache.get(key)
        if cached is not None:
            return cached
        sizer = self._sizers[projection.table]
        encodings = COLUMN_ENCODINGS if aware else UNCOMPRESSED_ONLY
        if self.options.sample_fraction is not None:
            size = sizer.estimate_from_sample(
                projection, self.options.sample_fraction,
                encodings=encodings,
            )
        else:
            size = sizer.measure(projection, encodings=encodings)
        self._size_cache[key] = size
        return size

    # ------------------------------------------------------------------
    def candidate_projections(self) -> list[ProjectionDef]:
        """Per-query candidates: the referenced columns of each table
        under a few sort orders (range/equality predicate columns and
        group-by columns lead; the paper's sort-order sensitivity makes
        these the interesting axes)."""
        out: list[ProjectionDef] = []
        seen: set[ProjectionDef] = set()
        for ws in self.workload.queries:
            query = ws.statement
            if not isinstance(query, SelectQuery):
                continue
            for table in query.tables:
                tbl = self.database.table(table)
                needed = query.columns_of_table(self.database, table)
                if not needed:
                    continue
                sort_leads: list[str] = []
                for p in query.predicates_of_table(self.database, table):
                    for c in p.columns():
                        if c not in sort_leads:
                            sort_leads.append(c)
                for c in query.group_by:
                    if tbl.has_column(c) and c not in sort_leads:
                        sort_leads.append(c)
                if not sort_leads:
                    sort_leads = [needed[0]]
                for lead in sort_leads[: self.options.max_sort_candidates]:
                    rest = [c for c in needed if c != lead]
                    projection = ProjectionDef(
                        table=table,
                        columns=(lead, *rest),
                        sort_columns=(lead,),
                    )
                    if projection not in seen:
                        seen.add(projection)
                        out.append(projection)
        return out

    # ------------------------------------------------------------------
    def _config_sizes(
        self, projections: frozenset[ProjectionDef], aware: bool
    ) -> dict[ProjectionDef, ProjectionSize]:
        return {p: self.size_of(p, aware) for p in projections}

    def _workload_cost(
        self, projections: frozenset[ProjectionDef], aware: bool
    ) -> float:
        return self.cost_model.workload_cost(
            self.workload, self._config_sizes(projections, aware)
        )

    def _consumed(
        self, projections: frozenset[ProjectionDef],
        base: frozenset[ProjectionDef], aware: bool
    ) -> float:
        return sum(
            self.size_of(p, aware).bytes
            for p in projections
            if p not in base
        )

    # ------------------------------------------------------------------
    def run(self) -> ColumnStoreResult:
        """Greedy (multi-start) projection selection under the budget."""
        start = time.perf_counter()
        options = self.options
        aware = options.compression_aware
        base = frozenset(
            super_projection(t) for t in self.database.tables
        )
        # The base is always measured compression-aware: it physically
        # exists; only *candidate reasoning* is blinded in the ablation.
        base_cost = self._workload_cost(base, True)
        candidates = self.candidate_projections()

        def search_cost(config: frozenset[ProjectionDef]) -> float:
            return self._workload_cost(config, aware)

        def fits(config: frozenset[ProjectionDef]) -> bool:
            return (
                self._consumed(config, base, aware)
                <= options.budget_bytes + 1e-6
            )

        # Seeded greedy, as in the row-store enumeration.
        first_moves: list[tuple[float, ProjectionDef]] = []
        blind_base_cost = search_cost(base)
        for p in candidates:
            config = base | {p}
            if not fits(config):
                continue
            cost = search_cost(config)
            if cost < blind_base_cost:
                first_moves.append((cost, p))
        first_moves.sort(key=lambda t: t[0])

        best_config = base
        best_cost = blind_base_cost
        steps: list[str] = []
        seeds = first_moves[: max(1, options.seed_fanout)] or []
        for seed_cost, seed in seeds or [(blind_base_cost, None)]:
            config = base if seed is None else base | {seed}
            cost = seed_cost
            local_steps = (
                [] if seed is None else [f"seed {seed.name}"]
            )
            for _step in range(options.max_steps):
                move = None
                for p in candidates:
                    if p in config:
                        continue
                    cand = config | {p}
                    if not fits(cand):
                        continue
                    cand_cost = search_cost(cand)
                    if cand_cost < cost - 1e-9 and (
                        move is None or cand_cost < move[0]
                    ):
                        move = (cand_cost, cand, p)
                if move is None:
                    break
                cost, config = move[0], move[1]
                local_steps.append(f"add {move[2].name}")
            if cost < best_cost:
                best_config, best_cost, steps = config, cost, local_steps

        # Final accounting is always compression aware: the storage
        # engine encodes whatever the tool chose (this is where the
        # blind variant discovers its recommendation's true size/cost —
        # and pays for any budget overrun by dropping projections).
        final = self._enforce_budget(best_config, base)
        sizes = self._config_sizes(final, True)
        final_cost = self.cost_model.workload_cost(self.workload, sizes)
        return ColumnStoreResult(
            projections=sorted(final, key=lambda p: p.name),
            sizes=sizes,
            base_cost=base_cost,
            final_cost=final_cost,
            consumed_bytes=self._consumed(final, base, True),
            budget_bytes=options.budget_bytes,
            elapsed_seconds=time.perf_counter() - start,
            candidate_count=len(candidates),
            steps=steps,
        )

    def _enforce_budget(
        self,
        config: frozenset[ProjectionDef],
        base: frozenset[ProjectionDef],
    ) -> frozenset[ProjectionDef]:
        """Drop the largest extra projections until the *true* encoded
        sizes fit (only the blind variant ever needs this)."""
        current = config
        for _ in range(len(config)):
            if (
                self._consumed(current, base, True)
                <= self.options.budget_bytes + 1e-6
            ):
                return current
            extras = [p for p in current if p not in base]
            if not extras:
                return current
            largest = max(
                extras, key=lambda p: self.size_of(p, True).bytes
            )
            current = frozenset(p for p in current if p != largest)
        return current


def tune_columnstore(
    database: Database,
    workload: Workload,
    budget_bytes: float,
    compression_aware: bool = True,
    **extra,
) -> ColumnStoreResult:
    """One-call projection tuning."""
    options = ColumnStoreOptions(
        budget_bytes=budget_bytes,
        compression_aware=compression_aware,
        **extra,
    )
    if budget_bytes < 0:
        raise AdvisorError("budget must be non-negative")
    return ColumnStoreAdvisor(database, workload, options).run()
