"""Ground-truth validation of advisor recommendations.

The advisor optimizes *estimated* workload cost over *estimated*
compressed sizes — the paper's metric.  This module closes the loop the
way a DBA would after deploying a recommendation: rebuild every
recommended structure on the full data (measured pages, no estimates),
re-cost the workload with those true sizes, and check that

* the recommendation still beats the base configuration,
* the configuration still fits the storage budget, and
* the per-index size estimates were within the advisor's error budget.

It also validates the optimizer's cardinality model against the real
executor (true qualifying-row counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.advisor.advisor import AdvisorResult
from repro.catalog.schema import Database
from repro.engine.executor import Executor
from repro.errors import ExecutionError
from repro.optimizer.constants import DEFAULT_COST_CONSTANTS, CostConstants
from repro.optimizer.whatif import WhatIfOptimizer
from repro.physical.index_def import IndexDef
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.stats.selectivity import conjunction_selectivity
from repro.storage.index_build import IndexKind
from repro.workload.query import SelectQuery, Workload


@dataclass
class SizeCheck:
    """Estimated vs measured bytes of one recommended structure."""

    index: IndexDef
    estimated: float
    measured: float

    @property
    def ratio_error(self) -> float:
        """est/true - 1 (0 = perfect)."""
        if self.measured <= 0:
            return 0.0
        return self.estimated / self.measured - 1.0


@dataclass
class ValidationReport:
    """Outcome of validating one advisor recommendation."""

    estimated_improvement: float
    true_size_improvement: float
    consumed_true_bytes: float
    budget_bytes: float
    size_checks: list[SizeCheck] = field(default_factory=list)

    @property
    def recommendation_holds(self) -> bool:
        """The deployed configuration still beats the base."""
        return self.true_size_improvement > 0.0

    @property
    def budget_holds(self) -> bool:
        return self.consumed_true_bytes <= self.budget_bytes * 1.05 + 8192

    @property
    def max_abs_size_error(self) -> float:
        if not self.size_checks:
            return 0.0
        return max(abs(c.ratio_error) for c in self.size_checks)


def validate_recommendation(
    result: AdvisorResult,
    database: Database,
    workload: Workload,
    stats: DatabaseStats | None = None,
    estimator: SizeEstimator | None = None,
    constants: CostConstants = DEFAULT_COST_CONSTANTS,
) -> ValidationReport:
    """Re-cost an advisor result with fully measured structure sizes."""
    stats = stats or DatabaseStats(database)
    estimator = estimator or SizeEstimator(database, stats=stats)

    def true_lookup(index: IndexDef) -> tuple[float, float]:
        return (estimator.true_size(index),
                estimator.sizer.estimated_rows(index))

    whatif = WhatIfOptimizer(
        database, stats, sizes=true_lookup, constants=constants
    )
    base_cost = whatif.workload_cost(workload, result.base_configuration)
    final_cost = whatif.workload_cost(workload, result.configuration)

    checks = [
        SizeCheck(
            index=ix,
            estimated=float(result.sizes.get(ix, 0.0)),
            measured=true_lookup(ix)[0],
        )
        for ix in result.configuration
    ]

    base_true = {
        ix.table: true_lookup(ix)[0] for ix in result.base_configuration
    }
    consumed = 0.0
    for ix in result.configuration:
        if ix.kind is IndexKind.SECONDARY or ix.is_mv_index:
            consumed += true_lookup(ix)[0]
        else:
            consumed += true_lookup(ix)[0] - base_true.get(ix.table, 0.0)

    return ValidationReport(
        estimated_improvement=result.improvement,
        true_size_improvement=(
            1.0 - final_cost / base_cost if base_cost > 0 else 0.0
        ),
        consumed_true_bytes=consumed,
        budget_bytes=result.budget_bytes,
        size_checks=checks,
    )


@dataclass
class SelectivityCheck:
    """Estimated vs true qualifying fraction for one query."""

    name: str
    estimated: float
    true: float

    @property
    def abs_error(self) -> float:
        return abs(self.estimated - self.true)


def validate_selectivities(
    database: Database,
    workload: Workload,
    stats: DatabaseStats | None = None,
) -> list[SelectivityCheck]:
    """Compare the optimizer's single-table selectivity estimates with
    true qualifying-row fractions from the executor."""
    stats = stats or DatabaseStats(database)
    executor = Executor(database)
    out: list[SelectivityCheck] = []
    for ws in workload.queries:
        query = ws.statement
        if not isinstance(query, SelectQuery) or len(query.tables) != 1:
            continue
        table = query.root_table
        predicates = query.predicates_of_table(database, table)
        if not predicates:
            continue
        est = conjunction_selectivity(stats.table(table), predicates)
        n_rows = database.table(table).num_rows
        if n_rows == 0:
            continue
        try:
            true_count = executor.count_matching(
                SelectQuery(tables=(table,), predicates=predicates)
            )
        except ExecutionError:
            continue
        out.append(
            SelectivityCheck(
                name=ws.name or str(query)[:40],
                estimated=est,
                true=true_count / n_rows,
            )
        )
    return out
