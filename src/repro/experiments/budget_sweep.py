"""Shared budget-sweep runner behind Figures 12-17.

Runs a set of advisor variants over a grid of storage budgets (expressed
as fractions of the raw database size) and reports the paper's
improvement metric per (budget, variant).  One SizeEstimator is shared
across every run: estimated sizes do not depend on the advisor variant,
and sharing reproduces how DTA amortizes its sample infrastructure.
One prepared stage (pool, sizes, plan table) is held per distinct
:func:`~repro.advisor.advisor.stage_key` and searched at every budget:
variants that differ only in ``backtracking`` share one.  Budgets stay
the outer loop, so stages are prepared — and sizes estimated — in the
order a run-per-cell loop would.
"""

from __future__ import annotations

from typing import Sequence

from repro.advisor.advisor import (
    AdvisorOptions,
    PreparedStage,
    TuningAdvisor,
    get_variant,
    stage_key,
    variant_names,
)
from repro.catalog.schema import Database
from repro.errors import AdvisorError
from repro.experiments.common import ExperimentResult
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.workload.query import Workload


def sweep(
    name: str,
    database: Database,
    workload: Workload,
    budget_fractions: Sequence[float],
    variants: Sequence[str],
    enable_partial: bool = False,
    enable_mv: bool = False,
) -> ExperimentResult:
    """Improvement% per (budget, variant).

    Args:
        name: result title.
        database/workload: what to tune.
        budget_fractions: budgets as fractions of raw data bytes.
        variants: advisor variant names (see repro.advisor.variants()).
        enable_partial/enable_mv: the paper's "all features" switch.
    """
    unknown = [v for v in variants if v not in variant_names()]
    if unknown:
        raise AdvisorError(f"unknown advisor variants {unknown}")
    stats = DatabaseStats(database)
    estimator = SizeEstimator(database, stats=stats)
    total = database.total_data_bytes()

    result = ExperimentResult(
        name=name,
        headers=("Budget%",) + tuple(variants),
    )
    stages: dict[tuple, PreparedStage] = {}
    for fraction in budget_fractions:
        budget = total * fraction
        row: list = [100.0 * fraction]
        for variant in variants:
            options = AdvisorOptions(
                budget_bytes=budget,
                enable_partial=enable_partial,
                enable_mv=enable_mv,
                **dict(get_variant(variant).options),
            )
            key = stage_key(workload, options, estimator.manager.seed)
            advisor = TuningAdvisor(
                database, workload, options,
                estimator=estimator, stats=stats, stage=stages.get(key),
            )
            outcome = advisor.run()
            stages[key] = advisor.stage
            row.append(outcome.improvement_pct)
        result.rows.append(tuple(row))
    result.notes.append(
        f"database raw size {total / 1024:.0f} KiB; improvement% = "
        "1 - cost(recommended)/cost(base), optimizer-estimated"
    )
    return result
