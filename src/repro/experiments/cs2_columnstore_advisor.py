"""CS2 — compression-aware vs compression-blind projection design.

The column-store answer to the paper's central claim: a projection
advisor that integrates encoding effects into candidate selection beats
one that sizes and costs candidates as fixed-width columns and only
encodes the final recommendation (the decoupled strawman of Example 1,
transplanted to sort orders).
"""

from __future__ import annotations

from repro.columnstore.advisor import tune_columnstore
from repro.datasets import tpch_workload
from repro.experiments.common import (
    EXPERIMENT_SCALE,
    ExperimentResult,
    get_tpch,
)

BUDGET_FRACTIONS = (0.05, 0.15, 0.3, 0.6)


def run(scale: float = EXPERIMENT_SCALE) -> ExperimentResult:
    database = get_tpch(scale)
    workload = tpch_workload(
        database, select_weight=1.0, insert_weight=1.0
    )
    total = database.total_data_bytes()
    result = ExperimentResult(
        name="CS2: Column-store projection advisor, compression aware "
             "vs blind (improvement %)",
        headers=("Budget%", "aware", "blind"),
    )
    for fraction in BUDGET_FRACTIONS:
        budget = total * fraction
        aware = tune_columnstore(
            database, workload, budget, compression_aware=True
        )
        blind = tune_columnstore(
            database, workload, budget, compression_aware=False
        )
        result.rows.append((
            100.0 * fraction,
            aware.improvement_pct,
            blind.improvement_pct,
        ))
    result.notes.append(
        "paper shape carried to Section 8: integrating compression into "
        "the design search wins, most at tight budgets"
    )
    return result
