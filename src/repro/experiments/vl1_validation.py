"""VL1 — deploy-time validation of DTAc recommendations.

Not a paper table, but the experiment a skeptical reader runs first:
take the recommendation DTAc produced from *estimates*, physically build
every recommended structure on the full data, and re-evaluate.  The
paper's Section 7.1 claim that "most cases have less than 10% errors"
in size estimation is checked here as a by-product.  Every run goes
through one :class:`~repro.api.Session`, and each recommendation is
validated with the session's statistics and the estimator of the stage
that produced it.
"""

from __future__ import annotations

from repro.api import Session
from repro.datasets import tpch_workload
from repro.engine import validate_recommendation
from repro.experiments.common import (
    EXPERIMENT_SCALE,
    ExperimentResult,
    get_tpch,
)

BUDGET_FRACTIONS = (0.1, 0.3, 0.6)


def run(scale: float = EXPERIMENT_SCALE) -> ExperimentResult:
    database = get_tpch(scale)
    workload = tpch_workload(
        database, select_weight=5.0, insert_weight=1.0
    )
    session = Session(database, workload, variant="dtac-both")
    total = database.total_data_bytes()

    result = ExperimentResult(
        name="VL1: Recommendation validation under ground-truth sizes",
        headers=("Budget%", "est-impr%", "true-impr%", "max-size-err%",
                 "budget-ok"),
    )
    for fraction in BUDGET_FRACTIONS:
        rec = session.tune(total * fraction)
        report = validate_recommendation(
            rec, database, workload, stats=session.stats,
            estimator=session.stage.estimator,
        )
        result.rows.append((
            100.0 * fraction,
            100.0 * report.estimated_improvement,
            100.0 * report.true_size_improvement,
            100.0 * report.max_abs_size_error,
            str(report.budget_holds),
        ))
    result.notes.append(
        "paper shape (Section 7.1): size estimates mostly within 10%; "
        "recommendations must hold once structures are physically built"
    )
    return result
