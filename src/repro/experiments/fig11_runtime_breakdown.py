"""Figure 11 — Real runtime of index size estimation: DTAc with and
without deduction.

Runs the full DTAc (all features: partial + MV indexes) on TPC-H twice —
once forcing SampleCF on every index ("w/o deduction") and once with the
deduction framework — and breaks total wall-clock into the paper's
stacked categories: Other, {Table, Partial, MV} x {Sample, Estimate}.

Paper shape: deductions shrink Table-Estimate from the dominating share
to modest; sampling itself stays small because of the amortized sample
manager.

The one experiment that builds its own ``TuningAdvisor``: the "w/o
deduction" arm needs ``SizeEstimator(use_deduction=False)``, a switch
:class:`~repro.api.Session` does not have (adding it would be a new
option for one figure), and the breakdown reads that estimator's
timings directly.
"""

from __future__ import annotations

import time

from repro.advisor.advisor import AdvisorOptions, TuningAdvisor, get_variant
from repro.datasets import tpch_workload
from repro.experiments.common import EXPERIMENT_SCALE, ExperimentResult, get_tpch
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats

CATEGORIES = (
    "Other",
    "Table-Sample",
    "Table-Estimate",
    "Partial-Sample",
    "Partial-Estimate",
    "MV-Sample",
    "MV-Estimate",
)


def run_once(database, workload, use_deduction: bool,
             budget_fraction: float = 0.4) -> dict[str, float]:
    stats = DatabaseStats(database)
    estimator = SizeEstimator(
        database, stats=stats, use_deduction=use_deduction
    )
    options = AdvisorOptions(
        budget_bytes=database.total_data_bytes() * budget_fraction,
        enable_partial=True,
        enable_mv=True,
        **dict(get_variant("dtac-both").options),
    )
    advisor = TuningAdvisor(
        database, workload, options, estimator=estimator, stats=stats
    )
    start = time.perf_counter()
    advisor.run()
    total = time.perf_counter() - start

    samplecf_runs = estimator.runner.run_count
    manager = estimator.manager
    table_sample = manager.timings.get("table_sample", 0.0)
    partial_sample = manager.timings.get("filtered_sample", 0.0)
    mv_sample = (
        manager.timings.get("join_synopsis", 0.0)
        + manager.timings.get("mv_sample", 0.0)
    )
    # estimator.timings includes both planning and the index builds on
    # samples; the sample *construction* time above happens inside it,
    # so subtract to avoid double counting.
    table_est = max(0.0, estimator.timings.get("table", 0.0) - table_sample)
    partial_est = max(
        0.0, estimator.timings.get("partial", 0.0) - partial_sample
    )
    mv_est = max(0.0, estimator.timings.get("mv", 0.0) - mv_sample)
    accounted = (
        table_sample + partial_sample + mv_sample
        + table_est + partial_est + mv_est
    )
    return {
        "Other": max(0.0, total - accounted),
        "Table-Sample": table_sample,
        "Table-Estimate": table_est,
        "Partial-Sample": partial_sample,
        "Partial-Estimate": partial_est,
        "MV-Sample": mv_sample,
        "MV-Estimate": mv_est,
        "Total": total,
        "SampleCF-Runs": float(samplecf_runs),
    }


def run(scale: float = EXPERIMENT_SCALE) -> ExperimentResult:
    database = get_tpch(scale)
    workload = tpch_workload(database, select_weight=5.0, insert_weight=1.0)
    without = run_once(database, workload, use_deduction=False)
    with_ded = run_once(database, workload, use_deduction=True)

    result = ExperimentResult(
        name="Figure 11: Real Runtime of Index Size Estimation (seconds)",
        headers=("Component", "DTAc w/o Deduction", "DTAc"),
    )
    for cat in CATEGORIES:
        result.rows.append((cat, without[cat], with_ded[cat]))
    result.rows.append(("Total", without["Total"], with_ded["Total"]))
    result.rows.append(
        ("SampleCF-Runs", without["SampleCF-Runs"],
         with_ded["SampleCF-Runs"])
    )
    est_wo = sum(without[c] for c in CATEGORIES[1:])
    est_w = sum(with_ded[c] for c in CATEGORIES[1:])
    if est_w > 0:
        result.notes.append(
            f"size-estimation time {est_wo:.2f}s -> {est_w:.2f}s "
            f"({est_wo / est_w:.1f}x) with deductions"
        )
    result.notes.append(
        "paper shape: deduction removes most of Table-Estimate; "
        "samples are amortized so *-Sample stays small"
    )
    return result
