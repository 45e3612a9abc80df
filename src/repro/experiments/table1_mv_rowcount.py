"""Table 1 — Average errors of #tuples in aggregated MVs.

Compares three ways to estimate the number of groups an aggregated MV
will contain, from a 1% sample (Appendix B.3):

* Optimizer — single-column statistics + independence assumption,
* Multiply — scale the sampled group count by 1/f,
* AE — the Adaptive Estimator over the sample's COUNT column.

Paper's numbers: Optimizer 96%, Multiply 379%, AE 6%.  Expected shape:
AE << Optimizer << Multiply.

Drives the sampling and distinct-count components directly, on purpose:
the table compares estimators of one quantity, not advisor runs.
"""

from __future__ import annotations

from repro.advisor.candidates import mv_candidates
from repro.datasets import tpch_workload
from repro.experiments.common import EXPERIMENT_SCALE, ExperimentResult, get_tpch
from repro.physical.mv_def import MVDefinition
from repro.sampling.join_synopsis import build_join_synopsis
from repro.sampling.mv_sample import build_mv_sample
from repro.sampling.sample_manager import SampleManager
from repro.stats.column_stats import DatabaseStats
from repro.stats.distinct import independence_estimator, multiply_estimator
from repro.stats.selectivity import conjunction_selectivity


def tpch_mv_population(database) -> list[MVDefinition]:
    """All aggregated MV candidates proposed for the TPC-H queries."""
    workload = tpch_workload(database)
    out: list[MVDefinition] = []
    seen = set()
    for ws in workload.queries:
        for mv in mv_candidates(database, ws.statement):
            if mv.group_by and mv not in seen:
                seen.add(mv)
                out.append(mv)
    return out


def true_mv_rows(database, mv: MVDefinition) -> int:
    """Ground truth: group the full (synopsis of the) data."""
    fact = database.table(mv.fact_table)
    synopsis = build_join_synopsis(database, fact, mv.fact_table)
    sample = build_mv_sample(database, mv, synopsis, synopsis.num_rows, 1.0)
    return sample.table.num_rows


def optimizer_estimate(database, stats: DatabaseStats,
                       mv: MVDefinition) -> float:
    """Independence-assumption estimate from single-column statistics."""
    distincts = []
    for col in mv.group_by:
        for tname in mv.tables:
            table = database.table(tname)
            if table.has_column(col):
                distincts.append(stats.table(tname).column(col).n_distinct)
                break
    fact_stats = stats.table(mv.fact_table)
    sel = 1.0
    for p in mv.predicates:
        for tname in mv.tables:
            table = database.table(tname)
            if all(table.has_column(c) for c in p.columns()):
                sel *= conjunction_selectivity(stats.table(tname), (p,))
                break
    n_filtered = fact_stats.n_rows * sel
    return independence_estimator(distincts, n_filtered)


def run(scale: float = EXPERIMENT_SCALE, fraction: float = 0.05) -> ExperimentResult:
    """The default fraction is 5% (not the paper's 1%) because our scaled
    tables are ~1/500 of TPC-H SF1: this keeps the *absolute* sample row
    counts in a regime where frequency statistics exist at all.  MVs whose
    sample contains no qualifying row are skipped (no estimator has any
    input there; at SF1 they don't occur)."""
    database = get_tpch(scale)
    stats = DatabaseStats(database)
    manager = SampleManager(database, min_sample_rows=500)
    mvs = tpch_mv_population(database)

    errors = {"Optimizer": [], "Multiply": [], "AE": []}
    skipped = 0
    for mv in mvs:
        truth = true_mv_rows(database, mv)
        if truth == 0:
            continue
        sample = manager.mv_sample(mv, fraction)
        if sample.sample_groups == 0:
            skipped += 1
            continue
        eff = sample.fraction
        est_opt = optimizer_estimate(database, stats, mv)
        est_mul = multiply_estimator(sample.sample_groups, eff)
        est_ae = sample.est_rows
        errors["Optimizer"].append(abs(est_opt / truth - 1.0))
        errors["Multiply"].append(abs(est_mul / truth - 1.0))
        errors["AE"].append(abs(est_ae / truth - 1.0))

    result = ExperimentResult(
        name="Table 1: Average Errors of #Tuples in Aggregated MVs",
        headers=("Estimator", "AvgError%", "Paper%"),
    )
    paper = {"Optimizer": 96.0, "Multiply": 379.0, "AE": 6.0}
    for method in ("Optimizer", "Multiply", "AE"):
        errs = errors[method]
        avg = 100.0 * sum(errs) / len(errs) if errs else 0.0
        result.rows.append((method, avg, paper[method]))
    result.notes.append(
        f"{len(errors['AE'])} aggregated MVs, f={fraction:.0%}, "
        f"{skipped} skipped (empty sample)"
    )
    return result
