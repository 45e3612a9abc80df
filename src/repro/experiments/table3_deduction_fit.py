"""Table 3 — Error formula for deduction.

Measures ColSet and ColExt deduction errors with perfectly accurate
inputs (children sizes set to measured truths) over composite TPC-H
indexes, then fits bias/stddev linearly in ``a`` (the number of indexes
extrapolated from).

Paper: ColSet(NS) bias 0 / stddev 0.0003; ColExt(NS) bias 0.01a / stddev
0.002a; ColExt(LD) bias -0.03a / stddev 0.01a.
"""

from __future__ import annotations

from repro.experiments.common import (
    EXPERIMENT_SCALE,
    ExperimentResult,
    TPCH_ERROR_KEYSETS,
    error_stats,
    get_tpch,
    index_population,
)
from repro.sizeest.calibration import ErrorLab, fit_errors


def composite_errors(database, keysets):
    """:meth:`~repro.sizeest.calibration.ErrorLab.deduction_errors` over
    ``keysets``' index population, fewest key columns first."""
    return ErrorLab(database).deduction_errors(sorted(
        index_population(database, keysets),
        key=lambda ix: len(ix.key_columns),
    ))


def run(scale: float = EXPERIMENT_SCALE) -> ExperimentResult:
    colext, colset_errors = composite_errors(
        get_tpch(scale), TPCH_ERROR_KEYSETS
    )

    result = ExperimentResult(
        name="Table 3: Error Formula for Deduction (fit: value = c * a)",
        headers=("Deduction", "Bias-c", "Stddev-c", "PaperBias", "PaperStd"),
    )
    cs_bias, cs_std = error_stats(colset_errors)
    result.rows.append(("ColSet(NS)", cs_bias, cs_std, 0.0, 0.0003))

    paper = {
        "NS": ("ColExt(NS)", 0.01, 0.002),
        "LD": ("ColExt(LD)", -0.03, 0.01),
    }
    for cls, (label, p_bias, p_std) in paper.items():
        bias_c, std_c = fit_errors(
            (float(a), errors)
            for (c, a), errors in sorted(colext.items()) if c == cls
        )
        result.rows.append((label, bias_c, std_c, p_bias, p_std))
    result.notes.append(
        "children sizes are measured truths (isolates the deduction's own "
        "error, as in the paper's X_ColExt)"
    )
    return result
