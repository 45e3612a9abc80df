"""Figure 10 — Error bias and variance of deduction vs ``a``.

Shows ColExt bias/stddev for NS (ROW) and LD (PAGE) as a function of the
number of indexes extrapolated from.  Paper shape: both grow roughly
linearly with a; LD bias is negative (fragmentation over-penalized), NS
bias slightly positive.
"""

from __future__ import annotations

from repro.experiments.common import (
    EXPERIMENT_SCALE,
    ExperimentResult,
    TPCH_ERROR_KEYSETS,
    error_stats,
    get_tpch,
)
from repro.experiments.table3_deduction_fit import composite_errors


def run(scale: float = EXPERIMENT_SCALE) -> ExperimentResult:
    colext, _colset = composite_errors(get_tpch(scale), TPCH_ERROR_KEYSETS)
    result = ExperimentResult(
        name="Figure 10: Error Bias and Variance of Deduction",
        headers=("a", "NS-Bias%", "NS-Stddev%", "LD-Bias%", "LD-Stddev%"),
    )
    for a in sorted({a for _cls, a in colext}):
        ns_bias, ns_std = error_stats(colext.get(("NS", a), []))
        ld_bias, ld_std = error_stats(colext.get(("LD", a), []))
        result.rows.append(
            (a, 100 * ns_bias, 100 * ns_std, 100 * ld_bias, 100 * ld_std)
        )
    result.notes.append("paper shape: errors grow ~linearly with a")
    return result
