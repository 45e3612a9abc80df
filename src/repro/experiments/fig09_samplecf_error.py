"""Figure 9 — Error bias and variance of SampleCF vs sampling fraction.

Plots (as table rows) LD-Bias, NS-Stddev and LD-Stddev against the
sampling ratio f over the TPC-H index population.  Expected shape: all
three decrease as f grows; NS bias stays near zero.
"""

from __future__ import annotations

from repro.experiments.common import (
    EXPERIMENT_SCALE,
    ExperimentResult,
    TPCH_ERROR_KEYSETS,
    error_stats,
    get_tpch,
)
from repro.experiments.table2_error_fit import FRACTIONS, measure


def run(scale: float = EXPERIMENT_SCALE) -> ExperimentResult:
    result = ExperimentResult(
        name="Figure 9: Error Bias and Variance of SampleCF",
        headers=("f", "LD-Bias%", "NS-Stddev%", "LD-Stddev%", "NS-Bias%"),
    )
    errors = measure(get_tpch(scale), TPCH_ERROR_KEYSETS)
    for f in FRACTIONS:
        ns_bias, ns_std = error_stats(errors.get(("NS", f), []))
        ld_bias, ld_std = error_stats(errors.get(("LD", f), []))
        result.rows.append(
            (f, 100 * ld_bias, 100 * ns_std, 100 * ld_std, 100 * ns_bias)
        )
    result.notes.append(
        "paper shape: errors shrink quickly as f grows; NS-Bias ~ 0"
    )
    return result
