"""Experiments reproducing every table and figure of the paper's
evaluation.

Figures 12-17 are the six rows of the budget-sweep table
(:data:`repro.experiments.budget_sweep.FIGURES`); every other
experiment is a module exposing ``run(scale=...) -> ExperimentResult``.
:func:`experiment` resolves a name in :data:`ALL_EXPERIMENTS` to its
``run``, and ``repro experiments [--only NAME] [--scale S]`` is the one
way to run them from the shell.
"""

import importlib
from typing import Callable

from repro.experiments.common import (
    EXPERIMENT_SCALE,
    ExperimentResult,
    clear_dataset_cache,
    get_sales,
    get_tpcds,
    get_tpch,
)

ALL_EXPERIMENTS = (
    "table1_mv_rowcount",
    "table2_error_fit",
    "table3_deduction_fit",
    "table4_graph_quality",
    "fig09_samplecf_error",
    "fig10_deduction_error",
    "fig11_runtime_breakdown",
    "fig12_tpch_select_ablation",
    "fig13_tpch_insert_ablation",
    "fig14_sales_select",
    "fig15_sales_insert",
    "fig16_tpch_select_full",
    "fig17_tpch_insert_full",
    "cs1_sort_order",
    "cs2_columnstore_advisor",
    "mg1_merging_ablation",
    "vl1_validation",
)


def experiment(name: str) -> Callable[..., ExperimentResult]:
    """The ``run(scale=...)`` of the experiment registered as ``name``,
    or :class:`LookupError` listing the registered names."""
    if name not in ALL_EXPERIMENTS:
        raise LookupError(
            f"unknown experiment {name!r}; registered: "
            f"{', '.join(ALL_EXPERIMENTS)}"
        )
    from repro.experiments.budget_sweep import FIGURES

    if name in FIGURES:
        return FIGURES[name].run
    return importlib.import_module(f"repro.experiments.{name}").run


__all__ = [
    "ExperimentResult",
    "EXPERIMENT_SCALE",
    "ALL_EXPERIMENTS",
    "experiment",
    "get_tpch",
    "get_sales",
    "get_tpcds",
    "clear_dataset_cache",
]
