"""Shared budget-sweep runner behind Figures 12-17.

Runs a set of advisor variants over a grid of storage budgets (expressed
as fractions of the raw database size) and reports the paper's
improvement metric per (budget, variant).  Every run goes through one
:class:`~repro.api.Session`: variants are the outer loop, switched by
assigning ``session.variant`` (as a service context does per job), and
budgets the inner one.  A budget shapes nothing a run prepares, so the
session prepares once per variant and searches that stage at every
budget — and once for two adjacent variants that differ only in
``backtracking`` (``dtac-both``/``dtac-skyline``,
``dtac-backtrack``/``dtac-none``).
"""

from __future__ import annotations

from typing import Sequence

from repro.advisor.advisor import get_variant
from repro.api import Session
from repro.catalog.schema import Database
from repro.experiments.common import ExperimentResult
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
        variants: advisor variant names (see repro.advisor.variants()),
            every one checked before any run.
        enable_partial/enable_mv: the paper's "all features" switch.
    """
    for variant in variants:
        get_variant(variant)
    session = Session(database, workload, enable_partial=enable_partial,
                      enable_mv=enable_mv)
    total = database.total_data_bytes()
    columns = []
    for variant in variants:
        session.variant = variant
        columns.append([
            session.tune(total * fraction).improvement_pct
            for fraction in budget_fractions
        ])
    result = ExperimentResult(
        name=name,
        headers=("Budget%",) + tuple(variants),
        rows=[(100.0 * fraction, *cells)
              for fraction, cells in zip(budget_fractions, zip(*columns))],
    )
    result.notes.append(
        f"database raw size {total / 1024:.0f} KiB; improvement% = "
        "1 - cost(recommended)/cost(base), optimizer-estimated"
    )
    return result
