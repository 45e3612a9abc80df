"""Figures 12-17: one budget-sweep design, run six times.

Each figure runs a set of advisor variants over a grid of storage
budgets (expressed as fractions of the raw database size) and reports
the paper's improvement metric per (budget, variant).  The six figures
differ only in what :class:`Figure` holds — dataset, statement weights,
budget grid, variants, the all-features switch, title and note — so
they are the six rows of :data:`FIGURES`, each run by :func:`sweep`.

Every run goes through one :class:`~repro.api.Session`: variants are
the outer loop, switched by assigning ``session.variant`` (as a service
context does per job), and budgets the inner one.  A budget shapes
nothing a run prepares, so the session prepares once per variant and
searches that stage at every budget — and once for two adjacent
variants that differ only in ``backtracking`` (``dtac-both``/
``dtac-skyline``, ``dtac-backtrack``/``dtac-none``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.advisor.advisor import get_variant
from repro.api import Session
from repro.catalog.schema import Database
from repro.datasets import sales_workload, tpch_workload
from repro.experiments.common import (
    EXPERIMENT_SCALE,
    ExperimentResult,
    get_sales,
    get_tpch,
)
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


#: dataset name -> (database at a scale, workload builder).
_BUILDERS = {
    "tpch": (get_tpch, tpch_workload),
    "sales": (get_sales, sales_workload),
}

#: (select_weight, insert_weight) of the paper's two workload mixes.
_SELECT_INTENSIVE = (10.0, 1.0)
_INSERT_INTENSIVE = (1.0, 10.0)


@dataclass(frozen=True)
class Figure:
    """What one of Figures 12-17 sweeps, and how it is titled."""

    title: str
    dataset: str
    weights: tuple[float, float]
    budgets: tuple[float, ...]
    variants: tuple[str, ...]
    note: str
    all_features: bool = False

    def run(self, scale: float = EXPERIMENT_SCALE) -> ExperimentResult:
        get_database, build_workload = _BUILDERS[self.dataset]
        database = get_database(scale)
        select_weight, insert_weight = self.weights
        workload = build_workload(database, select_weight=select_weight,
                                  insert_weight=insert_weight)
        result = sweep(self.title, database, workload, self.budgets,
                       self.variants, enable_partial=self.all_features,
                       enable_mv=self.all_features)
        result.notes.append(f"paper shape: {self.note}")
        return result


#: The paper sweeps 50 MB..1500 MB on ~1 GB TPC-H SF1; on our substrate
#: compression frees a larger share of the (scaled) database, so the
#: regime where budgets actually bind — where the paper's techniques
#: differentiate — sits at smaller fractions.  The grid therefore
#: starts at 0%.
_ABLATION_BUDGETS = (0.0, 0.02, 0.05, 0.15, 0.40)
_ABLATION = ("dtac-both", "dtac-skyline", "dtac-backtrack", "dtac-none",
             "dta")
#: Includes a 0% budget: DTAc can still win by compressing base tables
#: and spending the freed bytes (Appendix D.2).
_SALES_BUDGETS = (0.0, 0.02, 0.05, 0.15, 0.30)
_FULL_BUDGETS = (0.0, 0.05, 0.20, 0.50)
_VERSUS_DTA = ("dtac-both", "dta")

#: Figures 12-17 by experiment name, in the paper's order.
FIGURES = {
    # Figure 12: turning the candidate-selection (Skyline) and
    # enumeration (Backtracking) techniques on and off.  Paper shape:
    # only DTAc(Both) achieves the best designs, with the gap largest at
    # tight budgets; plain DTA trails everything since it cannot
    # compress at all.
    "fig12_tpch_select_ablation": Figure(
        "Figure 12: TPC-H SELECT Intensive - Skyline/Backtracking "
        "ablation (improvement %)",
        "tpch", _SELECT_INTENSIVE, _ABLATION_BUDGETS, _ABLATION,
        "DTAc(Both) >= each single technique >= DTAc(None) >= DTA, gap "
        "largest at tight budgets",
    ),
    # Figure 13: the same ablation under a heavily weighted bulk-load
    # side.  Paper shape: improvements are smaller than Figure 12's
    # everywhere (index maintenance bounds what any tool can win), and
    # DTAc(Both) still leads at tight budgets.
    "fig13_tpch_insert_ablation": Figure(
        "Figure 13: TPC-H INSERT Intensive - Skyline/Backtracking "
        "ablation (improvement %)",
        "tpch", _INSERT_INTENSIVE, _ABLATION_BUDGETS, _ABLATION,
        "smaller improvements than Figure 12; compression used sparingly "
        "because of update CPU overheads",
    ),
    # Figure 14: DTAc vs DTA, simple indexes.  Paper shape: DTAc
    # dominates at every budget (factor ~1.5-2 at tight budgets) because
    # compression both speeds indexes up and lets more of them fit.
    "fig14_sales_select": Figure(
        "Figure 14: Sales SELECT Intensive, Simple Indexes (improvement %)",
        "sales", _SELECT_INTENSIVE, _SALES_BUDGETS, _VERSUS_DTA,
        "DTAc >= DTA at every budget",
    ),
    # Figure 15: DTAc vs DTA, simple indexes.  Paper shape: smaller
    # improvements than Figure 14; DTAc avoids compressing too many
    # indexes (update overheads), so its designs plateau as budgets grow
    # instead of degrading — unlike the decoupled strawman (exercised in
    # the ablation benchmarks).
    "fig15_sales_insert": Figure(
        "Figure 15: Sales INSERT Intensive, Simple Indexes (improvement %)",
        "sales", _INSERT_INTENSIVE, _SALES_BUDGETS, _VERSUS_DTA,
        "DTAc >= DTA; designs stabilize at larger budgets",
    ),
    # Figure 16: all features (partial indexes and MV indexes enabled).
    # Paper shape: DTAc roughly doubles DTA's improvement at tight
    # budgets (e.g. 70% vs 40%); the gap closes as budgets grow.
    "fig16_tpch_select_full": Figure(
        "Figure 16: TPC-H SELECT Intensive, All Features (improvement %)",
        "tpch", _SELECT_INTENSIVE, _FULL_BUDGETS, _VERSUS_DTA,
        "~2x gap at tight budgets, closing as budget grows",
        all_features=True,
    ),
    # Figure 17: all features.  Paper shape: DTAc still wins, but at
    # large budgets its designs converge toward DTA's because compressed
    # structures cost too much to maintain under heavy bulk loads.
    "fig17_tpch_insert_full": Figure(
        "Figure 17: TPC-H INSERT Intensive, All Features (improvement %)",
        "tpch", _INSERT_INTENSIVE, _FULL_BUDGETS, _VERSUS_DTA,
        "DTAc converges toward DTA at large budgets",
        all_features=True,
    ),
}
