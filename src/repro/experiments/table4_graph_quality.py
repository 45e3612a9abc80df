"""Table 4 — Quality (sampling cost) of the graph algorithms.

Compares the total size-estimation cost (uncompressed sample pages that
must be indexed) of three strategies over LINEITEM's compressed-index
targets at e=0.5, q=0.9 for a grid of sampling fractions:

* All — SampleCF on every target,
* Greedy — the paper's Section 5.2 algorithm,
* Optimal — the exact exponential recursion of Appendix D.

Paper shape: Greedy needs 2-6x less cost than All and stays within ~30%
(8% average) of Optimal; Greedy runs in under a second where Optimal
explodes.

Drives the estimation-graph planners directly, on purpose: the table
compares three planners over one graph, not advisor runs.
"""

from __future__ import annotations

import time

from repro.compression.base import CompressionMethod
from repro.experiments.common import EXPERIMENT_SCALE, ExperimentResult, get_tpch
from repro.physical.index_def import IndexDef
from repro.sampling.sample_manager import SampleManager
from repro.sizeest.analytic import AnalyticSizer
from repro.sizeest.error_model import DEFAULT_ERROR_MODEL
from repro.sizeest.graph import EstimationGraph
from repro.sizeest.greedy import plan_all_sampled, plan_greedy
from repro.sizeest.optimal import plan_optimal
from repro.sizeest.plan import PlanEvaluator
from repro.stats.column_stats import DatabaseStats
from repro.storage.index_build import IndexKind

FRACTIONS = (0.01, 0.025, 0.05, 0.075, 0.10)

#: LINEITEM composite targets (<= 7 columns, as the paper restricted the
#: Optimal run): a mix of ROW and PAGE variants sharing column overlap so
#: deductions are actually available.
LINEITEM_TARGETS = [
    ("l_shipdate",),
    ("l_shipdate", "l_discount"),
    ("l_shipdate", "l_discount", "l_quantity"),
    ("l_shipmode", "l_shipdate"),
    ("l_shipmode", "l_shipdate", "l_quantity"),
    ("l_returnflag", "l_linestatus"),
    ("l_returnflag", "l_linestatus", "l_shipdate", "l_quantity"),
]


def make_targets(methods=(CompressionMethod.ROW, CompressionMethod.PAGE)):
    out = []
    for cols in LINEITEM_TARGETS:
        for method in methods:
            out.append(
                IndexDef("lineitem", cols, kind=IndexKind.SECONDARY,
                         method=method)
            )
    return out


def run(scale: float = EXPERIMENT_SCALE, e: float = 0.5,
        q: float = 0.9) -> ExperimentResult:
    database = get_tpch(scale)
    stats = DatabaseStats(database)
    manager = SampleManager(database, min_sample_rows=50)
    sizer = AnalyticSizer(database, stats, manager)
    targets = make_targets()

    result = ExperimentResult(
        name=f"Table 4: Quality (Cost) of Graph Algorithms. e={e}, q={q}",
        headers=("f", "All", "Greedy", "Optimal", "Greedy/Optimal"),
    )
    greedy_seconds = optimal_seconds = 0.0
    for fraction in FRACTIONS:
        costs = {}
        for name, algo in (
            ("All", plan_all_sampled),
            ("Greedy", plan_greedy),
            ("Optimal", plan_optimal),
        ):
            graph = EstimationGraph()
            for ix in targets:
                graph.add_index(ix, is_target=True)
            evaluator = PlanEvaluator(
                graph, DEFAULT_ERROR_MODEL, sizer, manager, fraction
            )
            start = time.perf_counter()
            plan = algo(evaluator, e, q)
            elapsed = time.perf_counter() - start
            if name == "Greedy":
                greedy_seconds += elapsed
            elif name == "Optimal":
                optimal_seconds += elapsed
            costs[name] = plan.total_cost if plan.feasible else float("inf")
        ratio = (
            costs["Greedy"] / costs["Optimal"]
            if costs["Optimal"] not in (0.0, float("inf"))
            else float("nan")
        )
        result.rows.append(
            (fraction, costs["All"], costs["Greedy"], costs["Optimal"], ratio)
        )
    result.notes.append(
        f"planning runtime: greedy {greedy_seconds:.2f}s, "
        f"optimal {optimal_seconds:.2f}s over {len(FRACTIONS)} fractions"
    )
    result.notes.append(
        "cost unit: uncompressed sample pages to index (Section 5.1)"
    )
    return result
