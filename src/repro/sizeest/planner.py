"""Sampling-fraction selection and plan execution (Section 5.2, last
paragraph): try several fractions, run the graph algorithm at each, and
keep the cheapest feasible plan; then execute the plan — SampleCF for
SAMPLED nodes, deduction for DEDUCED nodes — producing size estimates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import SizeEstimationError
from repro.physical.index_def import IndexDef
from repro.sampling.sample_manager import DEFAULT_FRACTIONS, SampleManager
from repro.sizeest.analytic import AnalyticSizer
from repro.sizeest.deduction import DeductionEngine
from repro.sizeest.error_model import ErrorModel, ErrorRV
from repro.sizeest.graph import EstimationGraph, NodeKey, NodeState, node_key
from repro.sizeest.greedy import plan_all_sampled, plan_greedy
from repro.sizeest.optimal import plan_optimal
from repro.sizeest.plan import EstimationPlan, PlanEvaluator
from repro.sizeest.samplecf import SampleCFRunner, SizeEstimate

ALGORITHMS: dict[str, Callable] = {
    "greedy": plan_greedy,
    "all": plan_all_sampled,
    "optimal": plan_optimal,
}


@dataclass(frozen=True)
class PlannerResult:
    """The chosen plan plus the per-fraction costs that were considered."""

    plan: EstimationPlan
    considered: dict[float, float]  # fraction -> cost (inf if infeasible)


def _build_graph(
    targets: Sequence[IndexDef],
    existing: Sequence[IndexDef],
) -> EstimationGraph:
    graph = EstimationGraph()
    for index in existing:
        graph.add_index(index, is_existing=True)
    for index in targets:
        graph.add_index(index, is_target=True)
    return graph


def choose_plan(
    targets: Sequence[IndexDef],
    existing: Sequence[IndexDef],
    error_model: ErrorModel,
    sizer: AnalyticSizer,
    manager: SampleManager,
    e: float,
    q: float,
    fractions: Iterable[float] = DEFAULT_FRACTIONS,
    algorithm: str = "greedy",
) -> PlannerResult:
    """Run the graph algorithm at each fraction; keep the cheapest
    feasible plan (or the least-infeasible one when none satisfies the
    constraint, mirroring the paper's observation that some (f, e, q)
    combinations are invalid)."""
    if algorithm not in ALGORITHMS:
        raise SizeEstimationError(f"unknown planning algorithm {algorithm!r}")
    planner = ALGORITHMS[algorithm]
    best: EstimationPlan | None = None
    fallback: EstimationPlan | None = None
    considered: dict[float, float] = {}
    for fraction in fractions:
        graph = _build_graph(targets, existing)
        evaluator = PlanEvaluator(graph, error_model, sizer, manager, fraction)
        plan = planner(evaluator, e, q)
        considered[fraction] = plan.total_cost if plan.feasible else float("inf")
        if plan.feasible:
            if best is None or plan.total_cost < best.total_cost:
                best = plan
        elif fallback is None or _infeasibility(plan) < _infeasibility(fallback):
            fallback = plan
    chosen = best if best is not None else fallback
    if chosen is None:
        raise SizeEstimationError("no sampling fraction produced a plan")
    return PlannerResult(plan=chosen, considered=considered)


def _infeasibility(plan: EstimationPlan) -> float:
    """How far a plan misses its probability targets (lower is better)."""
    return -sum(plan.target_probabilities.values())


def execute_plan(
    plan: EstimationPlan,
    runner: SampleCFRunner,
    deduction: DeductionEngine,
    error_model: ErrorModel,
    manager: SampleManager,
    exact_size_fn: Callable[[IndexDef], float] | None = None,
) -> dict[NodeKey, SizeEstimate]:
    """Run SampleCF / deductions per the plan, bottom-up.

    Returns estimates for every node remaining in the (pruned) graph;
    callers pick out their targets by :func:`node_key`.
    """
    graph = plan.graph
    estimates: dict[NodeKey, SizeEstimate] = {}

    def resolve(key: NodeKey) -> SizeEstimate:
        cached = estimates.get(key)
        if cached is not None:
            return cached
        node = graph.nodes[key]
        if node.is_existing:
            # Catalog knows an existing index's size exactly (zero
            # estimation cost, zero error).
            if exact_size_fn is not None:
                truth = exact_size_fn(node.index)
            else:
                truth = runner.sizer.uncompressed_bytes(node.index)
            est = SizeEstimate(
                index=node.index,
                est_bytes=truth,
                compression_fraction=1.0,
                source="exact",
                error=ErrorRV.exact(),
                cost=0.0,
            )
        elif node.state is NodeState.SAMPLED:
            est = runner.run(node.index, plan.fraction)
        elif node.state is NodeState.DEDUCED:
            ded = node.chosen_deduction
            children = [resolve(c) for c in ded.children]
            if ded.kind == "colset":
                est_bytes = deduction.colset(node.index, children[0])
                rv_own = error_model.colset_rv(node.index.method)
            else:
                est_bytes = deduction.colext(node.index, children)
                rv_own = error_model.colext_rv(node.index.method, ded.arity)
            rv = ErrorRV.product([c.error for c in children] + [rv_own])
            u = runner.sizer.uncompressed_bytes(node.index)
            est = SizeEstimate(
                index=node.index,
                est_bytes=est_bytes,
                compression_fraction=est_bytes / u if u else 1.0,
                source=ded.kind,
                error=rv,
                cost=0.0,
            )
        else:
            raise SizeEstimationError(f"undecided node {key} in plan")
        estimates[key] = est
        return est

    for key in list(graph.nodes):
        resolve(key)
    return estimates
