"""Estimation-plan representation and error/cost evaluation shared by the
greedy (Section 5.2) and optimal (Appendix D) graph algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SizeEstimationError
from repro.sampling.sample_manager import SampleManager
from repro.sizeest.analytic import AnalyticSizer
from repro.sizeest.error_model import ErrorModel, ErrorRV
from repro.sizeest.graph import (
    DeductionNode,
    EstimationGraph,
    NodeKey,
    NodeState,
)


class PlanEvaluator:
    """Computes composed error RVs and sampling costs over a graph whose
    node states / chosen deductions describe a (partial) plan."""

    def __init__(
        self,
        graph: EstimationGraph,
        error_model: ErrorModel,
        sizer: AnalyticSizer,
        manager: SampleManager,
        fraction: float,
    ) -> None:
        self.graph = graph
        self.error_model = error_model
        self.sizer = sizer
        self.manager = manager
        self.fraction = fraction
        # Both are functions of the node alone (its index, whether it
        # exists) once planning starts; the planners ask thousands of
        # times per pass.
        self._sampled_rvs: dict[NodeKey, ErrorRV] = {}
        self._sampling_costs: dict[NodeKey, float] = {}

    # ------------------------------------------------------------------
    def sampled_rv(self, key: NodeKey) -> ErrorRV:
        rv = self._sampled_rvs.get(key)
        if rv is None:
            table, _tag, _cols, method = key
            if self.graph.nodes[key].is_existing:
                rv = ErrorRV.exact()
            else:
                eff = self.manager.effective_fraction(table, self.fraction)
                rv = self.error_model.samplecf_rv(method, eff)
            self._sampled_rvs[key] = rv
        return rv

    def deduction_rv(self, deduction: DeductionNode) -> ErrorRV:
        _table, _tag, _cols, method = deduction.parent
        if deduction.kind == "colset":
            return self.error_model.colset_rv(method)
        return self.error_model.colext_rv(method, deduction.arity)

    def node_error(self, key: NodeKey,
                   _seen: frozenset = frozenset()) -> ErrorRV:
        """Composed error RV of a decided node."""
        if key in _seen:
            raise SizeEstimationError(f"deduction cycle at {key}")
        node = self.graph.nodes[key]
        if node.state is NodeState.SAMPLED:
            return self.sampled_rv(key)
        if node.state is NodeState.DEDUCED:
            ded = node.chosen_deduction
            if ded is None:
                raise SizeEstimationError(f"DEDUCED node {key} lacks a deduction")
            parts = [
                self.node_error(child, _seen | {key})
                for child in ded.children
            ]
            parts.append(self.deduction_rv(ded))
            return ErrorRV.product(parts)
        raise SizeEstimationError(f"node {key} is undecided")

    def deduced_error(self, deduction: DeductionNode) -> ErrorRV:
        """What the parent's error would be under ``deduction`` (children
        must be decided)."""
        parts = [self.node_error(c) for c in deduction.children]
        parts.append(self.deduction_rv(deduction))
        return ErrorRV.product(parts)

    # ------------------------------------------------------------------
    def sampling_cost(self, key: NodeKey) -> float:
        cost = self._sampling_costs.get(key)
        if cost is None:
            node = self.graph.nodes[key]
            cost = (
                0.0 if node.is_existing
                else self.sizer.samplecf_cost(node.index, self.fraction)
            )
            self._sampling_costs[key] = cost
        return cost

    def total_cost(self) -> float:
        return sum(
            self.sampling_cost(key)
            for key, node in self.graph.nodes.items()
            if node.state is NodeState.SAMPLED and not node.is_existing
        )


@dataclass
class EstimationPlan:
    """Outcome of planning: states/deductions live in ``graph``.

    Attributes:
        graph: the (pruned) graph holding per-node decisions.
        fraction: sampling fraction the plan assumes.
        total_cost: sum of SampleCF costs of all sampled nodes.
        feasible: every target satisfies the (e, q) constraint.
        target_probabilities: per-target P(error <= e).
    """

    graph: EstimationGraph
    fraction: float
    total_cost: float
    feasible: bool
    target_probabilities: dict[NodeKey, float] = field(default_factory=dict)


def finalize_plan(
    evaluator: PlanEvaluator,
    e: float,
    q: float,
) -> EstimationPlan:
    """Prune the graph, total the cost, and check target feasibility."""
    graph = evaluator.graph
    graph.prune_unused()
    probs: dict[NodeKey, float] = {}
    feasible = True
    for node in graph.targets():
        prob = evaluator.node_error(node.key).prob_within(e)
        probs[node.key] = prob
        if prob < q:
            feasible = False
    return EstimationPlan(
        graph=graph,
        fraction=evaluator.fraction,
        total_cost=evaluator.total_cost(),
        feasible=feasible,
        target_probabilities=probs,
    )
