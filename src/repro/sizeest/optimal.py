"""Exact graph-search algorithm (Appendix D's Optimal).

Finds the cost-minimal assignment of SAMPLED/DEDUCED states satisfying
the (e, q) constraint, by branch and bound over per-target options with
shared sampled children.

Search space note: plans are restricted to *leaf-sampled* deduction
chains — a DEDUCED node's children are SAMPLED (or existing), never
themselves DEDUCED.  This loses no sampling cost: the ColExt partition
space is closed under refinement, so any deeper chain (e.g. A+B -> AB,
then AB+C -> ABC) has a one-step counterpart over the same sampled
leaves (A+B+C -> ABC); only the error composition differs slightly.
Within that space the search is exhaustive and exact, which is how the
Table 4 experiment can afford to run it at every sampling fraction
(the unrestricted recursion, like the paper's, "does not finish in
hours" beyond toy sizes).
"""

from __future__ import annotations

import math

from repro.errors import SizeEstimationError
from repro.sizeest.error_model import ErrorRV
from repro.sizeest.graph import DeductionNode, NodeKey, NodeState
from repro.sizeest.plan import EstimationPlan, PlanEvaluator, finalize_plan


def plan_optimal(
    evaluator: PlanEvaluator,
    e: float,
    q: float,
    node_limit: int = 200,
) -> EstimationPlan:
    """Cost-minimal feasible plan (exact over leaf-sampled chains).

    Args:
        evaluator: wraps the graph (targets/existing added), error model
            and sampling fraction.
        e, q: the accuracy constraint.
        node_limit: safety valve on the expanded graph size.
    """
    graph = evaluator.graph
    targets = sorted(
        (n.key for n in graph.targets()),
        key=lambda k: (-len(k[2]), k[2], k[0], k[1], k[3].value),
    )
    for key in list(targets):
        graph.expand_node(key)
    if len(graph.nodes) > node_limit:
        raise SizeEstimationError(
            f"optimal search over {len(graph.nodes)} nodes exceeds the "
            f"limit of {node_limit}"
        )

    target_set = set(targets)

    def child_rv(key: NodeKey) -> ErrorRV:
        return (
            ErrorRV.exact()
            if graph.nodes[key].is_existing
            else evaluator.sampled_rv(key)
        )

    # Per-target options: ('S', None, ()) or ('D', deduction, children
    # that must be sampled).  Options are pre-filtered for feasibility.
    options: dict[NodeKey, list[tuple[str, DeductionNode | None,
                                      tuple[NodeKey, ...]]]] = {}
    for key in targets:
        opts = []
        for ded in graph.deductions.get(key, ()):
            rvs = [child_rv(c) for c in ded.children]
            rvs.append(evaluator.deduction_rv(ded))
            if ErrorRV.product(rvs).prob_within(e) >= q:
                need = tuple(
                    c for c in ded.children
                    if not graph.nodes[c].is_existing
                )
                opts.append(("D", ded, need))
        if (
            graph.nodes[key].is_existing
            or evaluator.sampled_rv(key).prob_within(e) >= q
        ):
            opts.append(("S", None, (key,)))
        options[key] = opts

    infeasible = [k for k, o in options.items() if not o]

    best_cost = math.inf
    best_choice: dict[NodeKey, tuple] | None = None
    choice: dict[NodeKey, tuple] = {}

    def rec(i: int, sampled: frozenset[NodeKey], cost: float) -> None:
        nonlocal best_cost, best_choice
        if cost >= best_cost:
            return
        if i == len(targets):
            best_cost = cost
            best_choice = dict(choice)
            return
        key = targets[i]
        if key in sampled:
            # Already paid for as someone's child: keep it sampled.
            choice[key] = ("S", None, (key,))
            rec(i + 1, sampled, cost)
            del choice[key]
            return
        # Cheapest-delta options first so good incumbents appear early.
        ranked = sorted(
            options[key],
            key=lambda opt: sum(
                evaluator.sampling_cost(c)
                for c in opt[2]
                if c not in sampled
            ),
        )
        for opt in ranked:
            extra = [c for c in opt[2] if c not in sampled]
            delta = sum(evaluator.sampling_cost(c) for c in extra)
            choice[key] = opt
            rec(i + 1, sampled | frozenset(extra), cost + delta)
            del choice[key]

    if not infeasible:
        rec(0, frozenset(), 0.0)

    if best_choice is None:
        # No feasible plan at this fraction: fall back to sampling every
        # target so the caller sees the infeasibility in the plan.
        best_choice = {k: ("S", None, (k,)) for k in targets}

    # Apply the winning assignment to the graph.
    for node in graph.nodes.values():
        if not node.is_existing:
            node.state = NodeState.NONE
        node.chosen_deduction = None
    sampled_children: set[NodeKey] = set()
    for key, (kind, ded, need) in best_choice.items():
        node = graph.nodes[key]
        if kind == "S":
            node.state = NodeState.SAMPLED
        else:
            node.state = NodeState.DEDUCED
            node.chosen_deduction = ded
            sampled_children.update(need)
    for key in sampled_children:
        node = graph.nodes[key]
        if node.state is NodeState.NONE:
            node.state = NodeState.SAMPLED
    return finalize_plan(evaluator, e, q)
