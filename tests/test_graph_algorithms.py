"""Tests for the estimation graph, greedy and optimal planners."""

import pytest

from repro.compression import CompressionMethod
from repro.physical import IndexDef
from repro.sampling import SampleManager
from repro.sizeest import (
    AnalyticSizer,
    DEFAULT_ERROR_MODEL,
    EstimationGraph,
    NodeState,
    PlanEvaluator,
    choose_plan,
    execute_plan,
    node_key,
    plan_all_sampled,
    plan_greedy,
    plan_optimal,
)
from repro.sizeest.deduction import DeductionEngine, MultiColumnDistinct
from repro.sizeest.graph import _segment_partitions
from repro.sizeest.samplecf import SampleCFRunner
from repro.storage import IndexKind


def ix(*keys, method=CompressionMethod.ROW):
    return IndexDef("fact", tuple(keys), kind=IndexKind.SECONDARY,
                    method=method)


@pytest.fixture()
def evaluator_factory(small_db, small_stats):
    manager = SampleManager(small_db, min_sample_rows=100)
    sizer = AnalyticSizer(small_db, small_stats, manager)

    def make(targets, existing=(), fraction=0.1):
        graph = EstimationGraph()
        for e in existing:
            graph.add_index(e, is_existing=True)
        for t in targets:
            graph.add_index(t, is_target=True)
        return PlanEvaluator(
            graph, DEFAULT_ERROR_MODEL, sizer, manager, fraction
        )

    return make


class TestPartitions:
    def test_two_columns(self):
        parts = _segment_partitions(("a", "b"), 3)
        assert parts == [(("a",), ("b",))]

    def test_three_columns(self):
        parts = _segment_partitions(("a", "b", "c"), 3)
        assert (("a",), ("b",), ("c",)) in parts
        assert (("a", "b"), ("c",)) in parts
        assert (("a",), ("b", "c")) in parts
        assert len(parts) == 3

    def test_max_segments_respected(self):
        parts = _segment_partitions(("a", "b", "c", "d"), 2)
        assert all(len(p) == 2 for p in parts)


class TestGraph:
    def test_expand_creates_children(self, evaluator_factory):
        ev = evaluator_factory([ix("f_cat", "f_qty")])
        key = node_key(ix("f_cat", "f_qty"))
        deds = ev.graph.expand_node(key)
        assert any(d.kind == "colext" for d in deds)
        assert node_key(ix("f_cat")) in ev.graph.nodes

    def test_colset_candidates_same_set(self, evaluator_factory):
        a = ix("f_cat", "f_qty")
        b = ix("f_qty", "f_cat")
        ev = evaluator_factory([a, b])
        deds = ev.graph.expand_node(node_key(a))
        colsets = [d for d in deds if d.kind == "colset"]
        assert any(d.children == (node_key(b),) for d in colsets)

    def test_no_colset_for_page(self, evaluator_factory):
        a = ix("f_cat", "f_qty", method=CompressionMethod.PAGE)
        b = ix("f_qty", "f_cat", method=CompressionMethod.PAGE)
        ev = evaluator_factory([a, b])
        deds = ev.graph.expand_node(node_key(a))
        assert not [d for d in deds if d.kind == "colset"]

    def test_existing_marked_sampled(self, evaluator_factory):
        e = ix("f_cat")
        ev = evaluator_factory([ix("f_cat", "f_qty")], existing=[e])
        assert ev.graph.nodes[node_key(e)].state is NodeState.SAMPLED


class TestGreedy:
    def test_all_targets_decided(self, evaluator_factory):
        targets = [ix("f_cat"), ix("f_qty"), ix("f_cat", "f_qty")]
        ev = evaluator_factory(targets)
        plan = plan_greedy(ev, e=0.5, q=0.8)
        for t in targets:
            assert ev.graph.nodes[node_key(t)].state is not NodeState.NONE
        assert plan.total_cost > 0

    def test_greedy_never_costs_more_than_all(self, evaluator_factory):
        targets = [
            ix("f_cat"), ix("f_qty"),
            ix("f_cat", "f_qty"), ix("f_cat", "f_qty", "f_day"),
        ]
        greedy = plan_greedy(evaluator_factory(targets), 0.5, 0.8)
        all_plan = plan_all_sampled(evaluator_factory(targets), 0.5, 0.8)
        assert greedy.total_cost <= all_plan.total_cost + 1e-9

    def test_deduces_composite_from_singletons(self, evaluator_factory):
        targets = [ix("f_cat"), ix("f_qty"), ix("f_cat", "f_qty")]
        ev = evaluator_factory(targets)
        plan_greedy(ev, e=0.5, q=0.8)
        composite = ev.graph.nodes[node_key(ix("f_cat", "f_qty"))]
        assert composite.state is NodeState.DEDUCED

    def test_tight_constraint_forces_sampling(self, evaluator_factory):
        targets = [ix("f_cat"), ix("f_qty"), ix("f_cat", "f_qty")]
        ev = evaluator_factory(targets)
        plan = plan_greedy(ev, e=0.01, q=0.999)
        composite = ev.graph.nodes[node_key(ix("f_cat", "f_qty"))]
        assert composite.state is NodeState.SAMPLED

    def test_existing_index_is_free(self, evaluator_factory):
        existing = ix("f_cat")
        targets = [ix("f_cat")]
        ev = evaluator_factory(targets, existing=[existing])
        plan = plan_greedy(ev, 0.5, 0.9)
        assert plan.total_cost == 0.0

    def test_feasibility_reported(self, evaluator_factory):
        targets = [ix("f_cat", method=CompressionMethod.PAGE)]
        ev = evaluator_factory(targets, fraction=0.01)
        plan = plan_greedy(ev, e=0.001, q=0.9999)
        assert not plan.feasible


class TestOptimal:
    def test_optimal_not_worse_than_greedy(self, evaluator_factory):
        targets = [
            ix("f_cat"), ix("f_qty"),
            ix("f_cat", "f_qty"), ix("f_cat", "f_qty", "f_day"),
        ]
        greedy = plan_greedy(evaluator_factory(targets), 0.5, 0.8)
        optimal = plan_optimal(evaluator_factory(targets), 0.5, 0.8)
        assert optimal.total_cost <= greedy.total_cost + 1e-9
        assert optimal.feasible

    def test_single_target(self, evaluator_factory):
        ev = evaluator_factory([ix("f_cat")])
        plan = plan_optimal(ev, 0.5, 0.9)
        assert plan.feasible
        assert plan.total_cost > 0

    def test_infeasible_falls_back(self, evaluator_factory):
        ev = evaluator_factory(
            [ix("f_cat", method=CompressionMethod.PAGE)], fraction=0.01
        )
        plan = plan_optimal(ev, e=0.0001, q=0.9999)
        assert not plan.feasible


class TestPlannerAndExecution:
    def test_choose_plan_picks_cheapest_feasible(self, small_db, small_stats):
        manager = SampleManager(small_db, min_sample_rows=100)
        sizer = AnalyticSizer(small_db, small_stats, manager)
        targets = [ix("f_cat"), ix("f_cat", "f_qty")]
        result = choose_plan(
            targets, [], DEFAULT_ERROR_MODEL, sizer, manager,
            e=0.5, q=0.8, fractions=(0.05, 0.2),
        )
        assert result.plan.feasible
        finite = {
            f: c for f, c in result.considered.items() if c != float("inf")
        }
        assert result.plan.total_cost == min(finite.values())

    def test_execute_plan_produces_estimates(self, small_db, small_stats):
        manager = SampleManager(small_db, min_sample_rows=100)
        sizer = AnalyticSizer(small_db, small_stats, manager)
        runner = SampleCFRunner(manager, sizer, DEFAULT_ERROR_MODEL)
        distinct = MultiColumnDistinct(small_db, manager, fraction=0.1)
        deduction = DeductionEngine(small_db, sizer, distinct)
        targets = [ix("f_cat"), ix("f_qty"), ix("f_cat", "f_qty")]
        result = choose_plan(
            targets, [], DEFAULT_ERROR_MODEL, sizer, manager,
            e=0.5, q=0.8, fractions=(0.1,),
        )
        estimates = execute_plan(
            result.plan, runner, deduction, DEFAULT_ERROR_MODEL, manager
        )
        for t in targets:
            assert node_key(t) in estimates
            assert estimates[node_key(t)].est_bytes > 0


# ----------------------------------------------------------------------
# The index-driven expand_node against the all-nodes scan it replaced
# ----------------------------------------------------------------------
def _reference_segment_partitions(columns, max_segments):
    n = len(columns)
    out = []

    def rec(start, parts):
        if start == n:
            if len(parts) >= 2:
                out.append(tuple(parts))
            return
        if len(parts) == max_segments:
            return
        for end in range(start + 1, n + 1):
            parts.append(columns[start:end])
            rec(end, parts)
            parts.pop()

    rec(0, [])
    return out


class SnapshotGraph(EstimationGraph):
    """Keeps what pruning throws away: every node's deduction list and
    the node order, as they stood when the planner finished."""

    def prune_unused(self):
        self.expanded = {
            key: [(d.kind, d.parent, d.children) for d in deductions]
            for key, deductions in self.deductions.items()
        }
        self.helpers = [
            key for key, node in self.nodes.items()
            if not (node.is_target or node.is_existing)
        ]
        super().prune_unused()


class ReferenceGraph(SnapshotGraph):
    """``expand_node`` as it stood before the ColSet index: a scan of
    every node per lookup, one IndexDef per ColExt child per visit."""

    def _child_index(self, parent, columns):
        return IndexDef(
            table=parent.table,
            key_columns=columns,
            kind=IndexKind.SECONDARY,
            method=parent.method,
        )

    def expand_node(self, key):
        from repro.sizeest.graph import DeductionNode

        if key in self.deductions:
            return self.deductions[key]
        node = self.nodes[key]
        out = []
        table, tag, columns, method = key

        if method.is_order_independent:
            colset = frozenset(columns)
            for other_key, other in list(self.nodes.items()):
                if other_key == key:
                    continue
                o_table, o_tag, o_columns, o_method = other_key
                if o_table != table or o_method is not method:
                    continue
                if tag == "base":
                    if o_tag == "base":
                        out.append(
                            DeductionNode("colset", key, (other_key,))
                        )
                elif o_tag == "sec" and frozenset(o_columns) == colset:
                    out.append(DeductionNode("colset", key, (other_key,)))

        if tag == "sec" and len(columns) >= 2 and method.is_compressed:
            for partition in _reference_segment_partitions(
                columns, self.max_segments
            ):
                children = []
                for segment in partition:
                    child = self._child_index(node.index, segment)
                    self.add_index(child)
                    children.append(node_key(child))
                out.append(DeductionNode("colext", key, tuple(children)))

        self.deductions[key] = out
        return out


def _candidate_pool(database, workload):
    """Every plain compressed index the advisor would ask sizes for:
    per-query candidates under each package, plus the base structures'
    compressed variants (the "base" ColSet class)."""
    from repro.advisor.advisor import default_base_configuration
    from repro.advisor.candidates import (
        CandidateOptions,
        candidate_indexes,
        expand_compression_variants,
    )

    pool = list(default_base_configuration(database))
    for ws in workload.queries:
        pool.extend(candidate_indexes(
            database, ws.statement, CandidateOptions()
        ))
    return [
        index for index in dict.fromkeys(
            expand_compression_variants(pool, True)
        )
        if index.method.is_compressed
        and not (index.is_partial or index.is_mv_index)
    ]


def _plan_facts(result):
    plan, graph = result.plan, result.plan.graph
    return {
        "expanded": graph.expanded,
        "helpers": graph.helpers,
        "nodes": [
            (key, node.state, node.chosen_deduction and (
                node.chosen_deduction.kind, node.chosen_deduction.children
            ))
            for key, node in graph.nodes.items()
        ],
        "total_cost": plan.total_cost,
        "feasible": plan.feasible,
        "target_probabilities": plan.target_probabilities,
        "considered": result.considered,
    }


@pytest.mark.parametrize("dataset", ["sales", "tpch"])
def test_indexed_graph_plans_like_the_scan(dataset, monkeypatch):
    from repro import datasets
    from repro.sampling.sample_manager import DEFAULT_FRACTIONS
    from repro.sizeest import graph as graph_module, planner
    from repro.stats import DatabaseStats

    if dataset == "sales":
        database = datasets.sales_database(scale=0.05, seed=1)
        workload = datasets.sales_workload(database)
    else:
        database = datasets.tpch_database(scale=0.1, z=1.0, seed=1)
        workload = datasets.tpch_workload(database)
    targets = _candidate_pool(database, workload)
    assert len(targets) > 100
    manager = SampleManager(database)
    sizer = AnalyticSizer(database, DatabaseStats(database), manager)

    built = []

    class CountingIndexDef(IndexDef):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    def plan_with(graph_cls, fractions):
        with monkeypatch.context() as patch:
            patch.setattr(planner, "EstimationGraph", graph_cls)
            patch.setattr(graph_module, "IndexDef", CountingIndexDef)
            del built[:]
            return _plan_facts(choose_plan(
                targets, [], DEFAULT_ERROR_MODEL, sizer, manager,
                e=0.5, q=0.9, fractions=fractions,
            ))

    for fraction in DEFAULT_FRACTIONS:
        reference = plan_with(ReferenceGraph, (fraction,))
        indexed = plan_with(SnapshotGraph, (fraction,))
        assert indexed == reference, fraction
        assert any(
            kind == "colset"
            for deductions in indexed["expanded"].values()
            for kind, _parent, _children in deductions
        )
        # One IndexDef per helper node, not one per ColExt child visit.
        assert 0 < len(built) <= len(indexed["helpers"])

    # All fractions at once: the same winner, the same ledger of costs.
    indexed = plan_with(SnapshotGraph, DEFAULT_FRACTIONS)
    assert indexed == plan_with(ReferenceGraph, DEFAULT_FRACTIONS)
    assert len(indexed["considered"]) == len(DEFAULT_FRACTIONS)
