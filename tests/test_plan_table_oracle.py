"""The delta coster's plan table against the optimizer's plan search.

``DeltaWorkloadCoster`` keeps one piece of costing state — the plan
table, ``(statement, table, structure, base method) -> AccessPlan`` —
and claims that the first strict minimum over a configuration's entries in
``Configuration.structures_on`` order *is* the plan
``best_access_plan(_structures_for(table, config))`` picks, so every
term rebuilt from those plans is the optimizer's own float.  The oracle
here is the optimizer: for random configurations (adds, base swaps to
ROW/PAGE, method swaps, removals of the chosen plan, partial and MV
indexes, an untracked table, forced exact-cost ties) the choice must
match field for field and every total bit for bit, cold and through a
warm persistent ``CostCache``; and a counting kernel pins that nothing
is evaluated twice, nor before a costing reads it.  The key itself is checked too: every base with one
compression method gives a structure the same plan, and bases with
different methods do not.  Last, the cost memo above the terms: every
float it stores or answers is what a fresh coster over fresh tables
and the optimizer answer, under the weights that costed it and under
any reweighting of the same statements, and it empties when a statement
is distrusted; and what its file loads into fresh tables is what it
stored, float for float.
"""

import math
import tempfile
from dataclasses import replace
from functools import partial
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.advisor.advisor import (
    AdvisorOptions,
    TuningAdvisor,
    default_base_configuration,
    quantized_size_lookup,
)
from repro.advisor.candidates import CandidateOptions, candidate_indexes
from repro.compression.base import CompressionMethod
from repro.datasets.sales import sales_database, sales_workload
from repro.optimizer.access_paths import best_access_plan, cost_access
from repro.optimizer.delta import DeltaWorkloadCoster, _weighted_cost
from repro.optimizer.kernels import CostKernel
from repro.optimizer.whatif import WhatIfOptimizer
from repro.parallel.cache import CostCache, CostMemoFile
from repro.parallel.signature import (
    index_identity,
    sized_index_signature,
    statement_signature,
)
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.storage.index_build import IndexKind
from repro.workload.parser import parse_statement
from repro.workload.query import Workload
from tests.test_delta_costing import update_heavy_workload

COMPRESSED = (CompressionMethod.ROW, CompressionMethod.PAGE)
#: the methods the search gives a base.
METHODS = (CompressionMethod.NONE, *COMPRESSED)
#: the table some drawn configurations leave without a base structure.
UNTRACKED = "stores"
TIE_SQL = (
    "SELECT sa_total FROM sales "
    "WHERE sa_promo = 'HOLIDAY' AND sa_status = 'R'"
)


class CountingKernel(CostKernel):
    """Counts every evaluation the coster can ask for: a batch lane
    (``lanes_total``) or, for a single plan, its shape lookup."""

    def __init__(self) -> None:
        super().__init__()
        self.shape_calls = 0

    def shape_for(self, *args):
        self.shape_calls += 1
        return super().shape_for(*args)

    def work(self) -> tuple[int, int]:
        return self.lanes_total, self.shape_calls


@pytest.fixture(scope="module")
def sales_inputs():
    db = sales_database(scale=0.04)
    return db, sales_workload(db), DatabaseStats(db)


def _generated(db, wl) -> list[IndexDef]:
    """Every uncompressed candidate of the workload's statements:
    secondary, partial, clustered and MV."""
    options = CandidateOptions(
        enable_compression=False, enable_partial=True, enable_mv=True,
        max_candidates_per_query=40,
    )
    return list(dict.fromkeys(
        ix for ws in wl.queries
        for ix in candidate_indexes(db, ws.statement, options)
    ))


def _members(db, wl, base):
    """What the drawn configurations are made of: per table its base
    variants, and the secondaries — plain, compressed, partial, MV."""
    generated = _generated(db, wl)
    plain = [
        ix for ix in generated
        if ix.kind is IndexKind.SECONDARY and not ix.is_partial
        and not ix.is_mv_index
    ][:10]
    partials = [ix for ix in generated if ix.is_partial][:3]
    mvs = [ix for ix in generated if ix.is_mv_index][:2]
    assert plain and partials and mvs
    extras = plain + partials + mvs + [
        ix.with_method(method) for ix in plain[:4] for method in COMPRESSED
    ]
    bases = {
        heap.table: [heap, *(heap.with_method(m) for m in COMPRESSED)]
        for heap in base.ordered()
    }
    return bases, extras


def _rig(db, wl, stats, sizes=None, cost_cache=None, extras=None):
    if sizes is None:
        sizes = partial(quantized_size_lookup, SizeEstimator(db, stats=stats))
    whatif = WhatIfOptimizer(
        db, stats, sizes=sizes, cost_cache=cost_cache,
        cost_context="plan-table-oracle",
    )
    whatif.kernel = whatif.coster.kernel = CountingKernel()
    base = default_base_configuration(db)
    bases, generated = _members(db, wl, base)
    return SimpleNamespace(
        db=db, wl=wl, whatif=whatif, bases=bases,
        extras=generated if extras is None else extras,
    )


def _tie_rig(db, stats):
    """Every secondary the same size: structures with the same shape
    cost exactly the same, so the plan search's first-minimum order is
    all that picks between them — between two covering indexes that
    differ in included-column order, and between two partial indexes
    whose names collide (same keys, different filters)."""
    wl = Workload()
    tie = parse_statement(TIE_SQL)
    wl.add(tie, weight=3.0, name="TIE")
    for ws in sales_workload(db).queries[:5]:
        wl.add(ws.statement, weight=ws.weight, name=ws.name)
    wl.add(parse_statement(
        "UPDATE sales SET sa_total = 1 "
        "WHERE sa_promo = 'HOLIDAY' AND sa_status = 'R'"
    ), weight=2.0, name="TIE_UPD")
    promo, status = tie.predicates_of_table(db, "sales")
    twins = [
        IndexDef("sales", ("sa_channel",),
                 included_columns=("sa_total", "sa_promo", "sa_status")),
        IndexDef("sales", ("sa_channel",),
                 included_columns=("sa_status", "sa_promo", "sa_total")),
        IndexDef("sales", ("sa_channel",), filter=promo,
                 included_columns=("sa_total", "sa_promo", "sa_status")),
        IndexDef("sales", ("sa_channel",), filter=status,
                 included_columns=("sa_total", "sa_promo", "sa_status")),
    ]
    assert twins[2].display_name() == twins[3].display_name()
    extras = twins + [ix.with_method(CompressionMethod.ROW) for ix in twins]

    def sizes(ix):
        if ix.kind is IndexKind.SECONDARY:
            return 400_000.0, 5_000.0
        return 4_000_000.0, 5_000.0

    return _rig(db, wl, stats, sizes=sizes, extras=extras)


@pytest.fixture(scope="module")
def rigs(sales_inputs):
    db, wl, stats = sales_inputs
    return {
        "sales": _rig(db, wl, stats),
        "update-heavy": _rig(db, update_heavy_workload(wl), stats),
        "ties": _tie_rig(db, stats),
    }


# ----------------------------------------------------------------------
# drawing configurations
# ----------------------------------------------------------------------
def _draw_config(draw, rig) -> Configuration:
    members = []
    for table, variants in rig.bases.items():
        choices = [*variants, None] if table == UNTRACKED else variants
        base = draw(st.sampled_from(choices))
        if base is not None:
            members.append(base)
    members += draw(st.lists(
        st.sampled_from(rig.extras), unique=True, max_size=6,
    ))
    return Configuration(members)


def _draw_neighbour(draw, rig, ref: Configuration) -> Configuration:
    """One enumeration move away from ``ref`` — or somewhere else
    entirely."""
    move = draw(st.sampled_from(
        ["add", "add", "add-two", "method", "remove", "base", "fresh"]
    ))
    secondaries = [
        ix for ix in ref.ordered() if ix.kind is IndexKind.SECONDARY
    ]
    if move == "add":
        return ref.add(draw(st.sampled_from(rig.extras)))
    if move == "add-two":
        first, second = draw(st.lists(
            st.sampled_from(rig.extras), min_size=2, max_size=2, unique=True,
        ))
        return ref.add(first).add(second)
    if move == "method" and secondaries:
        ix = draw(st.sampled_from(secondaries))
        return ref.replace(ix, ix.with_method(draw(st.sampled_from(
            [m for m in CompressionMethod if m is not ix.method]
        ))))
    if move == "remove" and secondaries:
        return ref.remove(draw(st.sampled_from(secondaries)))
    if move == "base":
        table = draw(st.sampled_from(sorted(rig.bases)))
        return ref.add(draw(st.sampled_from(rig.bases[table])))
    return _draw_config(draw, rig)


def _assert_choices_match(rig, delta, config: Configuration) -> None:
    """The plan table's choice for every (statement, table) is the
    plan the optimizer's own search returns — every field, the chosen
    structure included."""
    whatif = rig.whatif
    coster = whatif.coster
    for si, shape in enumerate(delta.tables.shapes):
        for table, (preds, needed) in (shape.inputs if shape else {}).items():
            chosen = delta._choose(si, table, config)
            if config.base_structure(table) is None:
                assert chosen is None
                continue
            assert chosen == best_access_plan(
                whatif.stats.table(table), table,
                coster._structures_for(table, config), preds, needed,
                coster.constants, CostKernel(),
            )


def _assert_costs_match(rig, delta, data) -> None:
    whatif, wl = rig.whatif, rig.wl
    draw = data.draw
    ref = _draw_config(draw, rig)
    assert delta.rebase(ref) == _full(whatif, wl, ref)
    for _ in range(draw(st.integers(2, 5))):
        config = _draw_neighbour(draw, rig, ref)
        incremental = delta.workload_cost(config)
        ws = draw(st.sampled_from(wl.statements))
        one = delta.statement_cost(ws.statement, config)
        _assert_choices_match(rig, delta, config)
        assert incremental == _full(whatif, wl, config)
        assert one == whatif.cost(ws.statement, config).total
        if draw(st.booleans()):
            ref = config
            assert delta.rebase(ref) == incremental


def _full(whatif, wl, config) -> float:
    whatif.clear_cache()
    return whatif.workload_cost(wl, config)


PROPERTY = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("name", ["sales", "update-heavy", "ties"])
class TestPlanTableIsTheOptimizersChoice:
    @PROPERTY
    @given(data=st.data())
    def test_choices_and_totals_match_full_recost(self, rigs, name, data):
        rig = rigs[name]
        delta = rig.whatif.delta_coster(rig.wl)
        _assert_costs_match(rig, delta, data)


def test_ties_are_really_ties(rigs):
    """The tie rig's point: same-shape twins cost the same to the bit,
    and the optimizer keeps the first in structure order."""
    rig = rigs["ties"]
    whatif = rig.whatif
    heaps = [variants[0] for variants in rig.bases.values()]
    tie = rig.wl.statements[0].statement
    for first, second in (rig.extras[0:2], rig.extras[2:4]):
        alone = [
            whatif.cost(tie, Configuration([*heaps, ix])).plans[0]
            for ix in (first, second)
        ]
        assert alone[0].cost == alone[1].cost
        assert [plan.index for plan in alone] == [first, second]
        config = Configuration([*heaps, first, second])
        expected = config.structures_on("sales")[1]
        assert whatif.cost(tie, config).plans[0].index == expected
        delta = whatif.delta_coster(rig.wl)
        delta.rebase(Configuration([*heaps, first]))
        assert delta.workload_cost(config) == _full(whatif, rig.wl, config)
        assert delta._choose(0, "sales", config).index == expected


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_totals_match_through_a_warm_cost_cache(sales_inputs, data):
    """Cold stores, warm replays plan costs without plans: the plan
    table reproduces the plans either way, verified against the
    replayed costs, and the totals do not move."""
    db, wl, stats = sales_inputs
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = _rig(db, wl, stats, cost_cache=CostCache(cache_dir))
        ref = _draw_config(data.draw, cold)
        configs = [
            _draw_neighbour(data.draw, cold, ref)
            for _ in range(data.draw(st.integers(2, 4)))
        ]
        delta = cold.whatif.delta_coster(wl)
        costs = [delta.rebase(ref), *delta.batch(configs)]
        cold.whatif.cost_cache.save()

        warm = _rig(db, wl, stats, cost_cache=CostCache(cache_dir))
        warm_delta = warm.whatif.delta_coster(wl)
        assert [warm_delta.rebase(ref), *warm_delta.batch(configs)] == costs
        assert warm.whatif.optimizer_calls == 0  # every recost replayed
        assert not warm_delta._distrusted
        bare = _rig(db, wl, stats)
        assert [
            bare.whatif.workload_cost(wl, config)
            for config in (ref, *configs)
        ] == costs


def test_disagreeing_plan_costs_retire_a_statement_to_full_recosts(
    rigs, monkeypatch
):
    """What a stale persistent record would look like: the optimizer
    reports plan costs the plan table's choice does not reproduce.  The
    statement is never rebuilt from plans again — every later costing
    of it is the optimizer's — and the totals stay the optimizer's."""
    rig = rigs["sales"]
    whatif, wl = rig.whatif, rig.wl
    victim = wl.statements[0].statement
    assert victim.is_select
    reported = whatif.cost_with_plans

    def stale(statement, config):
        breakdown, plan_costs = reported(statement, config)
        if statement is victim:
            plan_costs = tuple(cost * 2 for cost in plan_costs)
        return breakdown, plan_costs

    heaps = [variants[0] for variants in rig.bases.values()]
    ref = Configuration(heaps)
    adds = [
        ref.add(ix) for ix in rig.extras
        if ix.table in victim.tables and not ix.is_mv_index
    ]
    monkeypatch.setattr(whatif, "cost_with_plans", stale)
    delta = whatif.delta_coster(wl)
    delta.rebase(ref)
    assert delta._distrusted == {0}
    recosts = delta.stats()["full_recosts"]
    costs = delta.batch(adds)
    assert delta.stats()["full_recosts"] - recosts == len(adds)
    monkeypatch.undo()
    assert costs == [_full(whatif, wl, config) for config in adds]


# ----------------------------------------------------------------------
# the key: a plan reads its base's compression method, nothing else
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["sales", "update-heavy"])
def test_a_plan_reads_only_the_base_method(rigs, name):
    """The plan table shares one entry between every base with the same
    compression method.  For each plan-choosing statement (a SELECT or
    a find probe) and each secondary candidate on each table, the
    optimizer's own plan against the heap and against every clustered
    variant with one method is the same, field for field; and with each
    of those bases as the reference's, the coster's entry under the key
    it derives is that plan, and the candidate's probe row its costs.
    Across methods the key must not be shared: every pair of methods
    has a non-covering secondary whose plan differs."""
    rig = rigs[name]
    whatif = rig.whatif
    constants = whatif.coster.constants
    delta = whatif.delta_coster(rig.wl)
    heaps = Configuration(variants[0] for variants in rig.bases.values())
    generated = _generated(rig.db, rig.wl)
    differing = set()
    for table, variants in rig.bases.items():
        structures = [variants[0], *(
            ix for ix in generated
            if ix.table == table and ix.kind is IndexKind.CLUSTERED
            and not ix.is_mv_index
        )]
        assert len(structures) > 1
        secondaries = [
            ix for ix in generated
            if ix.table == table and ix.kind is IndexKind.SECONDARY
            and not ix.is_mv_index
        ]
        stats = whatif.stats.table(table)
        planned = [
            (si, *shape.inputs[table])
            for si, shape in enumerate(delta.tables.shapes)
            if shape is not None and table in shape.inputs
        ]
        plans: dict = {}
        for method in METHODS:
            for base in (ix.with_method(method) for ix in structures):
                delta.rebase(heaps.add(base))
                key = delta._ref_base(table)[1]
                for ix in secondaries:
                    costs = {}
                    for si, preds, needed in planned:
                        plan = cost_access(
                            ix, *whatif._sizes(ix), preds, needed, stats,
                            constants, base_lookup=base,
                        )
                        assert plans.setdefault((si, ix, method), plan) \
                            == plan
                        assert delta._plan(si, table, ix, base, key) == plan
                        if plan is not None and delta.tables.is_select[si]:
                            costs[si] = plan.cost
                    assert delta._probe_row(ix) == [
                        costs.get(si, math.inf)
                        for si in delta.tables.by_table[table]
                    ]
        differing.update(
            pair
            for si, _preds, needed in planned
            for ix in secondaries if not ix.covers(needed)
            for pair in combinations(METHODS, 2)
            if plans[si, ix, pair[0]] != plans[si, ix, pair[1]]
        )
    assert differing == set(combinations(METHODS, 2))


# ----------------------------------------------------------------------
# nothing is evaluated twice
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["sales", "update-heavy"])
def test_repeated_sweeps_and_swaps_evaluate_nothing(rigs, name):
    """Once a sweep over the pool, the swaps of every member and the
    rebases onto them have been costed, doing it all again asks the
    kernel and the optimizer for nothing: every plan is read from the
    table."""
    rig = rigs[name]
    whatif, kernel = rig.whatif, rig.whatif.kernel
    heaps = [variants[0] for variants in rig.bases.values()]
    secondaries = [
        ix for ix in rig.extras
        if ix.kind is IndexKind.SECONDARY and not ix.is_mv_index
    ]
    ref = Configuration([*heaps, *secondaries[:3]])
    adds = [ref.add(ix) for ix in secondaries[3:]]
    swaps = [
        ref.replace(ix, ix.with_method(method))
        for ix in secondaries[:3] for method in COMPRESSED
    ] + [ref.add(heap.with_method(CompressionMethod.ROW)) for heap in heaps]
    delta = whatif.delta_coster(rig.wl)

    def sweep_swap_and_rebase():
        costs = [delta.rebase(ref), *delta.batch(adds + swaps)]
        for config, cost in zip(swaps, costs[1 + len(adds):]):
            assert delta.rebase(config) == cost
            assert delta.rebase(ref) == costs[0]
        return costs

    first = sweep_swap_and_rebase()
    evaluated = delta.stats()
    assert evaluated["probe_evals"] == evaluated["probe_entries"]
    work, calls = kernel.work(), whatif.optimizer_calls

    assert sweep_swap_and_rebase() == first
    assert kernel.work() == work
    assert whatif.optimizer_calls == calls
    again = delta.stats()
    for key in ("probe_evals", "probe_entries", "full_recosts"):
        assert again[key] == evaluated[key]


def test_a_tune_evaluates_each_plan_once(sales_inputs, monkeypatch):
    """Over a whole tune, every plan-table entry is one a costing read,
    and none is evaluated twice: the lanes the kernel evaluates outside
    the optimizer's own full recosts never exceed the entries."""
    db, wl, stats = sales_inputs
    advisor = TuningAdvisor(
        db, wl, AdvisorOptions(budget_bytes=db.total_data_bytes() * 0.15),
        estimator=SizeEstimator(db, stats=stats), stats=stats,
    )
    whatif = advisor.whatif
    kernel = whatif.kernel = whatif.coster.kernel = CountingKernel()
    optimizer_cost = whatif.coster.cost
    recost_lanes = 0
    read = set()
    read_plan = DeltaWorkloadCoster._plan

    def counted_cost(statement, config):
        nonlocal recost_lanes
        before = kernel.lanes_total
        try:
            return optimizer_cost(statement, config)
        finally:
            recost_lanes += kernel.lanes_total - before

    def counted_plan(coster, si, table, ix, base, method):
        read.add((si, table, index_identity(ix), method))
        return read_plan(coster, si, table, ix, base, method)

    whatif.coster.cost = counted_cost
    monkeypatch.setattr(DeltaWorkloadCoster, "_plan", counted_plan)
    result = advisor.run()
    delta = result.delta_stats
    assert read == advisor.delta.tables.probes.keys()
    assert delta["probe_evals"] == delta["probe_entries"]
    assert kernel.lanes_total - recost_lanes <= delta["probe_entries"]
    assert kernel.lanes_total == result.kernel_stats["lanes_total"]


# ----------------------------------------------------------------------
# the cost memo: raw totals per configuration, per stage, read under
# any weights
# ----------------------------------------------------------------------
def _heaps_and_adds(rig):
    heaps = Configuration(variants[0] for variants in rig.bases.values())
    adds = [
        heaps.add(ix) for ix in rig.extras
        if ix.kind is IndexKind.SECONDARY and not ix.is_mv_index
    ]
    return heaps, adds


def _memo_entries(tables):
    """The memo as (configuration, workload cost) pairs, one per raw
    entry, the cost rebuilt from its raw totals under the weights in
    force; and every weighted entry must hold that same cost.  A sweep
    entry is keyed by (reference members, the added secondary)."""
    assert tables.weighted_costs.keys() <= tables.cost_memo.keys()
    for key, raw in tables.cost_memo.items():
        cost = _weighted_cost(raw, tables.weights)
        assert tables.weighted_costs.get(key, cost) == cost
        if isinstance(key, tuple):
            ref, ix = key
            key = ref | {ix}
        yield Configuration(key), cost


def _reweighted(wl, factors) -> Workload:
    """``wl`` with statement ``i``'s weight times ``factors[i]``."""
    out = Workload()
    for ws, factor in zip(wl, factors):
        out.add(ws.statement, ws.weight * factor, ws.name)
    return out


#: per-statement weight factors: dropped, scaled down or up 25x, kept.
FACTORS = st.sampled_from([0.0, 1 / 25, 1.0, 25.0])


@PROPERTY
@given(data=st.data())
def test_the_cost_memo_holds_the_bodys_answers(rigs, data):
    """A search-like walk — adds, removals, base swaps, method swaps,
    rebases — costs every configuration twice in a row through one
    coster, and once more after the walk has moved on.  Every answer,
    and every float the memo stores, is what the costing body of a
    fresh coster over fresh tables answers, and the optimizer's."""
    rig = rigs["sales"]
    whatif, wl = rig.whatif, rig.wl
    draw = data.draw
    delta = whatif.delta_coster(wl)
    start = ref = _draw_config(draw, rig)
    delta.rebase(ref)
    walk = []
    for _ in range(draw(st.integers(2, 6))):
        config = _draw_neighbour(draw, rig, ref)
        first = delta.workload_cost(config)
        hits = delta.cost_memo_hits
        assert delta.workload_cost(config) == first
        assert delta.cost_memo_hits - hits == (config != ref)
        walk.append((config, first))
        if draw(st.booleans()):
            ref = config
            delta.rebase(ref)
    again = [delta.workload_cost(config) for config, _cost in walk]

    def body(config):
        fresh = whatif.delta_coster(wl)
        fresh.rebase(start)
        return fresh.workload_cost(config)

    for (config, first), last in zip(walk, again):
        assert first == last == body(config) == _full(whatif, wl, config)
    for config, cost in _memo_entries(delta.tables):
        assert cost == _full(whatif, wl, config)


@PROPERTY
@given(data=st.data())
def test_a_reweighted_coster_reads_every_entry_of_the_memo(rigs, data):
    """A walk like the one above fills the memo; costers over the same
    statements reweighted — zero weights, 25x ratios — replay it over
    the same tables.  Each reads every entry the walk stored and stores
    none, and each answer is the optimizer's under its own weights; the
    first weights again read the first answers."""
    rig = rigs["sales"]
    whatif, wl = rig.whatif, rig.wl
    draw = data.draw
    first = whatif.delta_coster(wl)
    start = ref = _draw_config(draw, rig)
    first.rebase(ref)
    walk, answers, asked = [], [], 0
    for _ in range(draw(st.integers(2, 6))):
        config = _draw_neighbour(draw, rig, ref)
        walk.append(("cost", config))
        answers.append(first.workload_cost(config))
        asked += config != ref
        if draw(st.booleans()):
            ref = config
            walk.append(("rebase", config))
            first.rebase(ref)
    tables = first.tables
    stored = len(tables.cost_memo)

    def replay(coster) -> list[float]:
        coster.rebase(start)
        costs = []
        for step, config in walk:
            if step == "rebase":
                coster.rebase(config)
            else:
                costs.append(coster.workload_cost(config))
        return costs

    n = len(wl)
    for factors in draw(st.lists(
        st.lists(FACTORS, min_size=n, max_size=n), min_size=1, max_size=3,
    )):
        reweighted = _reweighted(wl, factors)
        other = whatif.delta_coster(reweighted, tables)
        costs = replay(other)
        assert other.cost_memo_hits == asked
        assert len(tables.cost_memo) == stored
        assert costs == [
            _full(whatif, reweighted, config)
            for step, config in walk if step == "cost"
        ]
        for config, cost in _memo_entries(tables):
            assert cost == _full(whatif, reweighted, config)

    again = whatif.delta_coster(wl, tables)
    assert replay(again) == answers
    assert again.cost_memo_hits == asked
    assert len(tables.cost_memo) == stored


def test_a_distrusted_statement_empties_the_memo(rigs, monkeypatch):
    """A statement joins ``distrusted`` when the optimizer reports plan
    costs its plan-table choice does not reproduce; every memo entry
    may have been built from its plans, so none survives — neither the
    raw totals nor the weighted costs of the reweighted coster in
    force — and costers under either weights cost anew."""
    rig = rigs["sales"]
    whatif, wl = rig.whatif, rig.wl
    heaps, adds = _heaps_and_adds(rig)
    delta = whatif.delta_coster(wl)
    delta.rebase(heaps)
    delta.batch(adds)
    assert len(delta.tables.cost_memo) == len(adds)
    assert not delta._distrusted
    reweighted = wl.reweighted(1.0, 25.0)
    other = whatif.delta_coster(reweighted, delta.tables)
    other.rebase(heaps)
    other.batch(adds)
    assert other.cost_memo_hits == len(adds)

    victim = wl.statements[0].statement
    reported = whatif.cost_with_plans

    def stale(statement, config):
        breakdown, plan_costs = reported(statement, config)
        if statement is victim:
            plan_costs = tuple(cost * 2 for cost in plan_costs)
        return breakdown, plan_costs

    monkeypatch.setattr(whatif, "cost_with_plans", stale)
    # Another first reference over the same tables asks the optimizer;
    # its weights are ``other``'s, whose weighted costs stay in force.
    third = whatif.delta_coster(reweighted, delta.tables)
    assert delta.tables.weighted_costs
    third.rebase(adds[0])
    assert delta._distrusted == {0}
    assert not delta.tables.cost_memo
    assert not delta.tables.weighted_costs
    monkeypatch.undo()
    # The reweighted coster costs every add anew; the first weights
    # then read what it stored.
    for coster, weighted, read in (
        (other, reweighted, 0), (delta, wl, len(adds)),
    ):
        hits = coster.cost_memo_hits
        assert coster.batch(adds) == [
            _full(whatif, weighted, c) for c in adds
        ]
        assert coster.cost_memo_hits == hits + read


def _memo_file(directory, whatif, wl, structures) -> CostMemoFile:
    """The file of a memo over ``whatif``'s sizes, sizing
    ``structures``."""
    return CostMemoFile(
        directory, "plan-table-oracle",
        [statement_signature(ws.statement) for ws in wl],
        {sized_index_signature(ix, *whatif._sizes(ix)): ix
         for ix in structures},
    )


@PROPERTY
@given(data=st.data())
def test_a_loaded_memo_holds_the_bodys_answers(rigs, data):
    """A search-like walk fills the memo and its file saves it; the
    tables of a fresh coster load it over equal structures that are
    other objects.  Every entry loaded is the raw tuple the walk
    stored, float for float, and answers what a memo-emptied body and
    the optimizer answer; the entries that name a structure outside
    the sized set — the MV indexes, and method variants a walk made —
    never reach the file."""
    rig = rigs["sales"]
    whatif, wl = rig.whatif, rig.wl
    draw = data.draw
    delta = whatif.delta_coster(wl)
    start = ref = _draw_config(draw, rig)
    delta.rebase(ref)
    for _ in range(draw(st.integers(2, 6))):
        config = _draw_neighbour(draw, rig, ref)
        delta.workload_cost(config)
        if draw(st.booleans()):
            ref = config
            delta.rebase(ref)
    sized = [
        ix for ix in dict.fromkeys(
            [*(b for bases in rig.bases.values() for b in bases),
             *rig.extras]
        ) if not ix.is_mv_index
    ]
    stored = {
        key: raw for key, raw in delta.tables.cost_memo.items()
        if (key[0] | {key[1]} if isinstance(key, tuple) else key)
        <= set(sized)
    }
    fresh = whatif.delta_coster(wl)
    with tempfile.TemporaryDirectory() as directory:
        _memo_file(directory, whatif, wl, sized).save(delta.tables)
        loaded = _memo_file(directory, whatif, wl,
                            [replace(ix) for ix in sized])
        assert loaded.load(fresh.tables) == len(stored)
    assert fresh.tables.cost_memo.keys() == stored.keys()
    shared = {}
    for key, raw in fresh.tables.cost_memo.items():
        original = stored[key]
        assert [*map(repr, raw[0]), *map(repr, raw[1:])] == \
            [*map(repr, original[0]), *map(repr, original[1:])]
        # One loaded totals tuple per stored one.
        assert shared.setdefault(id(original[0]), raw[0]) is raw[0]

    def body(config):
        emptied = whatif.delta_coster(wl)
        emptied.rebase(start)
        return emptied.workload_cost(config)

    for config, cost in _memo_entries(fresh.tables):
        assert cost == body(config) == _full(whatif, wl, config)
