"""The delta coster's plan table against the optimizer's plan search.

``DeltaWorkloadCoster`` keeps one piece of costing state — the plan
table, ``(statement, table, structure, base) -> AccessPlan`` — and
claims that the first strict minimum over a configuration's entries in
``Configuration.structures_on`` order *is* the plan
``best_access_plan(_structures_for(table, config))`` picks, so every
term rebuilt from those plans is the optimizer's own float.  The oracle
here is the optimizer: for random configurations (adds, base swaps to
ROW/PAGE, method swaps, removals of the chosen plan, partial and MV
indexes, an untracked table, forced exact-cost ties) the choice must
match field for field and every total bit for bit, cold and through a
warm persistent ``CostCache``; and a counting kernel pins that nothing
is evaluated twice.
"""

import tempfile
from functools import partial
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
from repro.optimizer.access_paths import best_access_plan
from repro.optimizer.kernels import CostKernel
from repro.optimizer.whatif import WhatIfOptimizer
from repro.parallel.cache import CostCache
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.storage.index_build import IndexKind
from repro.workload.parser import parse_statement
from repro.workload.query import Workload
from tests.test_delta_costing import update_heavy_workload

COMPRESSED = (CompressionMethod.ROW, CompressionMethod.PAGE)
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


def _members(db, wl, base):
    """What the drawn configurations are made of: per table its base
    variants, and the secondaries — plain, compressed, partial, MV."""
    options = CandidateOptions(
        enable_compression=False, enable_partial=True, enable_mv=True,
        max_candidates_per_query=40,
    )
    generated = list(dict.fromkeys(
        ix for ws in wl.queries
        for ix in candidate_indexes(db, ws.statement, options)
    ))
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


def _assert_costs_match(rig, delta, data, registered: bool) -> None:
    whatif, wl = rig.whatif, rig.wl
    draw = data.draw
    ref = _draw_config(draw, rig)
    if registered:
        universe = [
            *rig.extras, *(b for bases in rig.bases.values() for b in bases)
        ]
        delta.register_universe(universe, whatif._sizes)
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
    @given(data=st.data(), registered=st.booleans())
    def test_choices_and_totals_match_full_recost(
        self, rigs, name, data, registered
    ):
        rig = rigs[name]
        delta = rig.whatif.delta_coster(rig.wl)
        _assert_costs_match(rig, delta, data, registered)


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
    delta.register_universe(
        [*rig.extras, *(b for bases in rig.bases.values() for b in bases)],
        whatif._sizes,
    )

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


def test_a_tune_evaluates_each_plan_once(sales_inputs):
    """Over a whole tune, the lanes the kernel evaluates outside the
    optimizer's own full recosts never exceed the plan table's entries:
    no plan is searched for a second time."""
    db, wl, stats = sales_inputs
    advisor = TuningAdvisor(
        db, wl, AdvisorOptions(budget_bytes=db.total_data_bytes() * 0.15),
        estimator=SizeEstimator(db, stats=stats), stats=stats,
    )
    whatif = advisor.whatif
    kernel = whatif.kernel = whatif.coster.kernel = CountingKernel()
    optimizer_cost = whatif.coster.cost
    recost_lanes = 0

    def counted_cost(statement, config):
        nonlocal recost_lanes
        before = kernel.lanes_total
        try:
            return optimizer_cost(statement, config)
        finally:
            recost_lanes += kernel.lanes_total - before

    whatif.coster.cost = counted_cost
    result = advisor.run()
    delta = result.delta_stats
    assert delta["probe_evals"] == delta["probe_entries"]
    assert kernel.lanes_total - recost_lanes <= delta["probe_entries"]
    assert kernel.lanes_total == result.kernel_stats["lanes_total"]
