"""Delta-aware workload costing at the coster: incremental totals must
be bit-equal to full recosting, and pruning must never change a
recommendation.

The contract under test (see ``repro.optimizer.delta``): the
``DeltaWorkloadCoster`` only ever reuses a float it can prove is the
bit-identical value the full-recost path would compute (probe-lose
reuse, plan patching), and only ever skips a candidate whose costing
provably cannot change the search (zero-delta certificates).  So every
test here asserts *exact* equality — no tolerances.  Whole advisor runs
with delta costing on and off are cells of ``tests/test_run_identity.py``.
"""

import random

import pytest

from repro.advisor.advisor import AdvisorOptions, TuningAdvisor
from repro.datasets.sales import sales_database, sales_workload
from repro.parallel.cache import CostCache
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.storage.index_build import IndexKind


@pytest.fixture(scope="module")
def delta_inputs():
    db = sales_database(scale=0.04)
    wl = sales_workload(db)
    return db, wl, db.total_data_bytes() * 0.15


@pytest.fixture(scope="module")
def costing_rig(delta_inputs):
    """A what-if optimizer + the candidate pool an advisor would search,
    for direct coster-level tests."""
    db, wl, budget = delta_inputs
    stats = DatabaseStats(db)
    estimator = SizeEstimator(db, stats=stats)
    advisor = TuningAdvisor(
        db, wl, AdvisorOptions(budget_bytes=budget),
        estimator=estimator, stats=stats,
    )
    base = advisor.base_config
    pool = []
    for table in ("sales", "customers", "products", "stores"):
        t = db.table(table)
        cols = t.column_names
        pool.append(IndexDef(table, (cols[0],), kind=IndexKind.SECONDARY))
        pool.append(
            IndexDef(table, (cols[1], cols[0]), kind=IndexKind.SECONDARY)
        )
    return advisor.whatif, wl, base, pool


def _random_configs(base: Configuration, pool, seed: int, n: int):
    """Randomized candidate sequences: single adds, growing chains, and
    the occasional multi-add — the shapes enumeration produces."""
    rng = random.Random(seed)
    configs = []
    current = base
    for _ in range(n):
        roll = rng.random()
        if roll < 0.5:
            configs.append(current.add(rng.choice(pool)))
        elif roll < 0.8:
            current = current.add(rng.choice(pool))
            configs.append(current)
        else:
            a, b = rng.sample(pool, 2)
            configs.append(current.add(a).add(b))
    return configs


def _assert_method_swaps_match(whatif, wl, base, pool):
    """Secondary -> compressed-variant swaps against a reference that
    holds the secondary (the backtrack/polish shape): exact, and for a
    SELECT whose chosen plan is not the swapped index decided from the
    variant's probe — a reference reuse, which a swap never was while
    every swapped table re-ran its plan search."""
    from repro.compression.base import CompressionMethod

    grown = base
    for ix in pool:
        grown = grown.add(ix)
    delta = whatif.delta_coster(wl)
    delta.rebase(grown)
    swaps = [
        grown.replace(ix, ix.with_method(method))
        for ix in pool
        for method in (CompressionMethod.ROW, CompressionMethod.PAGE)
    ]
    reused_before = delta.stats()["reused_terms"]
    incremental = delta.batch(swaps)
    assert delta.stats()["reused_terms"] > reused_before
    whatif.clear_cache()
    assert incremental == [whatif.workload_cost(wl, c) for c in swaps]


class TestIncrementalEqualsFull:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_randomized_sequences_match_full_batch(self, costing_rig, seed):
        """Property: delta totals == fresh full-recost totals, exactly,
        for randomized candidate sequences."""
        whatif, wl, base, pool = costing_rig
        configs = _random_configs(base, pool, seed, 40)
        delta = whatif.delta_coster(wl)
        delta.rebase(base)
        incremental = delta.batch(configs)
        whatif.clear_cache()
        full = [whatif.workload_cost(wl, c) for c in configs]
        assert incremental == full
        stats = delta.stats()
        assert stats["reused_terms"] + stats["patched_terms"] > 0

    def test_rebase_returns_full_workload_cost(self, costing_rig):
        whatif, wl, base, pool = costing_rig
        delta = whatif.delta_coster(wl)
        assert delta.rebase(base) == whatif.workload_cost(wl, base)
        grown = base.add(pool[0]).add(pool[3])
        assert delta.rebase(grown) == whatif.workload_cost(wl, grown)

    def test_statement_cost_matches_whatif(self, costing_rig):
        whatif, wl, base, pool = costing_rig
        delta = whatif.delta_coster(wl)
        delta.rebase(base)
        for ws in wl:
            for ix in pool[:4]:
                config = base.add(ix)
                assert delta.statement_cost(ws.statement, config) == \
                    whatif.cost(ws.statement, config).total

    def test_base_swaps_and_method_swaps_match(self, costing_rig):
        """Removed+added diffs (the polish/backtrack shapes) must also
        be exact."""
        from repro.compression.base import CompressionMethod

        whatif, wl, base, pool = costing_rig
        delta = whatif.delta_coster(wl)
        delta.rebase(base)
        configs = []
        for ix in base.ordered():
            for method in (CompressionMethod.ROW, CompressionMethod.PAGE):
                configs.append(base.replace(ix, ix.with_method(method)))
        grown = base.add(pool[0])
        configs.append(
            grown.replace(pool[0], pool[0].with_method(
                CompressionMethod.PAGE))
        )
        incremental = delta.batch(configs)
        whatif.clear_cache()
        assert incremental == [whatif.workload_cost(wl, c) for c in configs]
        _assert_method_swaps_match(whatif, wl, base, pool)

    def test_method_swap_strict_win_is_patched(self, costing_rig):
        """The other decided swap shape: the reference chose ``narrow``
        over ``wide``, and ``wide``'s ROW variant strictly beats it —
        the variant's probe is patched in, no plan search."""
        from repro.compression.base import CompressionMethod

        whatif, wl, base, _pool = costing_rig
        wide = IndexDef("sales", ("sa_productkey", "sa_channel"),
                        included_columns=("sa_total",))
        narrow = IndexDef("sales", ("sa_productkey",),
                          included_columns=("sa_channel", "sa_total"))
        variant = wide.with_method(CompressionMethod.ROW)
        ref = base.add(wide).add(narrow)
        swapped = ref.replace(wide, variant)
        s07 = next(ws.statement for ws in wl.queries if ws.name == "S07_v1")
        assert whatif.cost(s07, ref).plans[0].index == narrow
        assert whatif.cost(s07, swapped).plans[0].index == variant
        delta = whatif.delta_coster(wl)
        delta.rebase(ref)
        before = delta.stats()
        lanes, calls = whatif.kernel.lanes_total, whatif.optimizer_calls
        total = delta.statement_cost(s07, swapped)
        after = delta.stats()
        # Patched from plans: the variant's own plan is the one new
        # evaluation — no plan search (kernel lanes), no optimizer call.
        assert after["probe_evals"] - before["probe_evals"] == 1
        assert after["patched_terms"] - before["patched_terms"] == 1
        assert after["full_recosts"] == before["full_recosts"]
        assert whatif.kernel.lanes_total == lanes
        assert whatif.optimizer_calls == calls
        assert total == whatif.cost(s07, swapped).total
        incremental = delta.workload_cost(swapped)
        whatif.clear_cache()
        assert incremental == whatif.workload_cost(wl, swapped)

    def test_fork_view_is_isolated(self, costing_rig):
        whatif, wl, base, pool = costing_rig
        delta = whatif.delta_coster(wl)
        delta.rebase(base)
        delta.workload_cost(base.add(pool[0]))
        view = delta.fork_view()
        assert view.stats()["probe_entries"] == 0
        assert view.stats()["probe_evals"] == 0
        assert view.workload_cost(base) == delta.rebase(base)
        assert delta.stats()["probe_entries"] > 0


def update_heavy_workload(wl):
    """A workload dominated by UPDATE/DELETE/INSERT statements (plus a
    few SELECTs), for the maintenance-patching paths: fsum-accumulated
    maintenance costs let the delta layer rebuild INSERT/UPDATE/DELETE
    terms from memoized per-structure contributions."""
    from repro.workload.parser import parse_statement
    from repro.workload.query import Workload

    heavy = Workload()
    for ws in wl.queries[:6]:
        heavy.add(ws.statement, weight=1.0, name=ws.name)
    for name, sql, weight in [
        ("UPD_STATUS",
         "UPDATE sales SET sa_status = 'R' WHERE sa_promo = 'HOLIDAY'", 4.0),
        ("UPD_DISCOUNT",
         "UPDATE sales SET sa_discount = 5 "
         "WHERE sa_date >= DATE '2009-01-01'", 4.0),
        ("DEL_SMALLBIZ",
         "DELETE FROM customers WHERE cu_segment = 'SMALLBIZ'", 3.0),
        ("BULK_1", "INSERT INTO sales BULK 800", 5.0),
        ("BULK_2", "INSERT INTO customers BULK 120", 5.0),
    ]:
        heavy.add(parse_statement(sql), weight=weight, name=name)
    return heavy


@pytest.fixture(scope="module")
def update_heavy_rig(delta_inputs):
    """The :func:`update_heavy_workload` rig: optimizer, base
    configuration and a secondary pool on its two written tables."""
    db, wl, budget = delta_inputs
    heavy = update_heavy_workload(wl)
    stats = DatabaseStats(db)
    estimator = SizeEstimator(db, stats=stats)
    advisor = TuningAdvisor(
        db, heavy, AdvisorOptions(budget_bytes=budget),
        estimator=estimator, stats=stats,
    )
    pool = []
    for table in ("sales", "customers"):
        cols = db.table(table).column_names
        pool.append(IndexDef(table, (cols[0],), kind=IndexKind.SECONDARY))
        pool.append(
            IndexDef(table, (cols[2], cols[1]), kind=IndexKind.SECONDARY)
        )
        pool.append(IndexDef(table, (cols[1],), kind=IndexKind.SECONDARY))
    return advisor.whatif, heavy, advisor.base_config, pool, db, budget


class TestUpdateHeavyIncremental:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_randomized_sequences_match_full_batch(
        self, update_heavy_rig, seed
    ):
        """Property: delta totals == fresh full-recost totals, exactly,
        on a workload where most statements are maintenance — and the
        maintenance patch path (not full recosting) carries the load."""
        whatif, wl, base, pool, _db, _budget = update_heavy_rig
        configs = _random_configs(base, pool, seed, 40)
        delta = whatif.delta_coster(wl)
        delta.rebase(base)
        incremental = delta.batch(configs)
        whatif.clear_cache()
        full = [whatif.workload_cost(wl, c) for c in configs]
        assert incremental == full
        assert delta.stats()["patched_maintenance"] > 0

    def test_base_and_method_swaps_match(self, update_heavy_rig):
        """Removed+added diffs must stay exact for maintenance
        statements too (base compression swaps change every
        per-structure contribution of the table)."""
        from repro.compression.base import CompressionMethod

        whatif, wl, base, pool, _db, _budget = update_heavy_rig
        delta = whatif.delta_coster(wl)
        delta.rebase(base)
        configs = []
        for ix in base.ordered():
            for method in (CompressionMethod.ROW, CompressionMethod.PAGE):
                configs.append(base.replace(ix, ix.with_method(method)))
        grown = base.add(pool[0]).add(pool[3])
        configs.append(grown)
        configs.append(
            grown.replace(pool[0],
                          pool[0].with_method(CompressionMethod.ROW))
        )
        incremental = delta.batch(configs)
        whatif.clear_cache()
        assert incremental == [whatif.workload_cost(wl, c) for c in configs]
        _assert_method_swaps_match(whatif, wl, base, pool)

    def test_statement_cost_matches_whatif(self, update_heavy_rig):
        whatif, wl, base, pool, _db, _budget = update_heavy_rig
        delta = whatif.delta_coster(wl)
        delta.rebase(base)
        for ws in wl.updates:
            for ix in pool:
                config = base.add(ix)
                assert delta.statement_cost(ws.statement, config) == \
                    whatif.cost(ws.statement, config).total

    def test_maintenance_total_is_order_independent(self, update_heavy_rig):
        """The fsum accumulation contract: per-structure contributions
        summed in any order reproduce ``_maintenance_cost``'s exact
        breakdown."""
        import math
        import random as _random

        whatif, wl, base, pool, _db, _budget = update_heavy_rig
        coster = whatif.coster
        config = base.add(pool[0]).add(pool[1]).add(pool[2])
        structures = coster.maintenance_structures("sales", config)
        assert len(structures) >= 3
        full = coster._maintenance_cost("sales", 800.0, config)
        contribs = [
            coster.structure_maintenance("sales", 800.0, ix)
            for ix in structures
        ]
        for seed in (1, 2, 3):
            shuffled = list(contribs)
            _random.Random(seed).shuffle(shuffled)
            assert math.fsum(c[0] for c in shuffled) == full.io
            assert math.fsum(c[1] for c in shuffled) == full.cpu


class TestColdAndWarmCostCache:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_equivalence_through_persistent_cache(
        self, delta_inputs, tmp_path, seed
    ):
        """Cold stores, warm replays (plan costs included): delta totals
        stay equal to full recosting in both cache states."""
        db, wl, budget = delta_inputs
        stats = DatabaseStats(db)

        def rig(cache: CostCache):
            estimator = SizeEstimator(db, stats=stats)
            advisor = TuningAdvisor(
                db, wl, AdvisorOptions(budget_bytes=budget),
                estimator=estimator, stats=stats, cost_cache=cache,
            )
            return advisor.whatif, advisor.base_config

        whatif, base = rig(CostCache(tmp_path))
        pool = [
            IndexDef("sales", (db.table("sales").column_names[i],),
                     kind=IndexKind.SECONDARY)
            for i in range(3)
        ]
        configs = _random_configs(base, pool, seed, 25)

        delta = whatif.delta_coster(wl)
        delta.rebase(base)
        cold = delta.batch(configs)
        whatif.cost_cache.save()

        # Warm: a fresh optimizer + coster over the persisted entries.
        warm_whatif, warm_base = rig(CostCache(tmp_path))
        warm_delta = warm_whatif.delta_coster(wl)
        warm_delta.rebase(warm_base)
        warm = warm_delta.batch(configs)
        assert warm == cold

        # And the ground truth, uncached.
        bare_whatif, bare_base = rig(None)
        assert [bare_whatif.workload_cost(wl, c) for c in configs] == cold

    def test_plan_costs_survive_persistence(self, delta_inputs, tmp_path):
        db, wl, budget = delta_inputs
        stats = DatabaseStats(db)
        estimator = SizeEstimator(db, stats=stats)
        advisor = TuningAdvisor(
            db, wl, AdvisorOptions(budget_bytes=budget),
            estimator=estimator, stats=stats,
            cost_cache=CostCache(tmp_path),
        )
        whatif = advisor.whatif
        query = wl.queries[0].statement
        breakdown, plan_costs = whatif.cost_with_plans(
            query, advisor.base_config
        )
        assert plan_costs == tuple(p.cost for p in breakdown.plans)
        whatif.cost_cache.save()

        replayer = TuningAdvisor(
            db, wl, AdvisorOptions(budget_bytes=budget),
            estimator=SizeEstimator(db, stats=stats), stats=stats,
            cost_cache=CostCache(tmp_path),
        )
        replayed, replayed_costs = replayer.whatif.cost_with_plans(
            query, replayer.base_config
        )
        assert replayed.total == breakdown.total
        assert replayed.plans == ()  # plans are not persisted...
        assert replayed_costs == plan_costs  # ...but their costs are


class TestPruning:
    def test_zero_delta_certificates_fire(self, costing_rig):
        """A table whose best pool index is already in the reference:
        the weaker candidates on it all probe-lose, so they are
        certified unable to change anything — and skipping them is
        exact, because their delta would be 0.0 bit-for-bit."""
        whatif, wl, base, pool = costing_rig
        delta = whatif.delta_coster(wl)
        delta.rebase(base)
        cust = [ix for ix in pool if ix.table == "customers"]
        ref = base.add(max(cust, key=lambda ix: len(ix.key_columns)))
        ref_cost = delta.rebase(ref)
        certified = [
            d for d in cust
            if d not in ref and not delta.improvement_possible(ref.add(d))
        ]
        assert certified
        assert delta.pruned_zero_delta == len(certified)
        for d in certified:
            assert delta.workload_cost(ref.add(d)) == ref_cost

# ----------------------------------------------------------------------
# the sweep shape: probe rows against per-table reference vectors
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tpch_zipf_rig():
    """Zipf-skewed TPC-H under the INSERT-heavy mix, with a pool drawn
    from the advisor's own candidate generator."""
    from repro.advisor.candidates import CandidateOptions, candidate_indexes
    from repro.datasets.tpch import tpch_database, tpch_workload

    db = tpch_database(scale=0.1, z=1.0)
    wl = tpch_workload(db, select_weight=1, insert_weight=10)
    stats = DatabaseStats(db)
    advisor = TuningAdvisor(
        db, wl, AdvisorOptions(budget_bytes=db.total_data_bytes() * 0.2),
        estimator=SizeEstimator(db, stats=stats), stats=stats,
    )
    pool = []
    for ws in wl.queries[:8]:
        pool.extend(candidate_indexes(
            db, ws.statement, CandidateOptions(enable_compression=False)
        )[:2])
    pool = [ix for ix in dict.fromkeys(pool)
            if ix.kind is IndexKind.SECONDARY]
    return advisor.whatif, wl, advisor.base_config, pool, db


@pytest.fixture(scope="module")
def sweep_rig(request):
    """(whatif, workload, base, secondary pool, database) of one of the
    three rigs the sweep tests run on."""
    if request.param == "tpch-zipf":
        return request.getfixturevalue("tpch_zipf_rig")
    if request.param == "update-heavy":
        whatif, wl, base, pool, db, _budget = \
            request.getfixturevalue("update_heavy_rig")
        return whatif, wl, base, pool, db
    whatif, wl, base, pool = request.getfixturevalue("costing_rig")
    return whatif, wl, base, pool, request.getfixturevalue("delta_inputs")[0]


ALL_RIGS = ["sales", "update-heavy", "tpch-zipf"]


def _sweep_pool(db, wl, base, pool):
    """The rig's secondaries plus what else a real pool holds: their
    compressed variants, compressed base variants, partial indexes and
    an MV index (the last two from the candidate generator)."""
    from repro.advisor.candidates import CandidateOptions, candidate_indexes
    from repro.compression.base import CompressionMethod

    options = CandidateOptions(
        enable_compression=False, enable_partial=True, enable_mv=True,
        max_candidates_per_query=40,
    )
    generated = [
        ix for ws in wl.queries
        for ix in candidate_indexes(db, ws.statement, options)
    ]
    partial = list(dict.fromkeys(ix for ix in generated if ix.is_partial))
    mvs = list(dict.fromkeys(ix for ix in generated if ix.is_mv_index))
    assert partial and mvs
    extras = partial[:2] + mvs[:2]
    extras += [ix.with_method(CompressionMethod.PAGE) for ix in pool[:3]]
    extras += [
        ix.with_method(CompressionMethod.ROW) for ix in base.ordered()
    ]
    return list(dict.fromkeys([*pool, *extras])), partial[0], mvs[0]


def _single_adds(ref, pool):
    adds = [ref.add(ix) for ix in pool if ix not in ref]
    return [config for config in adds if config != ref]


@pytest.mark.parametrize("sweep_rig", ALL_RIGS, indirect=True)
class TestSweepMajor:
    @pytest.mark.parametrize("seed", [31, 32])
    def test_sweeps_along_a_chain_match_full_recost(self, sweep_rig, seed):
        """After every rebase of a greedy-like chain — plain adds, a
        partial index, a base swap, a method swap, an MV add — the
        sweep over all single adds is exact whichever way it is asked
        for, the second asking being answered from rows already held."""
        from repro.compression.base import CompressionMethod

        whatif, wl, base, pool, db = sweep_rig
        sweep_pool, partial, mv = _sweep_pool(db, wl, base, pool)
        rng = random.Random(seed)
        first, second, third = rng.sample(pool, 3)
        heap = base.base_structure(first.table)
        chain = [
            lambda c: c,
            lambda c: c.add(first),
            lambda c: c.add(partial),
            lambda c: c.add(heap.with_method(
                rng.choice([CompressionMethod.ROW, CompressionMethod.PAGE]))),
            lambda c: c.add(second),
            lambda c: c.replace(first, first.with_method(
                rng.choice([CompressionMethod.ROW, CompressionMethod.PAGE]))),
            lambda c: c.add(mv),
            lambda c: c.add(third),
        ]
        delta = whatif.delta_coster(wl)
        delta.register_universe(
            [*sweep_pool, *base.ordered()], lambda ix: whatif._sizes(ix)
        )
        ref = base
        for step in chain:
            ref = step(ref)
            ref_cost = delta.rebase(ref)
            adds = _single_adds(ref, sweep_pool)
            batched = delta.batch(adds)
            assert [delta.workload_cost(c) for c in adds] == batched
            whatif.clear_cache()
            assert [whatif.workload_cost(wl, c) for c in adds] == batched
            assert whatif.workload_cost(wl, ref) == ref_cost

    def test_a_repeated_sweep_does_no_new_work(self, sweep_rig):
        """Costing a pool twice against one reference evaluates no
        plan, no kernel lane and no optimizer call the second time; and
        the first sweep only resolves what it had to — the pairs the
        candidate's probe does not strictly lose (winners, ties) or
        cannot decide (maintenance statements) — while every loser is
        a reused reference term."""
        from repro.optimizer.access_paths import cost_access
        from repro.workload.query import SelectQuery

        whatif, wl, base, pool, db = sweep_rig
        ref = base.add(pool[0])
        candidates = [ix for ix in pool if ix not in ref]
        adds = [ref.add(ix) for ix in candidates]
        delta = whatif.delta_coster(wl)
        delta.rebase(ref)
        before = delta.stats()
        first = delta.batch(adds)
        swept = delta.stats()

        losers = resolved = 0
        constants = whatif.coster.constants
        for ix in candidates:
            heap = ref.base_structure(ix.table)
            for ws in wl:
                stmt = ws.statement
                if isinstance(stmt, SelectQuery):
                    if ix.table not in stmt.tables:
                        continue
                    plan = cost_access(
                        ix, *whatif._sizes(ix),
                        stmt.predicates_of_table(db, ix.table),
                        stmt.columns_of_table(db, ix.table),
                        whatif.stats.table(ix.table), constants,
                        base_lookup=(heap, whatif._sizes(heap)[0]),
                    )
                    chosen = whatif.cost_with_plans(stmt, ref)[1][
                        stmt.tables.index(ix.table)
                    ]
                    if plan is None or plan.cost > chosen:
                        losers += 1
                        continue
                elif stmt.table != ix.table:
                    continue
                resolved += 1
        assert losers > 0 and resolved > 0
        assert swept["reused_terms"] - before["reused_terms"] == losers
        assert sum(
            swept[key] - before[key] for key in
            ("patched_terms", "patched_maintenance", "full_recosts")
        ) == resolved

        lanes, calls = whatif.kernel.lanes_total, whatif.optimizer_calls
        assert delta.batch(adds) == first
        again = delta.stats()
        assert again["probe_evals"] == swept["probe_evals"]
        assert again["probe_entries"] == swept["probe_entries"]
        assert whatif.kernel.lanes_total == lanes
        assert whatif.optimizer_calls == calls
