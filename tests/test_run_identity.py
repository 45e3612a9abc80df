"""The one home of run-level identity: a recommendation is a pure
function of its inputs.

Every way of asking for a recommendation — ``Session.tune``,
``api.tune``, a served ``tune`` job, a one-unit sweep, a cold served
``retune`` — is the same :meth:`repro.advisor.retune.TuningSession._run`
call and must serialize to the same bytes, with or without a persistent
cache directory; and a retune is the same retune (diff *and* event
stream) whether the library or the service runs it.

The identity matrix: each case (dataset shape, variant, algorithm,
options) has one reference — ``Session.tune`` with delta costing, in
memory, in this process — and legs that must reproduce its bytes:
``api.tune``, a repeat on the same session, delta costing off, a cold
then a warm cache directory, sweep units at one and two workers, and
one interpreter per ``PYTHONHASHSEED``.  A case runs only the legs some
guarantee needs, not the full cross product.

A run is prepare + search, and a session, a sweep or a service context
that holds the prepared stage searches it again: the second half of
this module holds every such reuse — same request, another budget,
another algorithm, a retune chain, an N-budget sweep, a run after an
aborted one, served jobs through one context — to the result *and*
event stream of a run that prepared its own, and counts the work the
reuse did not repeat.
"""

import functools
import gc
import itertools
import json
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import NamedTuple

import pytest

from repro.advisor import algorithms
from repro.advisor.advisor import (
    POOL_SHAPING_OPTIONS,
    SEARCH_ONLY_OPTIONS,
    AdvisorOptions,
    TuningAdvisor,
    get_variant,
    stage_key,
)
from repro.advisor.retune import retune_sequence
from repro.api import Session, run_sweep, tune
from repro.datasets.sales import sales_database, sales_workload
from repro.errors import AdvisorError, JobCancelled
from repro.parallel.cache import CostCache, EstimationCache
from repro.parallel.engine import fork_available
from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED, SampleManager
from repro.service.context import ServiceContext, serialize_result
from repro.sizeest import SizeEstimator
from repro.stats import DatabaseStats
from repro.workload.drift import DriftSpec, drift_phase
from repro.workload.parser import parse_statement
from repro.workload.query import Workload
from tests.test_delta_costing import update_heavy_workload
from tests.test_retune import _fingerprint

#: (variant, budget fraction, sampling seed)
CASES = [
    ("dtac-none", 0.15, DEFAULT_SAMPLE_SEED),
    ("dtac-both", 0.1, 7),
]
#: extreme enough that phase 0 -> 2 strands part of the phase-0
#: recommendation (the scenario tests/test_retune.py pins).
DRIFT = dict(seed=0, hot_fraction=0.2, hot_weight=20.0, cold_weight=0.01)


def _marginal_weight_workload(db) -> Workload:
    """Four sales SELECTs beside customers statements worth almost
    nothing, so every customers candidate's improvement sits under a
    coarse greedy threshold, next to an UPDATE whose term no sweep
    reuses."""
    wl = Workload()
    for ws in sales_workload(db).queries[:4]:
        wl.add(ws.statement, weight=ws.weight, name=ws.name)
    wl.add(parse_statement(
        "SELECT cu_name FROM customers WHERE cu_segment = 'SMALLBIZ'"),
        weight=0.01, name="CUST_MARGINAL")
    wl.add(parse_statement(
        "UPDATE customers SET cu_segment = 'X' "
        "WHERE cu_segment = 'SMALLBIZ'"),
        weight=0.01, name="CUST_UPD")
    return wl


def _maintenance_first_workload(db) -> Workload:
    """The update-heavy mix with its maintenance statements ahead of
    the SELECTs: the first statement on ``sales`` and ``customers`` is
    one whose term no sweep reuses, so every sweep on those tables
    meets it before any SELECT."""
    wl = update_heavy_workload(sales_workload(db))
    return Workload([*wl.updates, *wl.queries])


#: dataset shape -> (sales scale, workload of that database)
SHAPES = {
    "sales@0.02": (0.02, sales_workload),
    "sales@0.03": (0.03, sales_workload),
    "sales@0.1": (0.1, sales_workload),
    "update-heavy@0.03": (
        0.03, lambda db: update_heavy_workload(sales_workload(db))
    ),
    "maintenance-first@0.03": (0.03, _maintenance_first_workload),
    "marginal-weight@0.03": (0.03, _marginal_weight_workload),
}


class Shapes(dict):
    """Dataset shape name -> ``(database, workload, stats)``, each built
    on first use."""

    def __missing__(self, name: str):
        scale, workload = SHAPES[name]
        db = sales_database(scale=scale)
        self[name] = built = (db, workload(db), DatabaseStats(db))
        return built


@pytest.fixture(scope="module")
def shapes():
    return Shapes()


@pytest.fixture(scope="module")
def inputs(shapes):
    return shapes["sales@0.02"]


def _context(inputs, cache_dir=None, workload=None) -> ServiceContext:
    db, wl, stats = inputs
    cached = cache_dir is not None
    return ServiceContext(
        "sales", db, workload or wl, stats=stats, cache_dir=cache_dir,
        estimation_cache=EstimationCache(cache_dir) if cached else None,
        cost_cache=CostCache(cache_dir) if cached else None,
    )


def _canon(serialized: dict) -> str:
    return json.dumps(serialized["result"], sort_keys=True)


@pytest.mark.parametrize("cached", [False, True], ids=["memory", "cache_dir"])
@pytest.mark.parametrize("variant, fraction, seed", CASES)
def test_entry_points_serialize_identically(
    inputs, tmp_path, variant, fraction, seed, cached
):
    """One shared cache directory on the cached leg, so each entry
    point also runs warm off what the previous one persisted."""
    db, wl, stats = inputs
    cache_dir = str(tmp_path) if cached else None
    budget = db.total_data_bytes() * fraction
    payload = {"variant": variant, "budget_bytes": budget, "seed": seed}
    session = Session(db, wl, variant=variant, seed=seed, stats=stats,
                      cache_dir=cache_dir)
    got = {"Session.tune": _canon(serialize_result(session.tune(budget)))}
    if not cached:  # api.tune takes no cache directory
        estimator = SizeEstimator(db, stats=stats,
                                  manager=SampleManager(db, seed=seed))
        got["api.tune"] = _canon(serialize_result(
            tune(db, wl, budget, variant=variant, estimator=estimator)
        ))
    got["run_tune"] = _canon(_context(inputs, cache_dir).run_tune(payload))
    sweep = run_sweep(db, wl, [budget], seeds=[seed], variant=variant,
                      stats=stats, cache_dir=cache_dir)
    got["run_sweep"] = _canon(serialize_result(sweep.runs[0].result))
    got["cold run_retune"] = _canon(
        _context(inputs, cache_dir).run_retune(payload)
    )
    assert set(got.values()) == {got["Session.tune"]}, [
        name for name, value in got.items()
        if value != got["Session.tune"]
    ]


@pytest.mark.parametrize("variant, fraction, seed", CASES)
def test_library_and_served_retune_agree(inputs, variant, fraction, seed):
    """From the same previous configuration onto the same drift phase:
    same result, same diff, same event sequence."""
    db, wl, stats = inputs
    library_events, served_events = [], []
    session = Session(db, variant=variant, seed=seed, stats=stats,
                      budget_fraction=fraction,
                      progress=library_events.append)
    spec = DriftSpec(**DRIFT)
    cold = session.tune(workload=drift_phase(wl, spec, 0))
    library_events.clear()
    library = session.retune(workload=drift_phase(wl, spec, 2))

    served = _context(inputs).run_retune(
        {
            "variant": variant, "budget_fraction": fraction, "seed": seed,
            # what the job tier carries forward from a finished job
            "from_config": serialize_result(cold)["result"]["indexes"],
            "generation": library.generation,
            "drift": {"phase": 2, **DRIFT},
        },
        progress=served_events.append,
    )
    assert _canon(served) == _canon(serialize_result(library.result))
    assert served["retune"] == {
        "generation": library.generation,
        "config_changed": library.config_changed,
        "dropped": [ix.display_name() for ix in library.dropped],
        "added": [ix.display_name() for ix in library.added],
        "kept": [ix.display_name() for ix in library.kept],
        "drift": {"phase": 2, "spec": spec.to_dict()},
    }
    assert served_events == library_events
    assert served_events[-1]["event"] == "config_changed"
    if variant == "dtac-none":
        # the pinned scenario: the phase shift does strand structures
        assert library.dropped
        assert [e["event"] for e in served_events[-3:]] == \
            ["dropped", "added", "config_changed"]


# ----------------------------------------------------------------------
# the identity matrix: one reference per case, and the legs that must
# reproduce its bytes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Case:
    """A dataset shape (a key of ``SHAPES``), a variant, a budget
    fraction, an algorithm, search options and a sampling seed.  A
    ``drift`` case runs a tune onto drift phase 0, then a retune onto
    phase 2, in place of one tune."""

    shape: str
    variant: str
    fraction: float = 0.15
    algorithm: str = algorithms.DEFAULT_ALGORITHM
    options: tuple = ()
    seed: int = DEFAULT_SAMPLE_SEED
    drift: bool = False


SWEEP_SEEDS = (DEFAULT_SAMPLE_SEED, 7)
SWEEP_FRACTIONS = (0.1, 0.2)
COARSE = (("min_improvement", 0.05),)

MATRIX = {
    **{name: Case("sales@0.03", "dtac-both", algorithm=name)
       for name in algorithms.names()},
    # again at sales 0.02, where a structure-order leak into the
    # optimizer's float sums shows that sales 0.03 hides (hash-seed leg)
    **{f"{name}@0.02": Case("sales@0.02", "dtac-both", algorithm=name)
       for name in algorithms.names()},
    "dtac-none@0.02": Case("sales@0.02", "dtac-none"),
    "dta": Case("sales@0.03", "dta"),
    "update-heavy": Case("update-heavy@0.03", "dtac-both"),
    "maintenance-first": Case("maintenance-first@0.03", "dtac-both"),
    "coarse": Case("sales@0.03", "dtac-none", options=COARSE),
    "coarse-backtracking": Case("sales@0.1", "dtac-both", 0.2,
                                options=COARSE),
    "marginal-weight-unpruned": Case("marginal-weight@0.03", "dtac-none",
                                     0.2, options=COARSE),
    "drift": Case("sales@0.02", "dtac-none", drift=True),
    # the units of the sweep legs (dtac-none's full-recost cells too)
    **{f"sweep-{seed}-{fraction}": Case("sales@0.03", "dtac-none",
                                        fraction, seed=seed)
       for seed in SWEEP_SEEDS for fraction in SWEEP_FRACTIONS},
}
ALGORITHM_CASES = algorithms.names()
FUNCTIONAL_CASES = [*ALGORITHM_CASES, "dtac-none@0.02"]
SWEEP_CASES = [name for name in MATRIX if name.startswith("sweep-")]
#: the sweep units' full-recost leg is a sweep.
FULL_RECOST_CASES = [
    *ALGORITHM_CASES, "greedy-backtrack@0.02", "dtac-none@0.02", "dta",
    "update-heavy", "maintenance-first", "coarse", "coarse-backtracking",
    "marginal-weight-unpruned", "drift",
]
#: where the full-recost leg also holds what delta costing is for: at
#: most 1/50 of the optimizer calls (48 against 4,069 for dta to
#: 25,480 for dtac-both here).
FIFTY_FOLD = ("greedy-backtrack", "greedy-backtrack@0.02", "dtac-none@0.02",
              "dta", *SWEEP_CASES)
#: where most statements are maintenance, and plan patching carries them.
WRITE_HEAVY = ("update-heavy", "maintenance-first")


class Run(NamedTuple):
    canon: str
    results: list
    session: Session


def _run(shapes: Shapes, case: Case, session: Session | None = None,
         **session_kwargs) -> Run:
    """``case`` on ``session``, or on a fresh one built with
    ``session_kwargs``."""
    db, wl, stats = shapes[case.shape]
    if session is None:
        session = Session(db, wl, variant=case.variant, seed=case.seed,
                          stats=stats, **session_kwargs)
    budget = db.total_data_bytes() * case.fraction
    if case.drift:
        spec = DriftSpec(**DRIFT)
        runs = retune_sequence(
            session, [drift_phase(wl, spec, k) for k in (0, 2)],
            budget_bytes=budget,
        )
        return Run(json.dumps(_fingerprint(runs), sort_keys=True),
                   [getattr(run, "result", run) for run in runs], session)
    result = session.tune(budget, algorithm=case.algorithm,
                          **dict(case.options))
    return Run(_canon(serialize_result(result)), [result], session)


def digests() -> dict:
    """Every case's bytes, as each hash-seed interpreter prints them."""
    shapes = Shapes()
    return {name: _run(shapes, case).canon for name, case in MATRIX.items()}


@pytest.fixture(scope="module")
def hashseed_digests(run_with_hashseed):
    """``digests()`` from two interpreters under different
    ``PYTHONHASHSEED`` values, run side by side."""
    script = ("import json\nfrom tests.test_run_identity import digests\n"
              "print(json.dumps(digests()))")
    with ThreadPoolExecutor(2) as pool:
        outs = pool.map(lambda seed: run_with_hashseed(script, seed),
                        ("5", "54321"))
        return [json.loads(out) for out in outs]


@pytest.fixture(scope="module")
def reference(shapes):
    """``reference(name)``: the case's run on a fresh session, with delta
    costing, in memory and in this process — made once per module."""
    return functools.lru_cache(maxsize=None)(
        lambda name: _run(shapes, MATRIX[name])
    )


@pytest.mark.parametrize("name", MATRIX)
def test_reference_holds_the_budget(reference, name):
    for result in reference(name).results:
        assert result.consumed_bytes <= result.budget_bytes + 1e-6
        assert result.final_cost <= result.base_cost


@pytest.mark.parametrize("name", FUNCTIONAL_CASES)
def test_functional_tune_equals_reference(shapes, reference, name):
    """``api.tune``, the default algorithm left implicit."""
    case = MATRIX[name]
    db, wl, _stats = shapes[case.shape]
    extra = dict(case.options)
    if case.algorithm != algorithms.DEFAULT_ALGORITHM:
        extra["algorithm"] = case.algorithm
    result = tune(db, wl, db.total_data_bytes() * case.fraction,
                  variant=case.variant, **extra)
    assert _canon(serialize_result(result)) == reference(name).canon


@pytest.mark.parametrize("name", ALGORITHM_CASES)
def test_repeat_on_the_session_equals_reference(shapes, reference, name):
    ref = reference(name)
    assert _run(shapes, MATRIX[name], ref.session).canon == ref.canon


@pytest.mark.parametrize("name", ALGORITHM_CASES)
def test_cold_then_warm_cache_dir_equal_reference(
    shapes, reference, tmp_path, name
):
    cold, warm = (_run(shapes, MATRIX[name], cache_dir=str(tmp_path))
                  for _ in range(2))
    assert cold.canon == warm.canon == reference(name).canon
    # The second run actually hit the persistent cost cache.
    assert warm.results[0].cost_cache_stats["hits"] > 0


def _assert_delta_costing_did_its_work(name, on, off) -> None:
    """Beside equal bytes: delta costing reused terms and pruned nothing
    on bounds, and a full recost keeps no delta statistics."""
    assert on.delta_stats["reused_terms"] > 0
    assert "pruned_bound" not in on.delta_stats
    assert off.delta_stats == {}
    if name in FIFTY_FOLD:
        assert on.optimizer_calls * 50 <= off.optimizer_calls
    if name in WRITE_HEAVY:
        assert on.delta_stats["patched_maintenance"] > 0


@pytest.mark.parametrize("name", FULL_RECOST_CASES)
def test_full_recost_equals_reference(shapes, reference, name):
    ref = reference(name)
    off = _run(shapes, MATRIX[name], delta_costing=False)
    assert off.canon == ref.canon
    for on_result, off_result in zip(ref.results, off.results):
        _assert_delta_costing_did_its_work(name, on_result, off_result)
    if name == "maintenance-first":
        wl = shapes[MATRIX[name].shape][1]
        assert not wl.statements[0].statement.is_select


NEEDS_FORK = pytest.mark.skipif(not fork_available(), reason="needs fork")


def _sweep(shapes, reference, seeds, workers, cache_dir=None, delta=True):
    """A dtac-none sweep over ``seeds`` and ``SWEEP_FRACTIONS``: seeds
    outer, budgets inner, and each unit is its case's reference."""
    db, wl, stats = shapes["sales@0.03"]
    units = list(itertools.product(seeds, SWEEP_FRACTIONS))
    result = run_sweep(
        db, wl, [db.total_data_bytes() * f for f in SWEEP_FRACTIONS],
        seeds=seeds, variant="dtac-none", stats=stats, workers=workers,
        cache_dir=cache_dir, delta_costing=delta,
    )
    assert [(run.seed, run.budget_bytes) for run in result.runs] == \
        [(seed, db.total_data_bytes() * f) for seed, f in units]
    for run, (seed, fraction) in zip(result.runs, units):
        name = f"sweep-{seed}-{fraction}"
        ref = reference(name)
        assert _canon(serialize_result(run.result)) == ref.canon
        if not delta:
            _assert_delta_costing_did_its_work(name, ref.results[0],
                                               run.result)
    return result


#: workers -> the seeds of the cold cache_dir sweep at that many workers
CACHED_SWEEP_SEEDS = {1: SWEEP_SEEDS[:1], 2: SWEEP_SEEDS}


@pytest.fixture(scope="module")
def cold_cached_sweep(shapes, reference, tmp_path_factory):
    """``cold_cached_sweep(workers)``: ``(sweep, cache_dir)`` for a cold
    cache_dir sweep at ``workers`` into a directory of its own — run
    once per module, on first call."""

    @functools.lru_cache(maxsize=None)
    def sweep(workers):
        cache_dir = tmp_path_factory.mktemp(f"sweep-cache-{workers}")
        return (_sweep(shapes, reference, CACHED_SWEEP_SEEDS[workers],
                       workers, cache_dir=str(cache_dir)),
                cache_dir)

    return sweep


@pytest.mark.parametrize("delta, cached, workers, seeds", [
    (True, False, 1, SWEEP_SEEDS),
    pytest.param(True, False, 2, SWEEP_SEEDS, marks=NEEDS_FORK),
    (True, True, 1, CACHED_SWEEP_SEEDS[1]),
    pytest.param(True, True, 2, CACHED_SWEEP_SEEDS[2], marks=NEEDS_FORK),
    (False, False, 1, SWEEP_SEEDS[:1]),
], ids=["delta-memory-1", "delta-memory-2", "delta-cache_dir-1",
        "delta-cache_dir-2", "full-recost-memory-1"])
def test_sweep_units_equal_references(
    shapes, reference, cold_cached_sweep, two_cpus, delta, cached,
    workers, seeds
):
    """A cache_dir sweep here is the cold one, into an empty
    directory."""
    if cached:
        cold, cache_dir = cold_cached_sweep(workers)
    else:
        cold = _sweep(shapes, reference, seeds, workers, delta=delta)
    # Sharded, the whole sweep is ONE engine map of run-level units.
    assert cold.engine_stats["parallel_maps"] == (workers > 1)
    if workers > 1:
        assert cold.engine_stats["tasks_dispatched"] == len(cold.runs)
    if delta:
        assert cold.delta_stats["reused_terms"] > 0
    else:
        assert cold.delta_stats == {}
    if cached:
        # Cold units see the empty pre-sweep snapshot: no hits.
        assert cold.cost_cache_stats["hits"] == 0
        assert cold.cost_cache_stats["stores"] > 0
        assert (cache_dir / "costs.json").exists()
        assert (cache_dir / "estimates.json").exists()


@pytest.mark.parametrize("workers", [
    1, pytest.param(2, marks=NEEDS_FORK),
])
def test_warm_sweep_after_a_cold_one_equals_references(
    shapes, reference, cold_cached_sweep, two_cpus, workers, monkeypatch
):
    """A one-worker sweep over what the cold sweep at ``workers``
    persisted reproduces every unit and costs nothing: both caches hit
    on every lookup, and no costing body runs in any unit's search —
    every configuration it asks for is read from the cost memo the
    cold units persisted.  So every unit's entries reached disk, and
    no save clobbered a sibling's."""
    _cold, cache_dir = cold_cached_sweep(workers)
    asked = _count_costings(monkeypatch)
    warm = _sweep(shapes, reference, CACHED_SWEEP_SEEDS[workers], 1,
                  cache_dir=str(cache_dir))
    assert warm.cost_cache_stats["hit_rate"] == 1.0
    assert warm.estimation_cache_stats["hit_rate"] == 1.0
    assert asked[0] == warm.delta_stats["cost_memo_hits"] > 0


@pytest.mark.parametrize("name", MATRIX)
def test_digest_is_independent_of_the_hash_seed(
    reference, hashseed_digests, name
):
    """Recommendations must not leak set/dict iteration order."""
    first, second = (digest[name] for digest in hashseed_digests)
    assert first == second
    assert first == reference(name).canon


# ----------------------------------------------------------------------
# prepare once, search many: a held stage against stages of their own
# ----------------------------------------------------------------------
VARIANT, SEED = "dtac-both", 7
#: the full-recost legs make ~50x the optimizer calls: they run the
#: variant with the smallest pool, over every third statement.
FULL_RECOST_VARIANT = "dtac-none"


def _workload(inputs, delta: bool) -> Workload:
    return inputs[1] if delta else Workload(list(inputs[1])[::3])
LEGS = pytest.mark.parametrize(
    "cached", [False, True], ids=["memory", "cache_dir"]
)
DELTA = pytest.mark.parametrize(
    "delta", [True, False], ids=["delta", "full-recost"]
)


class _Recorded:
    """A session whose runs are recorded: ``run(call)`` returns the
    canonical result section, the progress events of that run alone,
    and the result."""

    def __init__(self, inputs, cache_dir=None, **session_kwargs) -> None:
        db, _wl, stats = inputs
        self.events: list = []
        delta = session_kwargs.get("delta_costing", True)
        session_kwargs.setdefault("workload", _workload(inputs, delta))
        self.session = Session(
            db, variant=VARIANT if delta else FULL_RECOST_VARIANT,
            seed=SEED, stats=stats, cache_dir=cache_dir,
            progress=lambda event: self.events.append(event),
            **session_kwargs,
        )

    def run(self, method: str, *args, **kwargs):
        self.events = []
        result = getattr(self.session, method)(*args, **kwargs)
        advisor_result = getattr(result, "result", result)
        return (_canon(serialize_result(advisor_result)), self.events,
                result)

    @property
    def stage(self):
        return self.session.stage

    def samplecf_runs(self) -> int:
        return self.stage.estimator.runner.run_count


def _estimation_work(stage) -> "tuple[int, int]":
    """(SampleCF runs, compressed estimates held) of a stage's
    estimator: any estimate batch that does work grows one of them."""
    estimator = stage.estimator
    return (estimator.runner.run_count,
            sum(ix.method.is_compressed for ix in estimator._cache))


def _assert_nothing_repeated(result, entries_before: int,
                             work_before=None, stage=None) -> None:
    """The saving of a run over a held stage, as counts: every plan
    evaluation made a *new* plan-table entry (none the stage already
    held was evaluated again), the first reference came from the
    tables, and no estimation work was done — the stage's estimator
    (when the caller holds it) ran no SampleCF and sized nothing new,
    and with a cache directory the estimate cache was not even
    asked."""
    delta = result.delta_stats
    if delta:
        assert delta["probe_evals"] == \
            delta["probe_entries"] - entries_before
        assert delta["full_recosts"] == 0
    if stage is not None:
        assert _estimation_work(stage) == work_before
    lookups = result.cache_stats
    if lookups:
        assert lookups["hits"] + lookups["misses"] + lookups["stores"] == 0


def _budgets(inputs) -> "tuple[float, float]":
    total = inputs[0].total_data_bytes()
    return total * 0.1, total * 0.25


@LEGS
@DELTA
def test_reruns_over_a_held_stage_equal_fresh_sessions(
    inputs, tmp_path, delta, cached
):
    """``tune(b)`` twice; ``tune(b1)`` then ``tune(b2)``; every
    registered algorithm — all over the stage the first run prepared,
    each against a session that prepares its own."""
    cache_dir = str(tmp_path) if cached else None
    b1, b2 = _budgets(inputs)
    held = _Recorded(inputs, cache_dir, delta_costing=delta)
    first = held.run("tune", b1)
    stage, samplecf = held.stage, held.samplecf_runs()
    entries = first[2].delta_stats.get("probe_entries", 0)
    work = _estimation_work(stage)

    # Same request again: same bytes, same stream, and nothing — not
    # one plan, optimizer call or estimate lookup — is done twice.
    again = held.run("tune", b1)
    assert again[:2] == first[:2]
    _assert_nothing_repeated(again[2], entries, work, stage)
    assert again[2].delta_stats.get("probe_evals", 0) == 0
    assert again[2].optimizer_calls == 0
    assert again[2].kernel_stats["lanes_total"] == 0

    def fresh(budget, **extra):
        return _Recorded(inputs, cache_dir, delta_costing=delta).run(
            "tune", budget, **extra
        )

    other = held.run("tune", b2)
    assert other[:2] == fresh(b2)[:2]
    _assert_nothing_repeated(other[2], entries, work, stage)
    for name in algorithms.names():
        entries = len(stage.tables.probes) if delta else 0
        work = _estimation_work(stage)
        searched = held.run("tune", b1, algorithm=name)
        assert searched[:2] == fresh(b1, algorithm=name)[:2], name
        _assert_nothing_repeated(searched[2], entries, work, stage)
    assert held.stage is stage
    assert held.samplecf_runs() == samplecf


@LEGS
@DELTA
def test_retune_chain_over_one_stage_equals_seeded_sessions(
    inputs, tmp_path, delta, cached
):
    """tune -> retune(phase 1) -> retune(phase 2) on one session: each
    retune equals a fresh session's, seeded with the configuration and
    generation it starts from (drift moves weights, not statements, so
    the whole chain searches the stage the cold tune prepared)."""
    cache_dir = str(tmp_path) if cached else None
    spec = DriftSpec(**DRIFT)
    phases = [
        drift_phase(_workload(inputs, delta), spec, k) for k in range(3)
    ]
    chain = _Recorded(inputs, cache_dir, workload=None,
                      budget_fraction=0.15, delta_costing=delta)
    chain.run("tune", workload=phases[0])
    stage, samplecf = chain.stage, chain.samplecf_runs()
    for k in (1, 2):
        previous = chain.session.configuration
        generation = chain.session.generation
        entries = len(stage.tables.probes) if delta else 0
        work = _estimation_work(stage)
        retuned = chain.run("retune", workload=phases[k])
        seeded = _Recorded(inputs, cache_dir, workload=None,
                           budget_fraction=0.15, delta_costing=delta,
                           configuration=previous)
        seeded.session.generation = generation
        expected = seeded.run("retune", workload=phases[k])
        assert retuned[:2] == expected[:2], f"phase {k}"
        assert (retuned[2].dropped, retuned[2].added, retuned[2].kept) \
            == (expected[2].dropped, expected[2].added, expected[2].kept)
        _assert_nothing_repeated(retuned[2].result, entries, work, stage)
    assert chain.stage is stage
    assert chain.samplecf_runs() == samplecf


@pytest.mark.skipif(not fork_available(), reason="needs fork")
@pytest.mark.parametrize("delta, cached, workers", [
    (True, False, 1), (True, False, 2), (True, True, 1), (True, True, 2),
    # full recost: the diagonal of the matrix
    (False, False, 1), (False, True, 2),
], ids=["delta-memory-1", "delta-memory-2", "delta-cache_dir-1",
        "delta-cache_dir-2", "full-recost-memory-1",
        "full-recost-cache_dir-2"])
def test_n_budget_sweep_equals_one_budget_sweeps(
    inputs, tmp_path, two_cpus, delta, cached, workers
):
    """A sweep prepares once per seed (per process) and searches that
    stage at every budget; each unit equals the one-unit sweep that
    prepares for it alone, events included where units report them.
    (Cases: delta costing, cache_dir, workers.)"""
    db, _wl, stats = inputs
    wl = _workload(inputs, delta)
    budgets = _budgets(inputs)
    variant = VARIANT if delta else FULL_RECOST_VARIANT
    cache_dir = str(tmp_path / "many") if cached else None
    events: list = []
    many = run_sweep(
        db, wl, budgets, seeds=SWEEP_SEEDS, variant=variant, stats=stats,
        workers=workers, cache_dir=cache_dir, delta_costing=delta,
        progress=events.append,
    )
    assert many.workers == workers
    for i, run in enumerate(many.runs):
        alone_events: list = []
        alone = run_sweep(
            db, wl, [run.budget_bytes], seeds=[run.seed], variant=variant,
            stats=stats, delta_costing=delta,
            cache_dir=str(tmp_path / f"alone{i}") if cached else None,
            progress=alone_events.append,
        )
        assert _canon(serialize_result(run.result)) == \
            _canon(serialize_result(alone.runs[0].result)), i
        if workers == 1:
            assert [
                {**event, "unit": 0} for event in events
                if event.get("unit") == i and event["event"] != "sweep_unit"
            ] == [
                event for event in alone_events
                if event["event"] != "sweep_unit"
            ], i
    if workers == 1:
        # Units after a seed's first search the stage it prepared.
        for first, later in zip(many.runs[::2], many.runs[1::2]):
            assert first.seed == later.seed
            assert later.result.candidate_count == \
                first.result.candidate_count
            if cached:
                _assert_nothing_repeated(
                    later.result,
                    first.result.delta_stats.get("probe_entries", 0),
                )
    if cached:
        # Every lookup is counted once, in the unit that made it: the
        # warm sweep's first unit goes through both caches and misses
        # nothing, and the totals are the sum of what each unit did.
        warm = run_sweep(
            db, wl, budgets, seeds=SWEEP_SEEDS, variant=variant,
            stats=stats, workers=workers, cache_dir=cache_dir,
            delta_costing=delta,
        )
        for cold_run, warm_run in zip(many.runs, warm.runs):
            assert _canon(serialize_result(cold_run.result)) == \
                _canon(serialize_result(warm_run.result))
        for totals, per_unit in (
            (warm.estimation_cache_stats,
             [run.result.cache_stats for run in warm.runs]),
            (warm.cost_cache_stats,
             [run.result.cost_cache_stats for run in warm.runs]),
        ):
            assert per_unit[0]["hits"] >= 1 and per_unit[0]["misses"] == 0
            assert totals["hits"] == sum(u["hits"] for u in per_unit)
            assert totals["misses"] == 0
            assert totals["hit_rate"] == 1.0


class _AbortAt:
    """Progress hook that records events and raises
    :class:`JobCancelled` at the ``n``-th one (1-based), once."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.events: list = []

    def __call__(self, event: dict) -> None:
        self.events.append(event)
        if len(self.events) == self.n:
            self.n = 0
            raise JobCancelled("cancelled by the test")


@DELTA
def test_run_after_an_aborted_run_equals_a_fresh_session(inputs, delta):
    """A hook that raises while preparing leaves no stage behind; one
    that raises while searching leaves the stage reusable; either way
    the next run is a fresh session's, result and stream."""
    db, _wl, stats = inputs
    wl = _workload(inputs, delta)
    budget = _budgets(inputs)[0]
    expected = _Recorded(inputs, delta_costing=delta).run("tune", budget)
    stream = expected[1]
    phases = [e.get("phase") for e in stream]
    enumeration = phases.index("enumeration") + 1
    assert phases[:2] == ["candidates", "selection"]
    aborts = (1, 2, enumeration, enumeration + 2, len(stream))
    for n in aborts if delta else aborts[1::2]:
        hook = _AbortAt(n)
        session = Session(db, wl, seed=SEED, stats=stats, progress=hook,
                          variant=VARIANT if delta else FULL_RECOST_VARIANT,
                          delta_costing=delta)
        with pytest.raises(JobCancelled):
            session.tune(budget)
        assert hook.events == stream[:n]
        assert session.configuration is None and session.generation == 0
        # Events 1 and 2 arrive while preparing; from "enumeration" on
        # the stage is complete.
        assert (session.stage is None) == (n <= 2), n
        kept = session.stage
        work = _estimation_work(kept) if kept is not None else None
        # The next run gets its own hook: a stage holds none.
        hook.events = None
        events: list = []
        session.progress = events.append
        result = session.tune(budget)
        assert _canon(serialize_result(result)) == expected[0], n
        assert events == stream, n
        if kept is not None:
            assert session.stage is kept
            assert _estimation_work(kept) == work


# ----------------------------------------------------------------------
# the cost memo: what later searches over a held stage do not cost again
# ----------------------------------------------------------------------
def test_a_second_budget_over_the_held_memo_equals_a_cold_tune(inputs):
    """tune(0.1) then tune(0.2) on one session: the second search reads
    the costs the first one left, and is the cold tune at 0.2, result
    and event stream."""
    total = inputs[0].total_data_bytes()
    held = _Recorded(inputs)
    held.run("tune", total * 0.1)
    second = held.run("tune", total * 0.2)
    assert second[:2] == _Recorded(inputs).run("tune", total * 0.2)[:2]
    assert second[2].delta_stats["cost_memo_hits"] > 0


def test_a_tune_after_a_retune_equals_a_cold_tune(inputs):
    """tune -> retune(phase 1) -> tune on one session: the retune reads
    the tune's entries under its own weights, and the last tune, under
    the first weights again, is the cold tune, result and event
    stream."""
    spec = DriftSpec(**DRIFT)
    phases = [drift_phase(inputs[1], spec, k) for k in range(2)]

    def session():
        return _Recorded(inputs, workload=None, budget_fraction=0.15)

    held = session()
    held.run("tune", workload=phases[0])
    held.run("retune", workload=phases[1])
    last = held.run("tune", workload=phases[0])
    assert last[:2] == session().run("tune", workload=phases[0])[:2]


def test_a_rerun_costs_nothing_anew(inputs, monkeypatch):
    """The same request again: every costing that is not the reference
    itself is read from the memo, which gains no entry, and no plan is
    evaluated and no statement recosted."""
    budget = _budgets(inputs)[0]
    held = _Recorded(inputs)
    held.run("tune", budget)
    stored = len(held.stage.tables.cost_memo)
    asked = _count_costings(monkeypatch)
    delta = held.run("tune", budget)[2].delta_stats
    assert asked[0] > 0
    assert delta["cost_memo_hits"] == asked[0]
    assert delta["probe_evals"] == delta["full_recosts"] == 0
    assert len(held.stage.tables.cost_memo) == stored


def _count_costings(monkeypatch) -> list:
    """Count every ``workload_cost`` call that is not the reference
    itself — what the cost memo or a costing body answers — into the
    returned one-element list."""
    from repro.optimizer.delta import DeltaWorkloadCoster

    asked = [0]
    workload_cost = DeltaWorkloadCoster.workload_cost

    def counted(coster, config):
        ref = coster._ref_config
        asked[0] += ref is not None and config != ref
        return workload_cost(coster, config)

    monkeypatch.setattr(DeltaWorkloadCoster, "workload_cost", counted)
    return asked


def _count_evaluations(monkeypatch) -> list:
    """Count every per-query candidate evaluation (one call costs every
    candidate of every query) into the returned one-element list."""
    from repro.advisor import advisor

    calls = [0]
    evaluate = advisor.evaluate_candidates_batch

    def counted(*args, **kwargs):
        calls[0] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(advisor, "evaluate_candidates_batch", counted)
    return calls


@pytest.mark.parametrize("extra", [
    {}, dict(enable_partial=True, enable_mv=True),
], ids=["default", "partial-mv"])
def test_a_warm_prepare_reads_the_cold_ones_selection(
    inputs, tmp_path, monkeypatch, extra
):
    """A new session over a cache directory that a cold one prepared
    the same stage in builds that stage — the pool, the candidate
    count, the memo namespace — without costing one per-query
    candidate, and runs with the cold result and event stream, which
    are the in-memory run's.  With MV candidates in the pool, sizing
    draws MV samples: the warm prepare must not draw them otherwise."""
    budget = _budgets(inputs)[0]
    cache_dir = str(tmp_path)
    reference = _Recorded(inputs).run("tune", budget, **extra)
    cold = _Recorded(inputs, cache_dir)
    cold_run = cold.run("tune", budget, **extra)
    (selection,) = tmp_path.glob("selection-*.json")
    written = selection.read_bytes()
    evaluations = _count_evaluations(monkeypatch)
    warm = _Recorded(inputs, cache_dir)
    warm_run = warm.run("tune", budget, **extra)
    assert evaluations[0] == 0
    assert warm_run[:2] == cold_run[:2] == reference[:2]
    assert warm.stage.pool == cold.stage.pool
    assert warm.stage.candidate_count == cold.stage.candidate_count
    assert warm.stage.memo_file.namespace == \
        cold.stage.memo_file.namespace
    # The warm stage read the line and wrote none.
    assert selection.read_bytes() == written
    assert warm_run[2].cache_stats["hits"] > 0
    assert warm_run[2].cost_cache_stats["hits"] > 0


def _retuned(retune) -> tuple:
    """A recorded retune as what must repeat: result bytes, event
    stream and the dropped/added/kept diff."""
    canon, events, result = retune
    return canon, events, (result.dropped, result.added, result.kept)


def test_retunes_over_the_memo_equal_retunes_over_an_empty_one(inputs):
    """tune(phase 0), then retunes to phases 1, 2, 1, 2 on one session,
    each reading the raw totals the runs before it left under its own
    weights, equal the same retunes with the memo (raw totals and
    weighted costs) emptied before each: result, stream and diff."""
    spec = DriftSpec(**DRIFT)
    phases = [drift_phase(inputs[1], spec, k) for k in range(3)]

    def session():
        recorded = _Recorded(inputs, workload=None, budget_fraction=0.15)
        recorded.run("tune", workload=phases[0])
        return recorded

    held, emptied = session(), session()
    hits = []
    for k in (1, 2, 1, 2):
        tables = emptied.stage.tables
        tables.cost_memo.clear()
        tables.weighted_costs.clear()
        expected = emptied.run("retune", workload=phases[k])
        retuned = held.run("retune", workload=phases[k])
        assert _retuned(retuned) == _retuned(expected), f"phase {k}"
        hits.append(retuned[2].result.delta_stats["cost_memo_hits"])
    assert hits[2] > 0 and hits[3] > 0


def test_a_second_retune_cycle_costs_nothing_anew(inputs, monkeypatch):
    """The reuse cycle: reset one session to its phase-0 recommendation,
    retune through phases 1-4, twice.  The second cycle repeats the
    first, result, stream and diff, and every costing of it is read
    from the memo, which gains no entry; no plan is evaluated and no
    statement recosted."""
    phases = [drift_phase(inputs[1], DriftSpec(), k) for k in range(5)]
    held = _Recorded(inputs, workload=None, budget_fraction=0.15)
    held.run("tune", workload=phases[0])
    phase0 = held.session.configuration

    def cycle() -> list:
        held.session.configuration = phase0
        held.session.generation = 1
        return [held.run("retune", workload=phases[k]) for k in range(1, 5)]

    first = cycle()
    stored = len(held.stage.tables.cost_memo)
    asked = _count_costings(monkeypatch)
    second = cycle()
    assert [_retuned(r) for r in second] == [_retuned(r) for r in first]
    deltas = [r[2].result.delta_stats for r in second]
    assert asked[0] > 0
    assert sum(d["cost_memo_hits"] for d in deltas) == asked[0]
    assert all(d["probe_evals"] == d["full_recosts"] == 0 for d in deltas)
    assert len(held.stage.tables.cost_memo) == stored


def test_converging_seeded_starts_read_the_memo_on_tpch():
    """A cold tune's later seeded starts re-walk configurations the
    first one costed (the INSERT-heavy, skewed TPC-H mix)."""
    from repro.datasets.tpch import tpch_database, tpch_workload

    db = tpch_database(scale=0.1, z=1.0)
    wl = tpch_workload(db, select_weight=1, insert_weight=10)
    result = Session(db, wl, variant="dtac-both",
                     budget_fraction=0.2).tune()
    assert result.delta_stats["cost_memo_hits"] > 0


class _Served:
    """A service context whose jobs are recorded: ``run(kind, **fields)``
    returns the canonical envelope (everything but ``meta``), the
    progress events of that job alone, and the envelope."""

    def __init__(self, inputs, cache_dir=None, *, delta: bool) -> None:
        self.delta = delta
        self.context = _context(inputs, cache_dir, _workload(inputs, delta))

    def run(self, kind: str, **fields):
        payload = {
            "variant": VARIANT if self.delta else FULL_RECOST_VARIANT,
            "seed": SEED, "options": {"delta_costing": self.delta},
            **fields,
        }
        events: list = []
        out = getattr(self.context, f"run_{kind}")(
            payload, progress=events.append
        )
        canon = json.dumps(
            {key: value for key, value in out.items() if key != "meta"},
            sort_keys=True,
        )
        return canon, events, out


def _assert_served_from_the_stage(out: dict) -> None:
    """What a job over a held stage did not repeat, as the counts its
    ``meta`` carries: no full recost, no estimate lookup, and with delta
    costing no cost lookup either."""
    meta = out["meta"]
    if meta["delta_stats"]:
        assert meta["delta_stats"]["full_recosts"] == 0
    for stats in (meta["cache_stats"],
                  meta["cost_cache_stats"] if meta["delta_stats"] else {}):
        if stats:
            assert stats["hits"] + stats["misses"] == 0


SERVED_SEQUENCES = ("same", "budget", "retune", "seed")


@LEGS
@DELTA
@pytest.mark.parametrize("sequence", SERVED_SEQUENCES)
def test_served_jobs_over_a_held_stage_equal_fresh_contexts(
    inputs, tmp_path, sequence, delta, cached
):
    """Two jobs through one context — the same tune twice; a tune, then
    the same tune at another budget; a tune, then a retune onto drift
    phase 2; a tune at one seed, then at another — and the second
    against a fresh context's: envelope bytes and event stream.  The
    first three search the stage the first job prepared; the last
    replaces it, and the old stage is not kept beside the new one."""
    cache_dir = str(tmp_path) if cached else None
    b1, b2 = _budgets(inputs)
    served = _Served(inputs, cache_dir, delta=delta)
    first = served.run("tune", budget_bytes=b1)
    stage = served.context.session.stage
    assert stage is not None
    second_kind, second_fields = {
        "same": ("tune", dict(budget_bytes=b1)),
        "budget": ("tune", dict(budget_bytes=b2)),
        "retune": ("retune", dict(
            budget_bytes=b1, drift={"phase": 2, **DRIFT},
            from_config=first[2]["result"]["indexes"], generation=2,
        )),
        "seed": ("tune", dict(budget_bytes=b1, seed=SEED + 1)),
    }[sequence]
    second = served.run(second_kind, **second_fields)
    fresh = _Served(inputs, cache_dir, delta=delta).run(
        second_kind, **second_fields
    )
    assert second[:2] == fresh[:2]
    held = served.context.session.stage
    if sequence == "seed":
        assert held is not stage
        assert held.estimator.manager.seed == SEED + 1
        replaced = weakref.ref(stage)
        del stage
        gc.collect()
        assert replaced() is None
    else:
        assert held is stage
        _assert_served_from_the_stage(second[2])
    if sequence == "same":
        assert second[:2] == first[:2]


# ----------------------------------------------------------------------
# the stage key
# ----------------------------------------------------------------------
#: a second value for every AdvisorOptions field.
OTHER_VALUE = dict(
    budget_bytes=12345.0, algorithm="ibm", strategy="density",
    backtracking=False, min_improvement=1e-3, seed_fanout=2,
    enable_compression=False, candidate_selection="topk", top_k=3,
    enable_partial=True, enable_mv=True, enable_merging=False,
    compression_aware_merging=False, max_key_columns=3,
    skyline_cluster_max=5, e=0.25, q=0.8, delta_costing=False,
)


def _default_options(budget: float, **extra) -> AdvisorOptions:
    return get_variant(VARIANT).advisor_options(budget, **extra)


def test_every_advisor_option_is_classified():
    """A new AdvisorOptions field must say whether it shapes the pool
    (part of the stage key) or only the search, and get a second value
    here."""
    names = {f.name for f in fields(AdvisorOptions)}
    assert POOL_SHAPING_OPTIONS | SEARCH_ONLY_OPTIONS == names
    assert not POOL_SHAPING_OPTIONS & SEARCH_ONLY_OPTIONS
    assert set(OTHER_VALUE) == names


@pytest.fixture(scope="module")
def keyed(inputs):
    """One session with a prepared stage, and the budget it ran at."""
    budget = _budgets(inputs)[0]
    recorded = _Recorded(inputs)
    recorded.run("tune", budget)
    return recorded, budget


def _assert_reused(recorded, stage, result, entries_before,
                   work_before) -> None:
    assert recorded.stage is stage
    _assert_nothing_repeated(result, entries_before, work_before, stage)


def _assert_prepared_anew(recorded, stage, result, statements) -> None:
    assert recorded.stage is not stage
    assert recorded.stage.key != stage.key
    if result.delta_stats:
        # the first reference at least (more with an MV in scope)
        assert result.delta_stats["full_recosts"] >= statements
        assert result.delta_stats["probe_evals"] == \
            result.delta_stats["probe_entries"]
    else:
        assert result.optimizer_calls > 0


@pytest.mark.parametrize("name", sorted(OTHER_VALUE))
def test_stage_reuse_follows_the_option_class(inputs, keyed, name):
    recorded, budget = keyed
    recorded.run("tune", budget)  # back onto the default key
    stage, entries = recorded.stage, len(recorded.stage.tables.probes)
    work = _estimation_work(stage)
    assert getattr(_default_options(budget), name) != OTHER_VALUE[name]
    args = () if name == "budget_bytes" else (budget,)
    result = recorded.run("tune", *args, **{name: OTHER_VALUE[name]})[2]
    if name in SEARCH_ONLY_OPTIONS:
        _assert_reused(recorded, stage, result, entries, work)
    else:
        _assert_prepared_anew(recorded, stage, result, len(inputs[1]))


def test_stage_reuse_follows_statements_and_seed_not_weights(inputs, keyed):
    recorded, budget = keyed
    wl = inputs[1]
    recorded.run("tune", budget, workload=wl)
    stage, entries = recorded.stage, len(recorded.stage.tables.probes)
    work = _estimation_work(stage)
    reweighted = wl.reweighted(select_weight=3.0, update_weight=0.5)
    assert stage_key(reweighted, _default_options(budget), SEED) \
        == stage.key
    result = recorded.run("tune", budget, workload=reweighted)[2]
    _assert_reused(recorded, stage, result, entries, work)

    shorter = Workload(list(wl)[1:])
    result = recorded.run("tune", budget, workload=shorter)[2]
    _assert_prepared_anew(recorded, stage, result, len(shorter))
    stage = recorded.stage
    reordered = Workload(list(shorter)[::-1])
    result = recorded.run("tune", budget, workload=reordered)[2]
    _assert_prepared_anew(recorded, stage, result, len(shorter))

    stage = recorded.stage
    recorded.session.seed = SEED + 1
    try:
        result = recorded.run("tune", budget)[2]
    finally:
        recorded.session.seed = SEED
    _assert_prepared_anew(recorded, stage, result, len(shorter))
    assert recorded.stage.estimator.manager.seed == SEED + 1


def test_a_mismatched_stage_is_refused(inputs, keyed):
    """Callers pick stages by key; the advisor checks they did."""
    recorded, budget = keyed
    recorded.run("tune", budget, workload=inputs[1])
    with pytest.raises(AdvisorError, match="prepared stage"):
        TuningAdvisor(
            inputs[0], inputs[1],
            _default_options(budget, enable_merging=False),
            stage=recorded.stage,
        )
