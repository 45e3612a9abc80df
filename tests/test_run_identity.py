"""One identity harness for the advisor's entry points.

Every way of asking for a recommendation — ``Session.tune``, a served
``tune`` job, a one-unit sweep, a cold served ``retune`` — is the same
:meth:`repro.advisor.retune.TuningSession._run` call and must serialize to the
same bytes, with or without a persistent cache directory; and a retune
is the same retune (diff *and* event stream) whether the library or the
service runs it.

A run is prepare + search, and a session, a sweep or a service context
that holds the prepared stage searches it again: the second half of
this module holds every such reuse — same request, another budget,
another algorithm, a retune chain, an N-budget sweep, a run after an
aborted one, served jobs through one context — to the result *and*
event stream of a run that prepared its own, and counts the work the
reuse did not repeat.
"""

import gc
import json
import weakref
from dataclasses import fields

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
from repro.api import Session, run_sweep
from repro.datasets.sales import sales_database, sales_workload
from repro.errors import AdvisorError, JobCancelled
from repro.parallel.cache import CostCache, EstimationCache
from repro.parallel.engine import fork_available
from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED
from repro.service.context import ServiceContext, serialize_result
from repro.stats import DatabaseStats
from repro.workload.drift import DriftSpec, drift_phase
from repro.workload.query import Workload

#: (variant, budget fraction, sampling seed)
CASES = [
    ("dtac-none", 0.15, DEFAULT_SAMPLE_SEED),
    ("dtac-both", 0.1, 7),
]
#: extreme enough that phase 0 -> 2 strands part of the phase-0
#: recommendation (the scenario tests/test_retune.py pins).
DRIFT = dict(seed=0, hot_fraction=0.2, hot_weight=20.0, cold_weight=0.01)


@pytest.fixture(scope="module")
def inputs():
    db = sales_database(scale=0.02)
    return db, sales_workload(db), DatabaseStats(db)


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


def _assert_nothing_repeated(result, entries_before: int) -> None:
    """The saving of a run over a held stage, as counts: every plan
    evaluation made a *new* plan-table entry (none the stage already
    held was evaluated again), the first reference came from the
    tables, and the estimate cache was not even asked."""
    delta = result.delta_stats
    if delta:
        assert delta["probe_evals"] == \
            delta["probe_entries"] - entries_before
        assert delta["full_recosts"] == 0
    lookups = result.cache_stats
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

    # Same request again: same bytes, same stream, and nothing — not
    # one plan, optimizer call or estimate lookup — is done twice.
    again = held.run("tune", b1)
    assert again[:2] == first[:2]
    _assert_nothing_repeated(again[2], entries)
    assert again[2].delta_stats.get("probe_evals", 0) == 0
    assert again[2].optimizer_calls == 0
    assert again[2].kernel_stats["lanes_total"] == 0

    def fresh(budget, **extra):
        return _Recorded(inputs, cache_dir, delta_costing=delta).run(
            "tune", budget, **extra
        )

    other = held.run("tune", b2)
    assert other[:2] == fresh(b2)[:2]
    _assert_nothing_repeated(other[2], entries)
    for name in algorithms.names():
        entries = len(stage.tables.probes) if delta else 0
        searched = held.run("tune", b1, algorithm=name)
        assert searched[:2] == fresh(b1, algorithm=name)[:2], name
        _assert_nothing_repeated(searched[2], entries)
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
        retuned = chain.run("retune", workload=phases[k])
        seeded = _Recorded(inputs, cache_dir, workload=None,
                           budget_fraction=0.15, delta_costing=delta,
                           configuration=previous)
        seeded.session.generation = generation
        expected = seeded.run("retune", workload=phases[k])
        assert retuned[:2] == expected[:2], f"phase {k}"
        assert (retuned[2].dropped, retuned[2].added, retuned[2].kept) \
            == (expected[2].dropped, expected[2].added, expected[2].kept)
        _assert_nothing_repeated(retuned[2].result, entries)
    assert chain.stage is stage
    assert chain.samplecf_runs() == samplecf


SWEEP_SEEDS = (DEFAULT_SAMPLE_SEED, 7)


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
        # The next run gets its own hook: a stage holds none.
        hook.events = None
        events: list = []
        session.progress = events.append
        result = session.tune(budget)
        assert _canon(serialize_result(result)) == expected[0], n
        assert events == stream, n
        if kept is not None:
            assert session.stage is kept
            assert result.cache_stats["misses"] == 0


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


def _assert_reused(recorded, stage, result, entries_before) -> None:
    assert recorded.stage is stage
    _assert_nothing_repeated(result, entries_before)


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
    assert getattr(_default_options(budget), name) != OTHER_VALUE[name]
    args = () if name == "budget_bytes" else (budget,)
    result = recorded.run("tune", *args, **{name: OTHER_VALUE[name]})[2]
    if name in SEARCH_ONLY_OPTIONS:
        _assert_reused(recorded, stage, result, entries)
    else:
        _assert_prepared_anew(recorded, stage, result, len(inputs[1]))


def test_stage_reuse_follows_statements_and_seed_not_weights(inputs, keyed):
    recorded, budget = keyed
    wl = inputs[1]
    recorded.run("tune", budget, workload=wl)
    stage, entries = recorded.stage, len(recorded.stage.tables.probes)
    reweighted = wl.reweighted(select_weight=3.0, update_weight=0.5)
    assert stage_key(reweighted, _default_options(budget), SEED) \
        == stage.key
    result = recorded.run("tune", budget, workload=reweighted)[2]
    _assert_reused(recorded, stage, result, entries)

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
