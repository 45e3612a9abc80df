"""One identity harness for the advisor's entry points.

Every way of asking for a recommendation — ``Session.tune``, a served
``tune`` job, a one-unit sweep, a cold served ``retune`` — is the same
:func:`repro.advisor.retune.run_isolated` call and must serialize to the
same bytes, with or without a persistent cache directory; and a retune
is the same retune (diff *and* event stream) whether the library or the
service runs it.
"""

import json

import pytest

from repro.api import Session, run_sweep
from repro.datasets.sales import sales_database, sales_workload
from repro.parallel.cache import CostCache, EstimationCache
from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED
from repro.service.context import ServiceContext, serialize_result
from repro.stats import DatabaseStats
from repro.workload.drift import DriftSpec, drift_phase

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


def _context(inputs, cache_dir=None) -> ServiceContext:
    db, wl, stats = inputs
    cached = cache_dir is not None
    return ServiceContext(
        "sales", db, wl, stats=stats, cache_dir=cache_dir,
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
