"""The names the ledger wraps are the names that run.

``benchmarks/ledger/layers.py`` books ``advisor.sweep`` on
``repro.api._run_sweep`` and ``advisor.retune`` on
``repro.advisor.retune.TuningSession.retune``, by name.  Its smoke test
catches a wrapped name that no longer exists; these catch one that
still exists but is no longer called — by the library or by the
service.  The wrapped names that must stay uncalled are
``DeltaWorkloadCoster``'s ``improvement_cap``, ``improvement_possible``
and ``register_universe``: one no-op kept for the wrap list.
"""

import pytest

from repro import api
from repro.advisor.retune import TuningSession
from repro.advisor import algorithms
from repro.datasets.sales import sales_database, sales_workload
from repro.optimizer.delta import DeltaWorkloadCoster
from repro.parallel.engine import fork_available
from repro.service.context import ServiceContext

VARIANT = "dtac-none"
FRACTION = 0.15


@pytest.fixture(scope="module")
def inputs():
    db = sales_database(scale=0.02)
    return db, sales_workload(db)


def _spy(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` by a pass-through that records each call."""
    calls: list = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("workers", [
    1,
    pytest.param(2, marks=pytest.mark.skipif(not fork_available(),
                                             reason="needs fork")),
])
def test_library_and_served_sweeps_call_api_run_sweep(
    inputs, monkeypatch, two_cpus, workers
):
    """Two units, so at ``workers=2`` each runs on a session built
    inside a forked worker."""
    db, wl = inputs
    calls = _spy(monkeypatch, api, "_run_sweep")
    total = db.total_data_bytes()
    budgets = [total * 0.1, total * FRACTION]
    library = api.Session(db, wl, variant=VARIANT).sweep(
        budgets, workers=workers
    )
    assert calls == ["_run_sweep"]
    assert library.workers == workers
    served = ServiceContext("sales", db, wl).run_sweep(
        {"variant": VARIANT, "budget_bytes": budgets}, workers=workers
    )
    assert calls == ["_run_sweep"] * 2
    assert [run["result"]["configuration"] for run in served["runs"]] == [
        sorted(ix.display_name() for ix in run.result.configuration)
        for run in library.runs
    ]


def test_library_and_served_retunes_call_session_retune(inputs, monkeypatch):
    db, wl = inputs
    calls = _spy(monkeypatch, TuningSession, "retune")
    session = api.Session(db, wl, variant=VARIANT, budget_fraction=FRACTION)
    session.tune()
    library = session.retune()
    assert calls == ["retune"]
    context = ServiceContext("sales", db, wl)
    payload = {"variant": VARIANT, "budget_fraction": FRACTION}
    cold = context.run_tune(payload)
    served = context.run_retune({
        **payload, "from_config": cold["result"]["indexes"],
        "generation": 2,
    })
    assert calls == ["retune"] * 2
    assert served["retune"]["generation"] == library.generation == 2
    assert served["result"]["configuration"] == sorted(
        ix.display_name() for ix in library.configuration
    )


def test_no_search_calls_the_improvement_cap_stub(inputs, monkeypatch):
    """Every registered algorithm and the retune search, with
    backtracking on (the ``dtac-both`` variant), over delta costing,
    calls none of the no-op's three names."""
    db, wl = inputs
    calls = [
        _spy(monkeypatch, DeltaWorkloadCoster, name)
        for name in ("improvement_cap", "improvement_possible",
                     "register_universe")
    ]
    session = api.Session(db, wl, variant="dtac-both",
                          budget_fraction=FRACTION)
    for name in algorithms.names():
        session.tune(algorithm=name)
        session.retune(algorithm=name)
    assert calls == [[], [], []]
