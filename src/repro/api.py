"""`repro.api` — the one public entry point for tuning.

:class:`Session` is :class:`repro.advisor.retune.TuningSession`: it owns
the context of every run once — database, workload, variant + option
defaults, shared :class:`DatabaseStats`, the estimate/cost caches, the
latest prepared stage and the previous configuration — and exposes
every tuning mode as a method:

* :meth:`Session.tune` — one cold advisor run.
* :meth:`Session.retune` — incremental continuous-tuning run from the
  previous configuration (drop decayed structures, greedy re-fill).
* :meth:`Session.tune_decoupled` — the paper's staged
  select-then-compress strawman (Example 1/2).
* :meth:`Session.sweep` — sharded budget sweep / seed ablation.

Its docstring is the determinism contract of every entry point — the
service's jobs, the sweep's units and the paper's experiments run
through a session too.

This module also exports the one-shot functional forms ``repro.api.tune``
/ ``tune_decoupled`` (explicit estimators) and ``run_sweep``.  Nothing in
the library or the experiments calls the first two: they are references
the tests and benchmarks compare sessions against.

Example::

    from repro.api import Session
    from repro import sales_database, sales_workload

    db = sales_database(scale=0.1)
    session = Session(db, sales_workload(db), budget_fraction=0.25)
    cold = session.tune()
    ...                      # workload drifts
    delta = session.retune(workload=new_workload)
    print(delta.dropped, delta.added)
"""

from __future__ import annotations

from repro.advisor.advisor import _tune, _tune_decoupled
from repro.advisor.retune import RetuneResult, TuningSession
from repro.advisor.sweep import SweepResult, _run_sweep

#: the functional one-shot forms.
tune = _tune
tune_decoupled = _tune_decoupled
run_sweep = _run_sweep

#: the session: one class under both names.
Session = TuningSession

__all__ = [
    "Session",
    "RetuneResult",
    "SweepResult",
    "TuningSession",
    "run_sweep",
    "tune",
    "tune_decoupled",
]
