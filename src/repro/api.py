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
service's jobs and the sweep's units run through a session too.

For callers that genuinely want the one-shot functional form (explicit
estimators — mostly tests and benchmarks), this module
also exports it: ``repro.api.tune`` / ``tune_decoupled`` / ``run_sweep``.

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
