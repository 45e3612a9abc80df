"""`repro.api` — the one public entry point for tuning.

The free functions (``tune``, ``tune_decoupled``, ``run_sweep``) have
three overlapping signatures, each re-plumbing database, workload,
stats, caches, and variant on every call.  :class:`Session` owns that
context once — database, workload, variant + option defaults, shared
:class:`DatabaseStats`, persistent (or in-memory) estimate/cost caches,
and the previous configuration — and exposes every tuning mode as a
method:

* :meth:`Session.tune` — one cold advisor run.
* :meth:`Session.retune` — incremental continuous-tuning run from the
  previous configuration (drop decayed structures, greedy re-fill).
* :meth:`Session.tune_decoupled` — the paper's staged
  select-then-compress strawman (Example 1/2).
* :meth:`Session.sweep` — sharded budget sweep / seed ablation.

``tune``, ``retune`` and every ``sweep`` unit are the same advisor
invocation, :func:`repro.advisor.retune.run_isolated` (prepare — over an
estimator drawn with the session's ``seed`` — then search), and
``tune_decoupled`` borrows its estimator wiring; what the modes vary is
the cache objects and the held stage they hand it — the session's live
caches and its latest prepared stage (so ``tune`` again, at another
budget, or a ``retune`` onto reweighted statements only searches), or
for ``sweep`` one stage per seed over a fork view of the caches under
the session's ``cache_dir``.

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

from repro.advisor.advisor import (
    AdvisorResult,
    _tune,
    _tune_decoupled,
    get_variant,
)
from repro.advisor.retune import (
    RetuneResult,
    TuningSession,
    seeded_estimator,
)
from repro.advisor.sweep import SweepResult, _run_sweep
from repro.compression.base import CompressionMethod
from repro.workload.query import Workload

#: the functional one-shot forms.
tune = _tune
tune_decoupled = _tune_decoupled
run_sweep = _run_sweep

__all__ = [
    "Session",
    "RetuneResult",
    "SweepResult",
    "TuningSession",
    "run_sweep",
    "tune",
    "tune_decoupled",
]


class Session(TuningSession):
    """Facade session: :class:`TuningSession` (tune/retune + session
    state) extended with the remaining public tuning modes."""

    def tune_decoupled(
        self,
        budget_bytes: float | None = None,
        *,
        budget_fraction: float | None = None,
        workload: Workload | None = None,
        method: CompressionMethod = CompressionMethod.PAGE,
        **extra,
    ) -> AdvisorResult:
        """The staged strawman of Example 1/2: select indexes without
        considering compression, then blindly compress everything
        selected.  Does not advance the session's configuration — it is
        a comparison arm, not a deployable recommendation."""
        workload = self._resolve_workload(workload)
        budget = self._resolve_budget(budget_bytes, budget_fraction)
        extra = {**self.options_extra, **extra}
        return _tune_decoupled(
            self.database,
            workload,
            budget,
            estimator=seeded_estimator(
                self.database,
                get_variant("dta").advisor_options(budget, **extra),
                seed=self.seed,
                stats=self.stats,
                estimates=self.estimates,
            ),
            stats=self.stats,
            method=method,
            **extra,
        )

    def sweep(
        self,
        budgets,
        *,
        seeds=None,
        workers: int = 1,
        workload: Workload | None = None,
        **extra,
    ) -> SweepResult:
        """Sharded budget sweep / seed ablation over this session's
        context (database, variant, stats, cache directory; ``seeds``
        defaults to the session's), ``workers`` advisor runs in flight
        at once.  Does not advance the session's configuration — a
        sweep is many hypothetical runs, not one deployment decision."""
        workload = self._resolve_workload(workload)
        return _run_sweep(
            self.database,
            workload,
            budgets,
            seeds=seeds or (self.seed,),
            variant=self.variant,
            workers=workers,
            cache_dir=self.cache_dir,
            stats=self.stats,
            progress=self.progress,
            **{**self.options_extra, **extra},
        )
