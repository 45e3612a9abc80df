"""Sweep orchestration: a whole budget sweep / multi-seed ablation as
one job.

The paper's design experiments are dominated by *repeated* advisor runs
over the same workload — budget sweeps (Figures 12-17), sampling-seed
ablations, estimator comparisons.  This module shards them: the work
unit is an **entire advisor run**, and one :class:`ParallelEngine`
``map`` runs every (budget, seed) combination, ``workers`` at a time.
A run itself never forks — run granularity is the only grain at which
forked workers measurably pay (see README, "Parallelism").

``run_sweep`` returns byte-identical :class:`AdvisorResult`\\ s at any
worker count, each equal to ``Session(db, wl, seed=seed).tune(budget)``
on a fresh session, because every unit *is* such a call: a process
keeps one :class:`~repro.advisor.retune.TuningSession` per seed (see
there for the determinism contract), built on first use over the caches
as they stood *before the sweep started*.  A sweep's units differ in
seed and budget only, and a budget shapes nothing preparation builds,
so a seed's first unit in a process prepares and its later units there
search the same stage — a forked worker prepares once per seed it is
handed, never more often than a run-per-unit sweep would.  Whether a
unit runs in the parent (``workers=1``) or in a forked worker, it forks
the identical pre-sweep state (cost entries an earlier seed of the same
process absorbed ride along, but carry that seed's sample fingerprint
and never hit); entries a sibling persists mid-sweep are invisible, and
fresh entries reach the cache directory when a unit's run saves them,
so the *next* sweep runs warm.  The selection and the cost memo follow
the stage: a seed's stage reads its selection file (or costs the
candidates and writes it) and loads its memo file once, when it is
prepared, and each unit appends what its search costed, so workers
preparing one seed each append their own blocks to the one memo file.
A worker that prepares a seed after a sibling saved under it reads the
sibling's entries too: memo entries are pure, so that spares costings
and moves no result (only the units' ``delta_stats`` counts differ).

Shared state that is *safe* to share — the database, the workload, and
:class:`DatabaseStats` (a pure function of the data) — is built once
and inherited by every worker through fork memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.advisor.advisor import (
    AdvisorResult,
    check_budget,
    check_seed,
    get_variant,
)
from repro.advisor.retune import TuningSession
from repro.catalog.schema import Database
from repro.errors import AdvisorError
from repro.parallel.cache import CostCache, EstimationCache
from repro.parallel.engine import ParallelEngine
from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED
from repro.stats.column_stats import DatabaseStats
from repro.workload.query import Workload


@dataclass
class SweepRun:
    """One completed unit of a sweep: the advisor result for a
    (sampling seed, storage budget) combination."""

    seed: int
    budget_bytes: float
    result: AdvisorResult


@dataclass
class SweepResult:
    """Outcome of one sweep job.

    ``runs`` is ordered seeds-outer, budgets-inner — the same order a
    sequential ``for seed: for budget: tune(...)`` loop would produce.
    Cache stats are aggregated across every unit (sums of each unit's
    own hits/misses/stores — a lookup counts once, in the unit that
    made it, however many units share its stage — recomputed hit rate).
    """

    runs: list[SweepRun] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    workers: int = 1
    engine_stats: dict = field(default_factory=dict)
    estimation_cache_stats: dict = field(default_factory=dict)
    cost_cache_stats: dict = field(default_factory=dict)
    #: summed per-unit delta-costing counters (empty when delta costing
    #: was disabled for the sweep).
    delta_stats: dict = field(default_factory=dict)

    @property
    def results(self) -> list[AdvisorResult]:
        return [run.result for run in self.runs]

    def run_for(self, budget_bytes: float,
                seed: int | None = None) -> AdvisorResult:
        """The result for one (budget, seed); seed defaults to the
        sweep's only seed when unambiguous."""
        matches = [
            run for run in self.runs
            if run.budget_bytes == budget_bytes
            and (seed is None or run.seed == seed)
        ]
        if len(matches) != 1:
            raise AdvisorError(
                f"{len(matches)} sweep runs match budget={budget_bytes!r} "
                f"seed={seed!r}"
            )
        return matches[0].result


#: delta-stats keys that are per-unit gauges (table sizes), not event
#: counters — aggregated by max, never summed.
_DELTA_GAUGES = frozenset({
    "statements", "probe_entries", "maintenance_entries",
})


def _aggregate_delta_stats(per_run: Sequence[dict]) -> dict:
    """Combine per-unit delta-costing stats into sweep totals: event
    counters sum, gauge-valued keys (statement count, plan/maintenance
    table sizes) take the per-unit maximum (empty when no unit had delta
    costing on)."""
    agg: dict = {}
    for stats in per_run:
        for key, value in stats.items():
            if not isinstance(value, (int, float)):
                continue
            if key in _DELTA_GAUGES:
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
    return agg


def _aggregate_cache_stats(per_run: Sequence[dict]) -> dict:
    """Sum per-run cache counters into sweep totals (empty when no run
    had a cache wired)."""
    agg = {"hits": 0, "misses": 0, "stores": 0, "entries": 0}
    seen = False
    for stats in per_run:
        if not stats:
            continue
        seen = True
        for key in ("hits", "misses", "stores"):
            agg[key] += stats.get(key, 0)
        agg["entries"] = max(agg["entries"], stats.get("entries", 0))
    if not seen:
        return {}
    lookups = agg["hits"] + agg["misses"]
    agg["hit_rate"] = agg["hits"] / lookups if lookups else 0.0
    return agg


class _SweepJob:
    """The fork context of one sweep: everything a worker needs to run
    any unit, inherited through fork memory (never pickled)."""

    def __init__(
        self,
        database: Database,
        workload: Workload,
        units: list[tuple[int, float]],
        variant: str,
        options_extra: dict,
        stats: DatabaseStats,
        estimation_cache: EstimationCache | None,
        cost_cache: CostCache | None,
    ) -> None:
        self.database = database
        self.workload = workload
        self.units = units
        self.variant = variant
        self.options_extra = options_extra
        self.stats = stats
        self.estimation_cache = estimation_cache
        self.cost_cache = cost_cache
        #: seed -> session, per process: a forked worker starts from the
        #: parent's (empty, when the sweep shards) and fills its own.
        self._sessions: dict[int, TuningSession] = {}

    def run_unit(self, index: int, progress=None) -> AdvisorResult:
        """Run one (seed, budget) unit on this process's session for
        its seed.

        ``progress`` (parent-side sequential execution only — workers
        never carry a hook) forwards the unit's advisor events."""
        seed, budget = self.units[index]
        session = self._sessions.get(seed)
        if session is None:
            session = self._sessions[seed] = TuningSession(
                self.database, self.workload, variant=self.variant,
                seed=seed, stats=self.stats, **self.options_extra,
            )
            session.estimates = self.estimation_cache
            session.costs = self.cost_cache
        session.progress = progress
        return session.tune(budget)


def _run_unit_task(job: _SweepJob, index: int) -> AdvisorResult:
    """Worker task: one whole advisor run (the sweep's shard unit)."""
    return job.run_unit(index)


def _run_sweep(
    database: Database,
    workload: Workload,
    budgets: Sequence[float],
    *,
    seeds: Sequence[int] | None = None,
    variant: str = "dtac-both",
    workers: int = 1,
    cache_dir: str | None = None,
    stats: DatabaseStats | None = None,
    progress=None,
    **options_extra,
) -> SweepResult:
    """Run a full budget sweep / seed ablation as one sharded job.

    Args:
        database/workload: what to tune.
        budgets: absolute storage budgets in bytes, one advisor run per
            (seed, budget).
        seeds: sampling seeds to ablate over (default: the estimator's
            standard seed, i.e. a plain budget sweep).
        variant: advisor variant name (see :func:`repro.advisor.variants`).
        workers: advisor runs in flight at once (0 = one per CPU,
            1 = sequential); results are identical at any value.
        cache_dir: directory for the persistent size-estimate and
            what-if cost caches and the per-stage selection and cost
            memo files, shared by every unit and across sweeps.  A
            rerun of the same sweep over it replays every estimate,
            reads each stage's per-query selection instead of costing
            every candidate, and each unit's search reads every
            configuration it costs from the memo its stage persisted;
            what is recomputed is candidate generation, the sizes, and
            the plan tables and probe rows the search fills.
        stats: precomputed :class:`DatabaseStats` (built once if
            omitted).
        progress: observational event hook (may raise to abort — the
            job layer's cancellation path).  Sequential execution
            forwards every unit's advisor events tagged with the unit
            index; sharded execution reports per-unit boundaries only
            (fan-out results come back all at once).
        **options_extra: extra :class:`AdvisorOptions` fields applied to
            every unit (e.g. ``e=0.25``, ``enable_mv=True``).

    Returns:
        A :class:`SweepResult`, runs ordered seeds-outer budgets-inner.
    """
    if "budget_bytes" in options_extra:
        raise AdvisorError(
            "pass budgets as the run_sweep argument, not 'budget_bytes' "
            "via advisor options"
        )
    if not budgets:
        raise AdvisorError("run_sweep needs at least one budget")
    budgets = [check_budget(f"budgets[{i}]", budget)
               for i, budget in enumerate(budgets)]
    # Built only to check every option before any unit runs.
    get_variant(variant).advisor_options(budgets[0], **options_extra)
    seeds = tuple(check_seed(f"seeds[{i}]", seed)
                  for i, seed in enumerate(seeds or ())) \
        or (DEFAULT_SAMPLE_SEED,)
    units = [(seed, budget) for seed in seeds for budget in budgets]

    start = time.perf_counter()
    stats = stats or DatabaseStats(database)
    estimation_cache = (
        EstimationCache(cache_dir) if cache_dir is not None else None
    )
    cost_cache = CostCache(cache_dir) if cache_dir is not None else None
    job = _SweepJob(
        database, workload, units, variant, dict(options_extra),
        stats, estimation_cache, cost_cache,
    )
    def emit(event: str, **fields) -> None:
        if progress is not None:
            progress({"event": event, **fields})

    engine = ParallelEngine(workers)
    pool_size = engine.pool_size(len(units))
    if pool_size > 1:
        # Workers fork inside the map and inherit the database, stats
        # and cache snapshot; each runs whole units until none are left.
        emit("sweep_sharded", units=len(units), workers=pool_size)
        results = engine.map(_run_unit_task, range(len(units)), job)
        for i, (seed, budget) in enumerate(units):
            emit("sweep_unit", unit=i, units=len(units),
                 seed=seed, budget_bytes=budget, status="done")
    else:
        results = []
        for i, (seed, budget) in enumerate(units):
            emit("sweep_unit", unit=i, units=len(units),
                 seed=seed, budget_bytes=budget, status="started")
            unit_progress = (
                (lambda ev, _i=i: progress({**ev, "unit": _i}))
                if progress is not None else None
            )
            results.append(job.run_unit(i, progress=unit_progress))
            emit("sweep_unit", unit=i, units=len(units),
                 seed=seed, budget_bytes=budget, status="done")

    runs = [
        SweepRun(seed=seed, budget_bytes=budget, result=result)
        for (seed, budget), result in zip(units, results)
    ]
    return SweepResult(
        runs=runs,
        elapsed_seconds=time.perf_counter() - start,
        # Processes that ran units (a pool whose worker died reruns
        # them in this one).
        workers=pool_size if engine.parallel_maps else 1,
        engine_stats=engine.stats(),
        estimation_cache_stats=_aggregate_cache_stats(
            [run.result.cache_stats for run in runs]
        ),
        cost_cache_stats=_aggregate_cache_stats(
            [run.result.cost_cache_stats for run in runs]
        ),
        delta_stats=_aggregate_delta_stats(
            [run.result.delta_stats for run in runs]
        ),
    )
