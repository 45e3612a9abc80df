"""Continuous tuning: incremental retunes from the previous
configuration, for long-lived workloads that drift.

The paper tunes a static workload once.  A serving advisor instead sees
a *sequence* of workloads, and cold-tuning each one throws away the two
assets the previous run already paid for: the previous recommendation
and the warmed estimate/cost caches.  This module keeps both.

A retune is one advisor run whose search is replaced by
:class:`_RetuneSearch`:

1. **Seed at the previous configuration.**  The delta coster's
   reference is rebased onto the previous recommendation (the PR 3
   primitive built for exactly this), so the whole run diffs against
   what is already deployed instead of against bare heaps.
2. **Drop decayed structures** — the 15-799 tuner's missing half.
   Previous members get fresh benefit attribution under the *current*
   workload; while over budget, the lowest (uses, benefit-density)
   member is dropped, then terminating cost-checked drop iterations
   (the drop moves the relaxation algorithm is built from) evict any
   member whose removal now lowers the true workload cost.
3. **Greedy re-fill** — the shared greedy fill plus the final method
   polish, started from the pruned previous configuration rather than
   from scratch.

:func:`run_isolated` is the one advisor invocation every entry point
shares — cold when ``previous`` is None, the search above otherwise.  It
builds the seeded estimator and the :class:`TuningAdvisor` — or hands
the advisor the prepared stage the caller holds; the caller decides
isolation by which cache objects, and whether a :class:`HeldStage`, it
hands in.
:class:`TuningSession` is the session-state API around it: it owns the
database, the workload, shared :class:`DatabaseStats` and persistent
estimate/cost caches, the latest prepared stage, and the previous
configuration — the first feature where the advisor's output becomes
its next input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Sequence

from repro.advisor.advisor import (
    AdvisorOptions,
    AdvisorResult,
    PreparedStage,
    ProgressHook,
    TuningAdvisor,
    get_variant,
    stage_key,
)
from repro.advisor.algorithms.base import EnumerationResult, SelectionAlgorithm
from repro.catalog.schema import Database
from repro.errors import AdvisorError
from repro.parallel.cache import CostCache, EstimationCache
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED, SampleManager
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.workload.query import Workload


class _RetuneSearch(SelectionAlgorithm):
    """Drop-then-refill search seeded at the previous configuration.

    An ordering of the shared moves — drop (budget relaxation, then
    cost-checked drop iterations), evict, fill, swap trials, polish,
    floor — around the two steps only a carried-over configuration
    needs: decay eviction and eviction-swap trials.  Not registered —
    it needs a previous configuration no registry name can carry;
    :func:`run_isolated` hands it to the advisor as ``algorithm_cls``.
    """

    #: labels the floor step; no registry key.
    name = "retune"

    #: total eviction-swap trials (each is one greedy re-fill, so this
    #: caps the incremental run's wall time).
    SWAP_TRIALS = 2

    def __init__(self, previous: Configuration, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.previous = previous

    def _bound_pruning_safe(self) -> bool:
        # The re-fill is the default algorithm's fill: same verdict.
        return self.options.strategy == "greedy"

    def run(self, pool: list[IndexDef],
            base_config: Configuration) -> EnumerationResult:
        previous = self.previous
        backtrack = self.options.backtracking
        steps: list[str] = []
        self._rebase(previous)
        prev_cost = self.batch_cost([previous])[0]
        steps.append(
            f"retune seed: {len(list(previous))} structures, "
            f"cost {prev_cost:.1f}, {self.consumed(previous):.0f} bytes"
        )
        self._emit_step("retune-seed", steps[-1], prev_cost)

        # Drop: the carried-over members get fresh attribution under
        # the *current* workload — the decay signal the ranking reads.
        drop_rank = self._drop_ranking(
            self._droppable(previous, base_config), base_config
        )
        config = self._relax_to_budget(
            previous, base_config, drop_rank, steps
        )
        if config != previous:
            self._rebase(config)
            cost = self.batch_cost([config])[0]
        else:
            cost = prev_cost
        config, cost = self._drop_iterations(config, cost, base_config, steps)

        # Decay eviction: a carried member can keep a sliver of benefit
        # (so no single removal lowers cost) while blocking the budget
        # the drifted workload wants elsewhere — a local minimum neither
        # drop iterations nor compression backtracking can leave.  Evict
        # every member whose marginal benefit fell below the greedy
        # acceptance threshold; each stays in the candidate pool, so the
        # re-fill re-adds it only if it still beats today's
        # alternatives.
        members = self._droppable(config, base_config)
        if members:
            reverted = [
                (ix, self._revert_member(config, ix, base_config))
                for ix in members
            ]
            reverted = [(ix, r) for ix, r in reverted if r != config]
            costs = self.batch_cost([r for _ix, r in reverted])
            threshold = self._accept_threshold(cost)
            decayed = [
                ix for (ix, _r), rcost in zip(reverted, costs)
                if rcost - cost < threshold
            ]
            if decayed:
                for ix in decayed:
                    config = self._revert_member(config, ix, base_config)
                self._rebase(config)
                cost = self.batch_cost([config])[0]
                self._accept(
                    "drop",
                    "decay evict "
                    + ", ".join(ix.display_name() for ix in decayed)
                    + f": -> {cost:.1f}",
                    config, cost, steps,
                )

        # Greedy re-fill from the pruned previous configuration.
        self._rebase(config)
        config, cost = self._fill(
            pool, config, cost, steps, backtrack=backtrack
        )

        # Eviction swaps: a carried member can be worth keeping in
        # isolation yet *dominated* — its budget would buy a better
        # structure under the drifted workload, which greedy re-fill
        # cannot see because the member is already in place.  Evict the
        # most suspect members (the drop ranking again) one at a time
        # and re-fill; accept the first eviction whose re-fill beats
        # the current cost.  A wrongly-evicted member is simply
        # re-added by its own trial (it stays in the pool).  The total
        # trial count is bounded — this is the incremental path, not a
        # second cold search.
        trials_left = self.SWAP_TRIALS
        improved = True
        while improved and trials_left > 0:
            improved = False
            members = self._droppable(config, base_config)
            drop_rank = self._drop_ranking(members, base_config)
            consumed = self.consumed(config)
            candidates = []
            for victim in members:
                reduced = self._revert_member(config, victim, base_config)
                # Only evictions that free budget can unlock a better
                # structure (e.g. a compressed base variant reverts to a
                # *larger* heap — swapping it out buys nothing).
                if reduced == config or \
                        self.consumed(reduced) >= consumed:
                    continue
                candidates.append((victim, reduced))
            candidates.sort(key=lambda vr: drop_rank(vr[0]))
            for victim, reduced in candidates:
                if trials_left == 0:
                    break
                trials_left -= 1
                self._rebase(reduced)
                reduced_cost = self.batch_cost([reduced])[0]
                trial_steps: list[str] = []
                trial, trial_cost = self._fill(
                    pool, reduced, reduced_cost, trial_steps,
                    backtrack=backtrack,
                )
                if trial_cost < cost - self._accept_threshold(cost):
                    config, cost = trial, trial_cost
                    self._accept(
                        "swap",
                        f"swap evict {victim.display_name()}: -> {cost:.1f}",
                        config, cost, steps,
                    )
                    steps.extend(trial_steps)
                    improved = True
                    break

        config, cost = self._polish(config, cost, steps)
        # A drifted workload can strand the whole carried-over
        # configuration; the floor returns the untuned base instead.
        config, cost = self._floor_at_base(
            config, cost, base_config, self.workload_cost(base_config), steps
        )
        return self._result(config, cost, steps)


def configuration_diff(
    previous: Configuration, current: Configuration
) -> "tuple[list[IndexDef], list[IndexDef], list[IndexDef]]":
    """(dropped, added, kept) between two configurations, each sorted
    by display name.  A compression-method change of the same logical
    structure shows up as one drop plus one add — method variants are
    different physical structures."""
    by_name = lambda ix: ix.display_name()  # noqa: E731
    dropped = sorted(
        (ix for ix in previous if ix not in current), key=by_name
    )
    added = sorted(
        (ix for ix in current if ix not in previous), key=by_name
    )
    kept = sorted(
        (ix for ix in current if ix in previous), key=by_name
    )
    return dropped, added, kept


def seeded_estimator(
    database: Database, options: AdvisorOptions, *, seed: int,
    stats: DatabaseStats, estimates: EstimationCache | None = None,
) -> SizeEstimator:
    """The estimator :func:`run_isolated` prepares a stage over: fresh
    sample state drawn with ``seed``, warm estimates from the caller's
    cache."""
    return SizeEstimator(
        database, stats=stats, manager=SampleManager(database, seed=seed),
        e=options.e, q=options.q, cache=estimates,
    )


@dataclass
class HeldStage:
    """Where the owner of repeated runs (a session; a sweep, per seed;
    a service context) keeps the one prepared stage :func:`run_isolated`
    may reuse.  One stage, replaced when a run's :func:`stage_key`
    differs — there is nothing to evict and nothing to configure."""

    stage: PreparedStage | None = None

    def reusable(self, workload: Workload, options: AdvisorOptions,
                 seed: int) -> PreparedStage | None:
        """The held stage if a run over these inputs would search it;
        else None, and the stage is dropped now — before the run
        prepares its replacement, so two never live side by side."""
        if self.stage is not None \
                and self.stage.key != stage_key(workload, options, seed):
            self.stage = None
        return self.stage


def run_isolated(
    database: Database,
    workload: Workload,
    options: AdvisorOptions,
    *,
    seed: int,
    stats: DatabaseStats,
    estimates: EstimationCache | None = None,
    costs: CostCache | None = None,
    previous: Configuration | None = None,
    progress: ProgressHook | None = None,
    held: HeldStage | None = None,
) -> AdvisorResult:
    """One advisor run — the single place a tuning run is wired.

    A run is :meth:`TuningAdvisor.prepare` + :meth:`~TuningAdvisor.
    search`.  Preparation builds a fresh seeded estimator and, over it,
    the optimizer and the plan tables (whose keys do not embed sizes):
    one :class:`PreparedStage`, one lifetime — **stage lifetime ==
    estimator lifetime**, so no plan can outlive the sizes it was
    costed with.  Without ``held`` that lifetime is this call, and a
    result is a function of the arguments and of the entries already in
    ``estimates``/``costs``.  The caller picks the isolation by which
    cache objects it passes — a session its live caches (runs warm each
    other), the service and the sweep fork views (a fixed snapshot,
    absorbed or saved by the caller afterwards).

    With ``held``, the stage outlives the call: a later run whose
    :func:`stage_key` matches (same statements, seed and pool-shaping
    options; any budget, algorithm, search options, weights, hook,
    ``previous``) searches it again instead of preparing — the same
    result, event stream included, because preparation reads none of
    those and a search changes nothing a later one can see but memo
    entries that are pure functions of their keys.  Such a run keeps
    the cache objects the stage was prepared with (``estimates`` and
    ``costs`` are read only when preparing — :meth:`HeldStage.reusable`
    tells a caller beforehand whether they will be).  ``held.stage`` is
    left None by a run aborted while preparing, and kept by one aborted
    while searching.

    ``previous`` makes the run an incremental retune: the search is
    :class:`_RetuneSearch` seeded there, and its copy of the candidate
    pool is guaranteed to contain every previous member (so re-fill can
    re-add a dropped structure and the delta coster's pruning bounds
    stay sound over the carried-over configuration)."""
    search: dict = {}
    if previous is not None:
        search = dict(
            algorithm_cls=partial(_RetuneSearch, previous),
            extra_candidates=previous.ordered(),
        )
    stage = (
        held.reusable(workload, options, seed) if held is not None else None
    )
    advisor = TuningAdvisor(
        database,
        workload,
        options,
        estimator=None if stage is not None else seeded_estimator(
            database, options, seed=seed, stats=stats, estimates=estimates
        ),
        stats=stats,
        cost_cache=costs,
        progress=progress,
        stage=stage,
        **search,
    )
    try:
        return advisor.run()
    finally:
        if held is not None:
            held.stage = advisor.stage


@dataclass
class RetuneResult:
    """Outcome of one incremental retune.

    Wraps the run's :class:`AdvisorResult` with the session-level diff
    against the previous configuration.
    """

    result: AdvisorResult
    generation: int
    previous_configuration: Configuration
    dropped: list[IndexDef] = field(default_factory=list)
    added: list[IndexDef] = field(default_factory=list)
    kept: list[IndexDef] = field(default_factory=list)

    @classmethod
    def from_run(
        cls, previous: Configuration, result: AdvisorResult, generation: int
    ) -> "RetuneResult":
        """The diff of ``result`` against the configuration it started
        from (the untuned base for a cold first generation)."""
        dropped, added, kept = configuration_diff(
            previous, result.configuration
        )
        return cls(result, generation, previous, dropped, added, kept)

    @property
    def configuration(self) -> Configuration:
        return self.result.configuration

    @property
    def config_changed(self) -> bool:
        return bool(self.dropped or self.added)

    def events(self) -> Iterator[dict]:
        """The retune's progress events, in stream order: ``dropped``
        and ``added`` when non-empty, then always ``config_changed``."""
        for event, indexes in (("dropped", self.dropped),
                               ("added", self.added)):
            if indexes:
                yield {
                    "event": event,
                    "indexes": [ix.display_name() for ix in indexes],
                }
        yield {
            "event": "config_changed",
            "changed": self.config_changed,
            "generation": self.generation,
            "dropped": len(self.dropped),
            "added": len(self.added),
            "kept": len(self.kept),
        }

    @property
    def improvement(self) -> float:
        return self.result.improvement


class TuningSession:
    """Session state for continuous tuning: one database + workload
    whose recommendation is carried forward run over run.

    The session owns what repeated runs can safely share — the
    :class:`DatabaseStats`, one :class:`EstimationCache` and one
    :class:`CostCache` (persistent under ``cache_dir``, in-memory
    otherwise), handed *live* to :func:`run_isolated` so every run
    warms the next (the sweep orchestrator and the tuning service hand
    it fork views instead) — and the latest prepared stage: ``tune()``
    again, at another budget or with another algorithm, and a
    ``retune()`` onto a drifted phase (same statements, other weights)
    search the pool, sizes and plan table the first run prepared; a
    run with other statements, another variant or other pool-shaping
    options prepares anew and replaces it.  ``tune()`` runs cold;
    ``retune()`` runs the incremental drop-then-refill search from the
    previous result and returns the configuration diff.  Pass
    ``workload=`` to either call to move the session onto a new drift
    phase.
    """

    def __init__(
        self,
        database: Database,
        workload: Workload | None = None,
        *,
        budget_bytes: float | None = None,
        budget_fraction: float | None = None,
        variant: str = "dtac-both",
        seed: int = DEFAULT_SAMPLE_SEED,
        cache_dir: str | None = None,
        stats: DatabaseStats | None = None,
        progress: ProgressHook | None = None,
        configuration: Configuration | None = None,
        **options_extra,
    ) -> None:
        self.database = database
        self.workload = workload
        self.variant = get_variant(variant).name
        self.seed = seed
        self.cache_dir = cache_dir
        self.stats = stats or DatabaseStats(database)
        self.progress = progress
        self.options_extra = dict(options_extra)
        self._default_budget = self._resolve_budget(
            budget_bytes, budget_fraction, required=False
        )
        #: the previous recommendation — the next retune's input.  May
        #: be seeded directly (e.g. from a persisted result) to retune
        #: without a cold ``tune()`` first.
        self.configuration = configuration
        #: completed runs (tune + retune) in this session.
        self.generation = 0
        self.estimates = EstimationCache(cache_dir)
        self.costs = CostCache(cache_dir)
        #: the latest run's prepared stage (see :func:`run_isolated`).
        self.held = HeldStage()

    # ------------------------------------------------------------------
    def _resolve_budget(
        self,
        budget_bytes: float | None,
        budget_fraction: float | None,
        required: bool = True,
    ) -> float | None:
        if budget_bytes is not None and budget_fraction is not None:
            raise AdvisorError(
                "pass budget_bytes or budget_fraction, not both"
            )
        if budget_fraction is not None:
            return self.database.total_data_bytes() * budget_fraction
        if budget_bytes is not None:
            return float(budget_bytes)
        if not required:
            return None
        if self._default_budget is None:
            raise AdvisorError(
                "no budget: pass budget_bytes/budget_fraction to the "
                "session or to the call"
            )
        return self._default_budget

    def _options(self, budget: float, extra: dict) -> AdvisorOptions:
        return get_variant(self.variant).advisor_options(
            budget, **{**self.options_extra, **extra}
        )

    def _resolve_workload(self, workload: Workload | None) -> Workload:
        if workload is not None:
            self.workload = workload
        if self.workload is None:
            raise AdvisorError(
                "no workload: pass one to the session or to the call"
            )
        return self.workload

    def _run(self, budget_bytes, budget_fraction, workload, extra,
             previous: Configuration | None = None) -> AdvisorResult:
        """One run over the session's live caches and held stage; its
        recommendation becomes the session's configuration."""
        workload = self._resolve_workload(workload)
        budget = self._resolve_budget(budget_bytes, budget_fraction)
        result = run_isolated(
            self.database,
            workload,
            self._options(budget, extra),
            seed=self.seed,
            stats=self.stats,
            estimates=self.estimates,
            costs=self.costs,
            previous=previous,
            progress=self.progress,
            held=self.held,
        )
        self.configuration = result.configuration
        self.generation += 1
        return result

    # ------------------------------------------------------------------
    def tune(
        self,
        budget_bytes: float | None = None,
        *,
        budget_fraction: float | None = None,
        workload: Workload | None = None,
        **extra,
    ) -> AdvisorResult:
        """One cold tuning run (no previous-configuration seeding);
        establishes the configuration later ``retune()`` calls carry
        forward."""
        return self._run(budget_bytes, budget_fraction, workload, extra)

    def retune(
        self,
        budget_bytes: float | None = None,
        *,
        budget_fraction: float | None = None,
        workload: Workload | None = None,
        **extra,
    ) -> RetuneResult:
        """One incremental retune from the session's previous
        configuration (drop decayed structures, greedy re-fill), under
        the current — typically drifted — workload."""
        previous = self.configuration
        if previous is None:
            raise AdvisorError(
                "retune needs a previous configuration: run tune() "
                "first, or seed the session with configuration=..."
            )
        result = self._run(
            budget_bytes, budget_fraction, workload, extra, previous
        )
        out = RetuneResult.from_run(previous, result, self.generation)
        if self.progress is not None:
            for event in out.events():
                self.progress(event)
        return out


def retune_sequence(
    session: TuningSession,
    workloads: Sequence[Workload],
    **extra,
) -> "list[RetuneResult | AdvisorResult]":
    """Drive a session across a workload sequence: a cold ``tune()`` on
    the first phase when the session has no configuration yet, then one
    ``retune()`` per remaining phase.  Returns the per-phase results in
    order — the golden-fixture shape the retune identity tests pin."""
    out: "list[RetuneResult | AdvisorResult]" = []
    for workload in workloads:
        if session.configuration is None:
            out.append(session.tune(workload=workload, **extra))
        else:
            out.append(session.retune(workload=workload, **extra))
    return out
