"""The tuning session — the one way to run the advisor — and continuous
tuning: incremental retunes from the previous configuration, for
long-lived workloads that drift.

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

:class:`TuningSession` (also :class:`repro.api.Session`) wires every
run, cold or retune: it owns the database, the workload, shared
:class:`DatabaseStats`, the estimate/cost caches its runs fork, the
latest prepared stage, and the previous configuration — the first
feature where the advisor's output becomes its next input.  Its
docstring is the determinism contract of every entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.advisor.advisor import (
    AdvisorOptions,
    AdvisorResult,
    PreparedStage,
    ProgressHook,
    TuningAdvisor,
    _tune_decoupled,
    check_budget,
    check_seed,
    get_variant,
    stage_key,
)
from repro.advisor.algorithms.base import EnumerationResult, SelectionAlgorithm
from repro.catalog.schema import Database
from repro.compression.base import CompressionMethod
from repro.errors import AdvisorError
from repro.parallel.cache import CostCache, EstimationCache
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.sampling.sample_manager import DEFAULT_SAMPLE_SEED, SampleManager
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats
from repro.workload.query import Workload

if TYPE_CHECKING:  # pragma: no cover - sweep imports this module
    from repro.advisor.sweep import SweepResult


class _RetuneSearch(SelectionAlgorithm):
    """Drop-then-refill search seeded at the previous configuration.

    An ordering of the shared moves — drop (budget relaxation, then
    cost-checked drop iterations), evict, fill, swap trials, polish,
    floor — around the two steps only a carried-over configuration
    needs: decay eviction and eviction-swap trials.  Not registered —
    it needs a previous configuration no registry name can carry;
    :meth:`TuningSession.retune` hands it to the advisor as
    ``algorithm_cls``.
    """

    #: labels the floor step; no registry key.
    name = "retune"

    #: total eviction-swap trials (each is one greedy re-fill, so this
    #: caps the incremental run's wall time).
    SWAP_TRIALS = 2

    def __init__(self, previous: Configuration, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.previous = previous

    def run(self, pool: list[IndexDef],
            base_config: Configuration) -> EnumerationResult:
        previous = self.previous
        backtrack = self.options.backtracking
        steps: list[str] = []
        self._rebase(previous)
        prev_cost = self._costs([previous])[0]
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
            cost = self._costs([config])[0]
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
            costs = self._costs([r for _ix, r in reverted])
            threshold = self._accept_threshold(cost)
            decayed = [
                ix for (ix, _r), rcost in zip(reverted, costs)
                if rcost - cost < threshold
            ]
            if decayed:
                for ix in decayed:
                    config = self._revert_member(config, ix, base_config)
                self._rebase(config)
                cost = self._costs([config])[0]
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
                reduced_cost = self._costs([reduced])[0]
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


def _fork(cache):
    return cache.fork_view() if cache is not None else None


class TuningSession:
    """The one way to run the advisor: a database + workload whose
    recommendation is carried forward run over run.

    :class:`repro.api.Session` is this class, and every tuning entry
    point runs through one: the library, each service context (one
    session, set to each job's variant, seed and hook), a sweep (one
    session per seed per process), and the paper's experiments (one per
    figure, switched between variants or option sets; Figure 11 alone
    builds its advisor, for an estimator without deduction).
    ``tune()`` is a cold run; ``retune()`` runs the incremental
    drop-then-refill search from the previous configuration and returns
    the diff; ``tune_decoupled()`` is the paper's staged strawman;
    ``sweep()`` is a sharded budget sweep / seed ablation.  Pass ``workload=`` to any of them to move
    the session onto a new drift phase.

    Determinism contract.  A run is :meth:`TuningAdvisor.prepare` +
    :meth:`~TuningAdvisor.search`.  Preparation draws a fresh estimator
    with the session's ``seed`` and builds the optimizer and the plan
    tables over it: one :class:`PreparedStage`, one lifetime — **stage
    lifetime == estimator lifetime**, so no plan outlives the sizes it
    was costed with.  The session keeps its latest stage in ``stage``.
    A run whose :func:`stage_key` matches (same statements, seed and
    pool-shaping options; any budget, algorithm, search options,
    weights, hook or previous configuration) searches it instead of
    preparing — the same result, event stream included, because
    preparation reads none of those and a search leaves nothing a later
    one can see but memo entries that are pure functions of their keys.
    A run under another key drops the stage before preparing its
    replacement, so two never live side by side; an abort while
    preparing leaves no stage, one while searching a complete one.

    A preparing run forks both caches.  Its estimator reads a
    :meth:`fork_view` of ``estimates`` that is never absorbed (fresh
    estimates reach only the cache directory): a partially warm
    estimate cache can steer deduction planning, so every preparation
    sees the estimates the session was given.  Its optimizer costs
    through a :meth:`fork_view` of ``costs`` that is absorbed back after
    every run: cost keys carry sized structures and the sample
    fingerprint, so a hit replays identical arithmetic and warming later
    runs is result-neutral.  With a cache directory behind ``costs``,
    a preparing run also loads the cost memo its stage's namespace left
    there (:class:`~repro.parallel.cache.CostMemoFile`), and every run
    appends what its search costed.  The namespace digests the cost
    context, the statements and the size of every structure the stage
    sized, so an entry only loads into a stage of bit-identical sizes,
    where it is the float a costing body would return: loading spares
    costings and moves nothing (a partially warm estimate cache that
    steers deduction elsewhere is another namespace).  A result is
    therefore a function of the arguments and of what ``estimates``
    holds — the same whatever ran before it in this session or in any
    process over the same directory.  A holder picks the caches by
    assigning the two attributes: a library session owns them under
    ``cache_dir`` and holds none without one (an in-memory cost cache
    would only re-key costings the held stage's memo already answers,
    and a forked estimate view that is never absorbed is never read
    again); a service
    context takes a registration-time snapshot of the service's estimate
    cache and the service's live cost cache; a sweep's sessions share
    the pre-sweep caches (none without a cache directory either).
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
        self.variant = variant
        self.seed = seed
        self.cache_dir = cache_dir
        self.stats = stats or DatabaseStats(database)
        self.progress = progress
        self.options_extra = dict(options_extra)
        self._default_budget = self._resolve_budget(
            budget_bytes, budget_fraction, required=False
        )
        # Built only to check every option now, before any run.
        get_variant(self.variant).advisor_options(
            self._default_budget or 0.0, **self.options_extra
        )
        #: the previous recommendation — the next retune's input.  May
        #: be seeded directly (e.g. from a persisted result) to retune
        #: without a cold ``tune()`` first.
        self.configuration = configuration
        #: completed runs (tune + retune) in this session.
        self.generation = 0
        #: what a preparing run forks (None: no cache, the default
        #: without a ``cache_dir``).
        self.estimates: EstimationCache | None = (
            EstimationCache(cache_dir) if cache_dir is not None else None
        )
        self.costs: CostCache | None = (
            CostCache(cache_dir) if cache_dir is not None else None
        )
        #: the latest run's prepared stage.
        self.stage: PreparedStage | None = None

    @property
    def variant(self) -> str:
        """The advisor variant of every run; setting it resolves the
        name through :func:`~repro.advisor.advisor.get_variant`, so a
        holder that reassigns it (a service context per job, a figure's
        budget sweep per column) fails on an unknown name before any
        run."""
        return self._variant

    @variant.setter
    def variant(self, value) -> None:
        self._variant = get_variant(value).name

    @property
    def seed(self) -> int:
        """The sampling seed of every run; setting it applies
        :func:`~repro.advisor.advisor.check_seed`, so a holder that
        reassigns it (a service context, per job) is checked too."""
        return self._seed

    @seed.setter
    def seed(self, value) -> None:
        self._seed = check_seed("seed", value)

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
            return self.database.total_data_bytes() * check_budget(
                "budget_fraction", budget_fraction
            )
        if budget_bytes is not None:
            return check_budget("budget_bytes", budget_bytes)
        if not required:
            return None
        if self._default_budget is None:
            raise AdvisorError(
                "no budget: pass budget_bytes/budget_fraction to the "
                "session or to the call"
            )
        return self._default_budget

    def _resolve_workload(self, workload: Workload | None) -> Workload:
        if workload is not None:
            self.workload = workload
        if self.workload is None:
            raise AdvisorError(
                "no workload: pass one to the session or to the call"
            )
        return self.workload

    def _estimator(self, options: AdvisorOptions) -> SizeEstimator:
        """A fresh estimator drawn with the session's seed, over a fork
        of ``estimates``."""
        return SizeEstimator(
            self.database, stats=self.stats,
            manager=SampleManager(self.database, seed=self.seed),
            e=options.e, q=options.q, cache=_fork(self.estimates),
        )

    def _run(self, budget_bytes, budget_fraction, workload, extra,
             previous: Configuration | None = None) -> AdvisorResult:
        """One run (see the determinism contract); its recommendation
        becomes the session's configuration.  ``previous`` makes it an
        incremental retune: the search is :class:`_RetuneSearch` seeded
        there, over a pool guaranteed to hold every previous member (so
        re-fill can re-add a dropped structure)."""
        workload = self._resolve_workload(workload)
        budget = self._resolve_budget(budget_bytes, budget_fraction)
        extra = {**self.options_extra, **extra}
        options = get_variant(self.variant).advisor_options(budget, **extra)
        if self.stage is not None and \
                self.stage.key != stage_key(workload, options, self.seed):
            self.stage = None  # dropped before its replacement is built

        search: dict = {}
        if previous is not None:
            search = dict(
                algorithm_cls=partial(_RetuneSearch, previous),
                extra_candidates=previous.ordered(),
            )
        prepare = self.stage is None
        advisor = TuningAdvisor(
            self.database,
            workload,
            options,
            estimator=self._estimator(options) if prepare else None,
            stats=self.stats,
            cost_cache=_fork(self.costs) if prepare else None,
            progress=self.progress,
            stage=self.stage,
            **search,
        )
        try:
            result = advisor.run()
        finally:
            self.stage = advisor.stage
        if self.costs is not None:
            self.costs.absorb(self.stage.whatif.cost_cache)
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
            estimator=self._estimator(
                get_variant("dta").advisor_options(budget, **extra)
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
    ) -> "SweepResult":
        """Sharded budget sweep / seed ablation over this session's
        context (database, variant, stats, cache directory; ``seeds``
        defaults to the session's), ``workers`` advisor runs in flight
        at once.  Does not advance the session's configuration — a
        sweep is many hypothetical runs, not one deployment decision."""
        # Looked up on repro.api per call: the name the ledger's
        # advisor.sweep span wraps.
        from repro import api

        return api._run_sweep(
            self.database,
            self._resolve_workload(workload),
            budgets,
            seeds=seeds or (self.seed,),
            variant=self.variant,
            workers=workers,
            cache_dir=self.cache_dir,
            stats=self.stats,
            progress=self.progress,
            **{**self.options_extra, **extra},
        )


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
