"""The selection-algorithm contract and the search toolkit: one base
class every search strategy extends, plus the registry
``AdvisorOptions.algorithm`` resolves through.

A :class:`SelectionAlgorithm` is handed the advisor's prepared state —
the candidate pool, the base configuration, a workload-cost callable
and a per-statement cost callable (each costing one configuration per
call), the optional delta coster and a size callable — and returns an
:class:`EnumerationResult`.  The base class owns everything the
strategies share:

* storage accounting (``consumed`` / ``fits``): secondary/MV indexes
  consume their full size; a base structure consumes the *difference*
  against the table's original base, so compressing a heap frees budget
  (Appendix D.2); each structure's term is worked out once per search;
* progress events (``_emit`` / ``_emit_step``) — the tuning service's
  cancellation path rides these hooks;
* costing: ``_costs`` is the one multi-configuration entry (and the
  ``coster.batch`` fault site); ``_rebase`` moves the delta coster's
  reference onto each accepted step;
* per-statement benefit attribution (``_attributed_benefits``), shared
  by the knapsack and relaxation strategies;
* the **moves** — each written once; a strategy's ``run`` is an ordering
  of them, passing the step ``kind`` it reports under and, optionally,
  an ``on_accept(config, cost, label)`` hook called per accepted step:

  - ``_add_moves`` / ``_score_adds`` — enumerate one add sweep; score it
    into its two channels (every feasible move; the best move *including
    oversized ones*, recovered by ``_backtrack``, the Figure 8
    compression backtrack);
  - ``_fill`` — greedy add to a fixpoint (Section 6.2);
  - ``_polish`` — per-structure method hill-climb;
  - ``_drop_ranking`` / ``_relax_to_budget`` / ``_drop_iterations`` —
    usage/density-ordered drops until the budget fits, then cost-checked
    single removals;
  - ``_floor_at_base`` — never return worse than doing nothing;
  - ``_accept`` / ``_accept_threshold`` / ``_result`` — the step
    record, the acceptance threshold, the result.

Concrete strategies register with :func:`register` and are resolved by
name through :func:`get`; ``names()`` lists the valid set.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.compression.base import CompressionMethod
from repro.errors import AdvisorError
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.storage.index_build import IndexKind
from repro.workload.query import Statement, Workload

#: fault-injection hook (see :mod:`repro.service.faults`): rebound to
#: that module's ``fire`` when a plan is installed, None otherwise —
#: declared here so the search never imports the service package.
FAULT_HOOK = None

#: Byte floor for benefit-per-byte densities: below one page, size
#: differences are quantization noise, not signal.
DENSITY_FLOOR_BYTES = 8192.0

#: Hard cap on the iterations of one greedy fill.
MAX_FILL_STEPS = 60

#: JSON schema type of each :class:`AdvisorOptions` field type.
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string"}

#: Accepted-step hook of the moves: ``(configuration, cost, step label)``.
#: Observational, like the progress hook it usually feeds.
StepHook = Callable[[Configuration, float, str], None]


@dataclass(frozen=True)
class EnumerationOptions:
    """Search knobs.

    Attributes:
        budget_bytes: storage budget for additional structures.
        strategy: 'greedy' or 'density'.
        backtracking: enable the oversized-choice recovery phase.
        min_improvement: stop when the relative cost drop falls below it.
        seed_fanout: number of distinct first choices to grow a full
            greedy run from; the best final configuration wins.
        allow_compression: whether method-swap phases (backtracking,
            final polish) may introduce compressed variants; False for
            the compression-blind DTA baseline.
    """

    budget_bytes: float
    strategy: str = "greedy"
    backtracking: bool = False
    min_improvement: float = 1e-4
    seed_fanout: int = 3
    allow_compression: bool = True


@dataclass
class EnumerationResult:
    """Final configuration of one selection run with its cost,
    storage consumption, and a human-readable step log."""
    configuration: Configuration
    cost: float
    consumed_bytes: float
    steps: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class IndexBenefit:
    """One candidate's attributed benefit: the weighted per-statement
    cost reduction of adding it alone to the base configuration,
    the number of statements it helps, and the budget bytes it would
    consume (negative for base-structure swaps that free space)."""

    index: IndexDef
    benefit: float
    uses: int
    delta_bytes: float

    def density(self) -> float:
        """Benefit per byte consumed, floored at one page so tiny
        structures cannot divide by quantization noise."""
        return self.benefit / max(self.delta_bytes, DENSITY_FLOOR_BYTES)


class SelectionAlgorithm:
    """Abstract search strategy over the advisor's candidate pool.

    Subclasses set :attr:`name` / :attr:`summary` and implement
    :meth:`run`.
    """

    #: registry key (``AdvisorOptions.algorithm``); None = abstract.
    name: "str | None" = None
    #: one-line description for ``/v1/algorithms`` and the CLI table.
    summary: str = ""
    #: every :class:`~repro.advisor.advisor.AdvisorOptions` field this
    #: algorithm reads -> its description.  Every algorithm honors the
    #: shared budget/improvement knobs; subclasses extend the mapping.
    option_descriptions: "dict[str, str]" = {
        "budget_bytes": "storage budget for additional structures",
        "min_improvement": "relative cost-drop acceptance threshold",
    }

    def __init__(
        self,
        workload: Workload,
        workload_cost: Callable[[Configuration], float],
        index_size: Callable[[IndexDef], float],
        original_base_sizes: Mapping[str, float],
        options: EnumerationOptions,
        delta: "object | None" = None,
        progress: "Callable[[dict], None] | None" = None,
        query_cost: "Callable[[Statement, Configuration], float] | None" = None,
    ) -> None:
        self.workload = workload
        self.workload_cost = workload_cost
        self.index_size = index_size
        self.original_base_sizes = dict(original_base_sizes)
        self.options = options
        #: observational hook: one event per accepted search step (and
        #: one per candidate sweep), emitted in the parent process.  It
        #: may raise to abort the search — the tuning service cancels
        #: running jobs through exactly this path — but must never
        #: change a result.
        self.progress = progress
        self._step_seq = 0
        #: one statement's unweighted cost under one configuration, for
        #: per-statement benefit attribution (knapsack, relaxation).
        self.query_cost = query_cost
        #: optional DeltaWorkloadCoster, whose reference follows the
        #: accepted steps (:meth:`_rebase`).
        self.delta = delta
        #: structure -> its :meth:`consumed` term (sizes are fixed for
        #: the life of a search).
        self._terms: "dict[IndexDef, float]" = {}
        #: (members, their terms) of the last configuration
        #: :meth:`consumed` summed member by member.
        self._summed: "tuple[frozenset | None, list[float]]" = (None, [])

    # -- registry metadata ---------------------------------------------
    @classmethod
    def options_schema(cls) -> dict:
        """JSON-able schema of the options this algorithm reads —
        served by ``GET /v1/algorithms``: each field's type and default
        are :class:`~repro.advisor.advisor.AdvisorOptions`' own, so the
        schema cannot drift from what a run accepts."""
        # Imported here: the advisor module imports this package.
        from repro.advisor.advisor import AdvisorOptions

        types = typing.get_type_hints(AdvisorOptions)
        defaults = {f.name: f.default
                    for f in dataclasses.fields(AdvisorOptions)}
        schema = {}
        for name, description in cls.option_descriptions.items():
            entry = schema[name] = {"type": _JSON_TYPES[types[name]]}
            if defaults[name] is not dataclasses.MISSING:
                entry["default"] = defaults[name]
            entry["description"] = description
        return schema

    # ------------------------------------------------------------------
    def consumed(self, config: Configuration) -> float:
        """Budget bytes a configuration consumes: secondary/MV indexes in
        full; base structures as the delta against the original base
        (compressing a heap *frees* budget).

        The ``math.fsum`` of one term per member: exact, hence
        independent of the order of the terms — the budget boundary
        must not wobble with PYTHONHASHSEED.  Each structure's term is
        worked out once per search (:meth:`_term`), and a candidate
        :meth:`Configuration.add` built from the configuration this
        method last summed member by member — a sweep's ``current`` —
        sums that configuration's terms plus its one new member's:
        the same multiset, so the same float."""
        provenance = config.provenance
        if provenance is not None and provenance[0] is self._summed[0]:
            return math.fsum([*self._summed[1], self._term(provenance[1])])
        members = config.indexes
        known = self._terms
        try:
            terms = [known[ix] for ix in members]
        except KeyError:
            terms = [self._term(ix) for ix in members]
        self._summed = (members, terms)
        return math.fsum(terms)

    def _term(self, ix: IndexDef) -> float:
        """One structure's share of :meth:`consumed` (memoised)."""
        term = self._terms.get(ix)
        if term is None:
            if ix.kind is IndexKind.SECONDARY or ix.is_mv_index:
                term = self.index_size(ix)
            else:
                original = self.original_base_sizes.get(ix.table)
                if original is None:
                    raise AdvisorError(
                        f"no original base size for table {ix.table!r}"
                    )
                term = self.index_size(ix) - original
            self._terms[ix] = term
        return term

    def fits(self, config: Configuration) -> bool:
        """Whether a configuration stays within the storage budget."""
        return self._within_budget(self.consumed(config))

    def _within_budget(self, consumed: float) -> bool:
        """:meth:`fits` for a caller that already holds ``consumed``."""
        return consumed <= self.options.budget_bytes + 1e-6

    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        if self.progress is not None:
            self.progress({"event": event, **fields})

    def _emit_step(self, kind: str, step: str,
                   cost: "float | None" = None, **measures) -> None:
        """One accepted search step (greedy add, backtrack recovery,
        polish swap, or a seeded start).  ``step_seq`` counts accepted
        steps across every seeded start (the job layer's ``seq`` is the
        event-log position, a different series), so the stream carries
        at least one event per greedy step of the winning start.
        ``cost`` is the workload cost after the step, or absent when
        the step was not costed; what such a step does know travels
        under its own name (``consumed_bytes=``, ``benefit=``)."""
        self._step_seq += 1
        if cost is not None:
            measures = {"cost": cost, **measures}
        self._emit("greedy_step", kind=kind, step=step, **measures,
                   step_seq=self._step_seq)

    def _score(self, delta_cost: float, delta_size: float) -> float:
        if self.options.strategy == "density":
            return delta_cost / max(delta_size, DENSITY_FLOOR_BYTES)
        return delta_cost

    def _rebase(self, config: Configuration) -> None:
        if self.delta is not None:
            self.delta.rebase(config)

    def _costs(self, configs: Sequence[Configuration]) -> "list[float]":
        """Workload costs of several configurations, in input order —
        the ``coster.batch`` fault site, once per costing step."""
        if FAULT_HOOK is not None:
            FAULT_HOOK("coster.batch", configs=len(configs))
        return [self.workload_cost(config) for config in configs]

    # ------------------------------------------------------------------
    def _attributed_benefits(
        self,
        pool: Sequence[IndexDef],
        base_config: Configuration,
    ) -> list[IndexBenefit]:
        """Per-candidate benefit attribution: for every pool member, the
        weighted sum over SELECT statements of the cost reduction it
        achieves *alone* on top of the base configuration.  Additive by
        construction (interactions between candidates are ignored —
        that is the knapsack/relaxation approximation) and
        deterministic in pool order."""
        if self.query_cost is None:
            raise AdvisorError(
                f"{self.name} attributes benefit per statement: "
                "construct it with a query_cost"
            )
        moves = self._add_moves(pool, base_config)
        members = [ix for ix, _candidate in moves]
        singletons = [candidate for _ix, candidate in moves]
        benefits = [0.0] * len(members)
        uses = [0] * len(members)
        for ws in self.workload.queries:
            base_cost = self.query_cost(ws.statement, base_config)
            for i, singleton in enumerate(singletons):
                gain = base_cost - self.query_cost(ws.statement, singleton)
                if gain > 0:
                    benefits[i] += ws.weight * gain
                    uses[i] += 1
        base_consumed = self.consumed(base_config)
        return [
            IndexBenefit(
                index=ix,
                benefit=benefits[i],
                uses=uses[i],
                delta_bytes=self.consumed(singletons[i]) - base_consumed,
            )
            for i, ix in enumerate(members)
        ]

    def _revert_member(
        self, config: Configuration, member: IndexDef,
        base_config: Configuration,
    ) -> Configuration:
        """Remove one structure from ``config``: secondary/MV indexes
        are dropped outright; a base-structure variant reverts to the
        table's original base structure (a table always keeps one)."""
        if (
            member.kind in (IndexKind.HEAP, IndexKind.CLUSTERED)
            and not member.is_mv_index
        ):
            original = base_config.base_structure(member.table)
            if original is None or original == member:
                return config
            return config.replace(member, original)
        return config.remove(member)

    # -- moves: the step record, the thresholds, the result ------------
    def _result(self, config: Configuration, cost: float,
                steps: "list[str]") -> EnumerationResult:
        return EnumerationResult(
            configuration=config,
            cost=cost,
            consumed_bytes=self.consumed(config),
            steps=steps,
        )

    def _accept_threshold(self, cost: float) -> float:
        """Smallest cost drop from ``cost`` a step must achieve."""
        return self.options.min_improvement * max(cost, 1e-9)

    def _accept(self, kind: str, label: str, config: Configuration,
                cost: float, steps: "list[str]",
                on_accept: "StepHook | None" = None) -> None:
        """Record one accepted, costed step: log it, report it, move
        the delta reference onto it, then tell the caller's hook."""
        steps.append(label)
        self._emit_step(kind, label, cost)
        self._rebase(config)
        if on_accept is not None:
            on_accept(config, cost, label)

    def _floor_at_base(
        self, config: Configuration, cost: float,
        base_config: Configuration, base_cost: float, steps: "list[str]",
    ) -> "tuple[Configuration, float]":
        """A search that starts away from the base (saturated, or
        carried over from a drifted workload) can bottom out worse than
        doing nothing; never return worse than the untuned base."""
        if cost > base_cost and self.fits(base_config):
            steps.append(f"{self.name} floor: keep base {base_cost:.1f}")
            return base_config, base_cost
        return config, cost

    # -- moves: add sweeps, the Figure 8 backtrack, greedy fill --------
    def _add_moves(
        self, pool: Sequence[IndexDef], config: Configuration
    ) -> "list[tuple[IndexDef, Configuration]]":
        """Every pool member whose addition changes ``config``, with
        the configuration it leads to, in pool order."""
        moves = []
        for ix in pool:
            # A member already here adds to an equal configuration.
            candidate = config.add(ix)
            if candidate == config:
                continue
            moves.append((ix, candidate))
        return moves

    def _score_adds(
        self,
        moves: "list[tuple[IndexDef, Configuration]]",
        costs: "Sequence[float]",
        current: Configuration,
        current_cost: float,
        backtrack: bool,
    ) -> "tuple[list[tuple], tuple[float, Configuration] | None]":
        """Score one costed add sweep into its two channels.  Feasible:
        every improving move that fits the budget, as ``(score, cost,
        config, index)`` in pool order.  Best-any (``backtrack`` only):
        the largest cost drop *including oversized moves*; when that
        pick is oversized, Figure 8 compresses members until it fits,
        and it is offered as ``(cost, config)`` if it still improves."""
        feasible = []
        best_any = None  # (delta_cost, config)
        current_consumed = self.consumed(current)
        for (ix, candidate), cost in zip(moves, costs):
            delta_cost = current_cost - cost
            if delta_cost <= 0:
                continue
            consumed = self.consumed(candidate)
            if self._within_budget(consumed):
                score = self._score(delta_cost, consumed - current_consumed)
                feasible.append((score, cost, candidate, ix))
            if best_any is None or delta_cost > best_any[0]:
                best_any = (delta_cost, candidate)
        if backtrack and best_any is not None and not self.fits(best_any[1]):
            recovered = self._backtrack(best_any[1])
            if recovered is not None:
                cost = self.workload_cost(recovered)
                if cost < current_cost:
                    return feasible, (cost, recovered)
        return feasible, None

    def _fill(
        self,
        pool: "list[IndexDef]",
        current: Configuration,
        current_cost: float,
        steps: "list[str]",
        *,
        kind: str = "greedy",
        backtrack: bool = False,
        on_accept: "StepHook | None" = None,
    ) -> "tuple[Configuration, float]":
        """Greedy fill to a fixpoint (Section 6.2): per sweep, accept
        the best-scoring feasible add — or, with ``backtrack``, the
        recovered oversized pick when that is cheaper — until nothing
        clears the acceptance threshold."""
        for _step in range(MAX_FILL_STEPS):
            moves = self._add_moves(pool, current)
            # A cancellation point even when no step gets accepted:
            # every candidate sweep reports in before costing.
            self._emit("sweep", candidates=len(moves), cost=current_cost)
            costs = self._costs([candidate for _ix, candidate in moves])
            feasible, recovered = self._score_adds(
                moves, costs, current, current_cost, backtrack
            )
            chosen = None  # (cost, config, label)
            if feasible:
                # First maximum: pool order decides ties.
                _score, cost, config, ix = max(
                    feasible, key=lambda entry: entry[0]
                )
                chosen = (cost, config, f"add {ix.display_name()}")
            if recovered is not None and (
                chosen is None or recovered[0] < chosen[0]
            ):
                chosen = (*recovered, "backtrack-recover")
            if chosen is None:
                break
            new_cost, new_config, label = chosen
            if current_cost - new_cost < self._accept_threshold(
                current_cost
            ):
                break
            self._accept(
                kind, f"{label}: {current_cost:.1f} -> {new_cost:.1f}",
                new_config, new_cost, steps, on_accept,
            )
            current, current_cost = new_config, new_cost
        return current, current_cost

    def _backtrack(self, oversized: Configuration) -> Configuration | None:
        """Figure 8: repeatedly swap members to compressed variants,
        choosing at each round the swap that performs fastest while
        shrinking, until the configuration fits (or no swap helps)."""
        config = oversized
        for _round in range(len(list(config)) + 1):
            config_consumed = self.consumed(config)
            if self._within_budget(config_consumed):
                return config
            best = None  # (cost, config)
            swaps = []
            for ix in config.ordered():
                if ix.is_compressed:
                    continue
                if ix.kind not in (IndexKind.SECONDARY, IndexKind.CLUSTERED,
                                   IndexKind.HEAP):
                    continue
                for method in (CompressionMethod.ROW, CompressionMethod.PAGE):
                    variant = ix.with_method(method)
                    swapped = config.replace(ix, variant)
                    if self.consumed(swapped) >= config_consumed:
                        continue
                    swaps.append(swapped)
            swap_costs = self._costs(swaps)
            for swapped, swap_cost in zip(swaps, swap_costs):
                if best is None or swap_cost < best[0]:
                    best = (swap_cost, swapped)
            if best is None:
                return None
            config = best[1]
        return config if self.fits(config) else None

    # -- moves: method polish ------------------------------------------
    def _polish(
        self,
        config: Configuration,
        cost: float,
        steps: "list[str]",
        *,
        kind: str = "polish",
        sweep_events: bool = False,
        on_accept: "StepHook | None" = None,
    ) -> "tuple[Configuration, float]":
        """Final hill-climb over per-structure compression methods.

        Generalizes the backtracking swap of Figure 8 to the finished
        configuration and to *both* directions: compress a structure when
        the I/O savings beat the CPU overhead, decompress one when they
        do not.  Accepts any single method swap that lowers the workload
        cost while staying within budget, to a fixpoint.  Because the
        what-if cost is (near-)additive per structure, this reaches the
        per-structure best method without an exponential search.
        ``sweep_events`` adds a cancellation point before each round's
        costing, for strategies whose clients cancel mid-run.
        """
        self._rebase(config)
        if self.options.allow_compression:
            methods = (CompressionMethod.NONE, CompressionMethod.ROW,
                       CompressionMethod.PAGE)
        else:
            methods = (CompressionMethod.NONE,)
        for _round in range(len(list(config)) * len(methods) + 1):
            best_swap = None  # (cost, config, label)
            swaps = []
            for ix in config.ordered():
                for method in methods:
                    if method is ix.method:
                        continue
                    swapped = config.replace(ix, ix.with_method(method))
                    if not self.fits(swapped):
                        continue
                    swaps.append((ix, method, swapped))
            if sweep_events:
                self._emit("sweep", candidates=len(swaps), cost=cost)
            swap_costs = self._costs([swapped for _ix, _m, swapped in swaps])
            for (ix, method, swapped), swap_cost in zip(swaps, swap_costs):
                if swap_cost < cost - 1e-9 and (
                    best_swap is None or swap_cost < best_swap[0]
                ):
                    best_swap = (
                        swap_cost,
                        swapped,
                        f"polish {ix.display_name()} -> {method.name}",
                    )
            if best_swap is None:
                break
            cost, config = best_swap[0], best_swap[1]
            self._accept(kind, f"{best_swap[2]}: -> {cost:.1f}",
                         config, cost, steps, on_accept)
        return config, cost

    # -- moves: drops --------------------------------------------------
    def _droppable(
        self, config: Configuration, base_config: Configuration
    ) -> "list[IndexDef]":
        """Structures eligible for removal, in the stable member order:
        everything that is not part of the original base."""
        return [ix for ix in config.ordered() if ix not in base_config]

    def _drop_ranking(
        self, members: Sequence[IndexDef], base_config: Configuration
    ) -> "Callable[[IndexDef], tuple]":
        """The one drop ordering, as a sort key: ``members`` get fresh
        benefit attribution under the current workload and rank fewest
        uses first, then lowest benefit density (the usage/size
        drop-candidate idiom), display-name tie-break; a structure
        without attributed benefit ranks before all of them."""
        benefits = {
            entry.index: entry
            for entry in self._attributed_benefits(members, base_config)
        }

        def drop_rank(ix: IndexDef) -> tuple:
            entry = benefits.get(ix)
            if entry is None:
                return (0, 0.0, ix.display_name())
            return (entry.uses, entry.density(), ix.display_name())

        return drop_rank

    def _relax_to_budget(
        self,
        config: Configuration,
        base_config: Configuration,
        drop_rank: "Callable[[IndexDef], tuple]",
        steps: "list[str]",
    ) -> Configuration:
        """Cheap relaxation: while over budget, drop the secondary/MV
        structure that ranks first under ``drop_rank``, without
        recosting every round.  Base-structure swaps are never dropped
        here: reverting a compressed heap *grows* consumption."""
        while not self.fits(config):
            self._emit("sweep", candidates=len(list(config)),
                       consumed_bytes=self.consumed(config))
            candidates = [
                ix for ix in self._droppable(config, base_config)
                if ix.kind is IndexKind.SECONDARY or ix.is_mv_index
            ]
            if not candidates:
                break
            victim = min(candidates, key=drop_rank)
            config = config.remove(victim)
            steps.append(f"drop {victim.display_name()}")
            self._emit_step("drop", steps[-1],
                            consumed_bytes=self.consumed(config))
        return config

    def _drop_iterations(
        self,
        config: Configuration,
        cost: float,
        base_config: Configuration,
        steps: "list[str]",
    ) -> "tuple[Configuration, float]":
        """Terminating drop iterations: accept the single removal with
        the best true workload cost each round; stop when no removal
        lowers the cost (unless still over budget, where the cheapest
        space-freeing removal is accepted regardless).  Each round
        removes one structure, so termination is structural."""
        for _round in range(len(list(config)) + 1):
            droppable = self._droppable(config, base_config)
            if not droppable:
                break
            self._emit("sweep", candidates=len(droppable), cost=cost)
            removals = [
                self._revert_member(config, ix, base_config)
                for ix in droppable
            ]
            kept = [
                (ix, removed)
                for ix, removed in zip(droppable, removals)
                if removed != config
            ]
            costs = self._costs([removed for _ix, removed in kept])
            best = None        # (cost, -freed, name) — comparable key
            best_config = None
            for (ix, removed), removed_cost in zip(kept, costs):
                freed = self.consumed(config) - self.consumed(removed)
                key = (removed_cost, -freed, ix.display_name())
                if best is None or key < best:
                    best, best_config = key, removed
            if best is None:
                break
            over_budget = not self.fits(config)
            improves = best[0] < cost - 1e-9
            frees = -best[1] > 0
            if not improves and not (over_budget and frees):
                break
            cost, config = best[0], best_config
            self._accept("drop", f"relax {best[2]}: -> {cost:.1f}",
                         config, cost, steps)
        return config, cost

    # ------------------------------------------------------------------
    def run(self, pool: "list[IndexDef]",
            base_config: Configuration) -> EnumerationResult:
        """Search for the best configuration reachable from
        ``base_config`` by adding pool members (and swapping their
        compression methods), honoring the storage budget."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: "dict[str, type[SelectionAlgorithm]]" = {}

#: the algorithm ``AdvisorOptions.algorithm`` defaults to.
DEFAULT_ALGORITHM = "greedy-backtrack"


def register(cls: "type[SelectionAlgorithm]") -> "type[SelectionAlgorithm]":
    """Register a selection algorithm under its ``name`` (usable as a
    class decorator).  Re-registering a name is an error — silent
    replacement would let a typo shadow a built-in."""
    if not cls.name:
        raise AdvisorError(f"{cls.__name__} has no registry name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise AdvisorError(
            f"selection algorithm {cls.name!r} is already registered"
        )
    _REGISTRY[cls.name] = cls
    return cls


def get(name: str) -> "type[SelectionAlgorithm]":
    """Resolve an algorithm name; unknown names fail with the valid
    set spelled out (the service maps this to a 400)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AdvisorError(
            f"unknown selection algorithm {name!r}; "
            f"choose from {sorted(_REGISTRY)}"
        ) from None


def names() -> "list[str]":
    """Registered algorithm names, sorted."""
    return sorted(_REGISTRY)


def registered() -> "dict[str, type[SelectionAlgorithm]]":
    """A copy of the registry (name -> class)."""
    return dict(_REGISTRY)
