"""The selection-algorithm contract: one abstract base every search
strategy implements, plus the registry ``AdvisorOptions.algorithm``
resolves through.

A :class:`SelectionAlgorithm` is handed the advisor's prepared state —
the candidate pool, the base configuration, a workload-cost callable
(optionally batched, optionally delta-aware)
and a size callable — and returns an :class:`EnumerationResult`.  The
base class owns everything the strategies share:

* storage accounting (``consumed`` / ``fits``): secondary/MV indexes
  consume their full size; a base structure consumes the *difference*
  against the table's original base, so compressing a heap frees budget
  (Appendix D.2);
* progress events (``_emit`` / ``_emit_step``) — the tuning service's
  cancellation path rides these hooks;
* delta-coster integration (``_rebase`` / ``_candidate_costs``) with
  bound-based pruning gated per algorithm (only decision-identical
  under pure-greedy acceptance);
* per-statement benefit attribution (``_attributed_benefits``), shared
  by the knapsack and relaxation strategies.

Concrete strategies register with :func:`register` and are resolved by
name through :func:`get`; ``names()`` lists the valid set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.errors import AdvisorError
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.storage.index_build import IndexKind
from repro.workload.query import SelectQuery, Workload

#: Batched costing hook: all of one sweep's candidate configurations at
#: once, returning their workload costs in input order.  The advisor
#: wires the what-if optimizer's batch API in here; the default
#: recomputes through the per-configuration callable, so both paths see
#: identical floats.
BatchCost = Callable[[Sequence[Configuration]], "list[float]"]

#: Per-statement costing hook: one query's costs under many (small)
#: configurations — the advisor's delta-aware/cache-aware batch API.
#: Strategies that attribute benefit per statement (knapsack,
#: relaxation) consume this; greedy strategies never touch it.
QueryCostBatch = Callable[
    [SelectQuery, Sequence[Configuration]], "list[float]"
]

#: Byte floor for benefit-per-byte densities: below one page, size
#: differences are quantization noise, not signal.
DENSITY_FLOOR_BYTES = 8192.0


@dataclass(frozen=True)
class EnumerationOptions:
    """Search knobs.

    Attributes:
        budget_bytes: storage budget for additional structures.
        strategy: 'greedy' or 'density'.
        backtracking: enable the oversized-choice recovery phase.
        max_steps: hard cap on greedy iterations.
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
    max_steps: int = 60
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

    Subclasses set :attr:`name` / :attr:`summary`, implement
    :meth:`run`, and may override :meth:`_bound_pruning_safe` when their
    acceptance rule makes the delta coster's bound pruning
    decision-identical (pure-greedy only; zero-delta certificates are
    exact under every strategy and always apply).
    """

    #: registry key (``AdvisorOptions.algorithm``); None = abstract.
    name: "str | None" = None
    #: one-line description for ``/v1/algorithms`` and the CLI table.
    summary: str = ""

    def __init__(
        self,
        workload: Workload,
        workload_cost: Callable[[Configuration], float],
        index_size: Callable[[IndexDef], float],
        original_base_sizes: Mapping[str, float],
        options: EnumerationOptions,
        batch_cost: BatchCost | None = None,
        delta: "object | None" = None,
        progress: "Callable[[dict], None] | None" = None,
        query_cost_batch: QueryCostBatch | None = None,
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
        self.batch_cost = batch_cost or (
            lambda configs: [self.workload_cost(c) for c in configs]
        )
        self.query_cost_batch = query_cost_batch
        #: optional DeltaWorkloadCoster: candidate pruning + reference
        #: rebasing.  Bound-based pruning is only decision-identical to
        #: the full path under pure-greedy acceptance (a pruned
        #: candidate can then only ever be chosen-and-rejected below
        #: min_improvement, which leaves the same search state);
        #: zero-delta certificates are exact under every strategy.
        self.delta = delta
        self._prune_bounds = (
            delta is not None and self._bound_pruning_safe()
        )

    # -- registry metadata ---------------------------------------------
    @classmethod
    def options_schema(cls) -> dict:
        """JSON-able schema of the options this algorithm reads —
        served by ``GET /v1/algorithms``.  Every algorithm honors the
        shared budget/improvement knobs; subclasses extend with their
        own."""
        return {
            "budget_bytes": {
                "type": "number",
                "description": "storage budget for additional structures",
            },
            "min_improvement": {
                "type": "number", "default": 1e-4,
                "description": "relative cost-drop acceptance threshold",
            },
        }

    def _bound_pruning_safe(self) -> bool:
        """Whether the delta coster's bound pruning is decision-
        identical for this algorithm's acceptance rule.  Conservative
        default: no (zero-delta certificates still apply)."""
        return False

    # ------------------------------------------------------------------
    def consumed(self, config: Configuration) -> float:
        """Budget bytes a configuration consumes: secondary/MV indexes in
        full; base structures as the delta against the original base
        (compressing a heap *frees* budget)."""
        terms = []
        for ix in config:
            if ix.kind is IndexKind.SECONDARY or ix.is_mv_index:
                terms.append(self.index_size(ix))
            else:
                original = self.original_base_sizes.get(ix.table)
                if original is None:
                    raise AdvisorError(
                        f"no original base size for table {ix.table!r}"
                    )
                terms.append(self.index_size(ix) - original)
        # fsum: exact, hence independent of set iteration order — the
        # budget boundary must not wobble with PYTHONHASHSEED.
        return math.fsum(terms)

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

    def _candidate_costs(
        self,
        candidates: Sequence[Configuration],
        threshold: float | None,
    ) -> "list[float | None]":
        """Costs of a candidate sweep, with None for candidates the
        delta coster proves cannot improve on the reference — the full
        path would compute ``delta_cost <= 0`` (zero-delta certificate)
        or an improvement below the acceptance threshold (bound prune),
        and skip them identically."""
        if self.delta is None:
            return list(self.batch_cost(candidates))
        decisions = [
            self.delta.improvement_possible(candidate, threshold)
            for candidate in candidates
        ]
        survivors = [
            candidate
            for candidate, keep in zip(candidates, decisions) if keep
        ]
        costs = iter(self.batch_cost(survivors))
        return [next(costs) if keep else None for keep in decisions]

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
        that is the knapsack/relaxation approximation), deterministic
        in pool order, and batched per statement through the delta-
        aware query-cost hook when the advisor wired one."""
        members: list[IndexDef] = []
        singletons: list[Configuration] = []
        for ix in pool:
            if ix in base_config:
                continue
            candidate = base_config.add(ix)
            if candidate == base_config:
                continue
            members.append(ix)
            singletons.append(candidate)
        benefits = [0.0] * len(members)
        uses = [0] * len(members)
        if self.query_cost_batch is not None:
            for ws in self.workload.queries:
                costs = self.query_cost_batch(
                    ws.statement, [base_config, *singletons]
                )
                base_cost = costs[0]
                for i, cost in enumerate(costs[1:]):
                    gain = base_cost - cost
                    if gain > 0:
                        benefits[i] += ws.weight * gain
                        uses[i] += 1
        else:
            # No per-statement hook (direct construction): fall back to
            # whole-workload costs — coarser but the same shape.
            base_cost = self.workload_cost(base_config)
            for i, cost in enumerate(self.batch_cost(singletons)):
                gain = base_cost - cost
                if gain > 0:
                    benefits[i] += gain
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
