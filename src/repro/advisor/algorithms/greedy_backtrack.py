"""The paper's search: greedy over the candidate union (Section 6.2)
with seeded multi-start, per-step backtracking, and a final method
polish — extracted verbatim from the original ``Enumerator`` so golden
recommendations stay byte-identical.

Variants (all knobs on :class:`EnumerationOptions`):

* **pure greedy** — add the index with the largest workload-cost drop
  that still fits the budget (classic DTA).
* **density greedy** — rank by benefit per byte (DB2-advisor style).
* **backtracking** — when the best choice is oversized, try to *recover*
  it by swapping indexes of the tentative configuration to compressed
  variants until it fits (Figure 8), then compare against the feasible
  greedy choices as usual.
* **seeded multi-start** — greedy search is not monotone in the budget:
  with a large budget the single best first pick can be a huge covering
  index that strands the search in a poor local optimum. Like the
  Greedy(m,k) enumeration of the original index-selection work
  (Chaudhuri & Narasayya, VLDB 1997) that DTA itself uses, we run the
  greedy loop from each of the top ``seed_fanout`` first choices and
  keep the cheapest final configuration.
"""

from __future__ import annotations

from repro.advisor.algorithms.base import (
    EnumerationResult,
    SelectionAlgorithm,
    register,
)
from repro.compression.base import CompressionMethod
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.storage.index_build import IndexKind


@register
class GreedyBacktrackAlgorithm(SelectionAlgorithm):
    """Runs the greedy/density/backtracking search."""

    name = "greedy-backtrack"
    summary = (
        "Seeded multi-start greedy with compression backtracking and a "
        "final method polish (the paper's DTA/DTAc search; default)"
    )

    @classmethod
    def options_schema(cls) -> dict:
        return {
            **super().options_schema(),
            "strategy": {
                "type": "string", "default": "greedy",
                "description": "'greedy' (cost drop) or 'density' "
                               "(cost drop per byte) step scoring",
            },
            "backtracking": {
                "type": "boolean", "default": False,
                "description": "recover oversized picks by compressing "
                               "members until they fit (Figure 8)",
            },
            "seed_fanout": {
                "type": "integer", "default": 3,
                "description": "distinct first choices to grow full "
                               "greedy runs from",
            },
        }

    def _bound_pruning_safe(self) -> bool:
        # Greedy scoring only: score == delta_cost, so a candidate whose
        # optimistic cap is strictly below a costed survivor's delta can
        # win neither selection channel.  Without backtracking that
        # yields the plain threshold prune; with backtracking the sweep
        # routes through the rescue prune (see
        # ``_rescue_candidate_costs``), which additionally protects the
        # best-oversized channel.  Density scoring stays unpruned: its
        # score is delta/size, so a tiny-delta candidate can outrank
        # arbitrarily large deltas.
        return self.options.strategy == "greedy"

    def run(self, pool: list[IndexDef],
            base_config: Configuration) -> EnumerationResult:
        """Search for the best configuration reachable from
        ``base_config`` by adding pool members: seeded multi-start
        greedy, per-step backtracking, and a final method polish."""
        self._rebase(base_config)
        base_cost = self.workload_cost(base_config)
        starts = self._starting_points(pool, base_config, base_cost)
        if not starts:
            return EnumerationResult(
                configuration=base_config,
                cost=base_cost,
                consumed_bytes=self.consumed(base_config),
                steps=[],
            )
        best: EnumerationResult | None = None
        for cost, config, label in starts:
            steps = [f"{label}: {base_cost:.1f} -> {cost:.1f}"]
            self._emit_step("seed", steps[0], cost)
            self._rebase(config)
            result = self._greedy_loop(pool, config, cost, steps)
            if best is None or result.cost < best.cost:
                best = result
        return self._polish(best)

    def _starting_points(
        self,
        pool: list[IndexDef],
        base: Configuration,
        base_cost: float,
    ) -> list[tuple[float, Configuration, str]]:
        """Top ``seed_fanout`` feasible first moves (by score), plus a
        backtrack-recovery of the best oversized move when enabled."""
        moves = []
        for ix in pool:
            if ix in base:
                continue
            candidate = base.add(ix)
            if candidate == base:
                continue
            moves.append((ix, candidate))
        # Zero-delta certificates only: bound pruning could drop a
        # tiny-improvement move that the full path would still seed a
        # greedy start from when fewer than ``seed_fanout`` moves score.
        costs = self._candidate_costs(
            [candidate for _ix, candidate in moves], None
        )
        scored: list[tuple[float, float, Configuration, str]] = []
        best_any = None  # (delta_cost, config)
        base_consumed = self.consumed(base)
        for (ix, candidate), cost in zip(moves, costs):
            if cost is None:
                continue
            delta_cost = base_cost - cost
            if delta_cost <= 0:
                continue
            consumed = self.consumed(candidate)
            delta_size = consumed - base_consumed
            if self._within_budget(consumed):
                scored.append((
                    self._score(delta_cost, delta_size),
                    cost,
                    candidate,
                    f"add {ix.display_name()}",
                ))
            if best_any is None or delta_cost > best_any[0]:
                best_any = (delta_cost, candidate)
        scored.sort(key=lambda entry: -entry[0])
        fanout = max(1, self.options.seed_fanout)
        starts = [
            (cost, config, label)
            for _score, cost, config, label in scored[:fanout]
        ]
        if (
            self.options.backtracking
            and best_any is not None
            and not self.fits(best_any[1])
        ):
            recovered = self._backtrack(best_any[1])
            if recovered is not None:
                rec_cost = self.workload_cost(recovered)
                if rec_cost < base_cost:
                    starts.append((rec_cost, recovered, "backtrack-recover"))
        return starts

    def _greedy_loop(
        self,
        pool: list[IndexDef],
        current: Configuration,
        current_cost: float,
        steps: list[str],
    ) -> EnumerationResult:
        options = self.options
        for _step in range(options.max_steps):
            best_feasible = None  # (score, cost, config, label)
            best_any = None       # (delta_cost, cost, config, index)
            moves = []
            for ix in pool:
                if ix in current:
                    continue
                candidate = current.add(ix)
                if candidate == current:
                    continue
                moves.append((ix, candidate))
            # A cancellation point even when no step gets accepted:
            # every candidate sweep reports in before costing.
            self._emit("sweep", candidates=len(moves), cost=current_cost)
            if self._prune_bounds and options.backtracking:
                costs = self._rescue_candidate_costs(
                    [candidate for _ix, candidate in moves], current_cost
                )
            else:
                threshold = None
                if self._prune_bounds:
                    # Half the acceptance threshold: the slack covers
                    # float accumulation differences between the
                    # optimistic bound and the full path's total, so a
                    # pruned move could at most be chosen-and-rejected
                    # below min_improvement.
                    threshold = 0.5 * options.min_improvement * max(
                        current_cost, 1e-9
                    )
                costs = self._candidate_costs(
                    [candidate for _ix, candidate in moves], threshold
                )
            current_consumed = self.consumed(current)
            for (ix, candidate), cost in zip(moves, costs):
                if cost is None:
                    continue
                delta_cost = current_cost - cost
                if delta_cost <= 0:
                    continue
                consumed = self.consumed(candidate)
                delta_size = consumed - current_consumed
                if self._within_budget(consumed):
                    score = self._score(delta_cost, delta_size)
                    if best_feasible is None or score > best_feasible[0]:
                        best_feasible = (
                            score, cost, candidate, ix.display_name()
                        )
                if best_any is None or delta_cost > best_any[0]:
                    best_any = (delta_cost, cost, candidate, ix)

            chosen = None
            if best_feasible is not None:
                chosen = (best_feasible[1], best_feasible[2],
                          f"add {best_feasible[3]}")

            if (
                options.backtracking
                and best_any is not None
                and not self.fits(best_any[2])
            ):
                recovered = self._backtrack(best_any[2])
                if recovered is not None:
                    rec_cost = self.workload_cost(recovered)
                    if (
                        rec_cost < current_cost
                        and (chosen is None or rec_cost < chosen[0])
                    ):
                        chosen = (rec_cost, recovered, "backtrack-recover")

            if chosen is None:
                break
            new_cost, new_config, label = chosen
            if (current_cost - new_cost) < options.min_improvement * max(
                current_cost, 1e-9
            ):
                break
            steps.append(f"{label}: {current_cost:.1f} -> {new_cost:.1f}")
            self._emit_step("greedy", steps[-1], new_cost)
            current, current_cost = new_config, new_cost
            self._rebase(current)

        return EnumerationResult(
            configuration=current,
            cost=current_cost,
            consumed_bytes=self.consumed(current),
            steps=steps,
        )

    def _rescue_candidate_costs(
        self, candidates: list, current_cost: float
    ) -> list:
        """Bound pruning for the *backtracking* sweep (the PR 3 open
        question): costs in candidate order, None for provably
        invisible candidates.

        Backtracking consumes a sweep through two channels — the best
        feasible pick and the best pick *including oversized ones*,
        whose Figure-8 recovery compresses current members and can
        therefore unlock improvements beyond the candidate's own delta.
        A cap below the acceptance threshold is no longer a safe prune
        by itself: the pruned candidate could have been the channel
        maximum.  So the sweep defers low-cap candidates, costs the
        rest, and then *rescues* (costs after all) every deferred
        candidate whose cap does not lose **strictly** to a costed
        survivor in each channel it can enter:

        * best-any channel: rescued unless some survivor's delta
          strictly exceeds the cap (ties rescue — pool order decides
          ties, and the candidate could be earlier);
        * best-feasible channel (fitting candidates only): same test
          against the best *fitting* survivor delta.

        A candidate left pruned has ``delta <= cap <`` both channel
        maxima, so under greedy scoring (score == delta) it can win
        neither selection — the sweep's outcome, tie-breaks included,
        is decision-identical to costing everything.  Rescued deltas
        are bounded by their caps, which lose to the precomputed
        maxima, so rescue can never shift the maxima and one pass
        suffices."""
        delta = self.delta
        threshold = 0.5 * self.options.min_improvement * max(
            current_cost, 1e-9
        )
        costs: list = [None] * len(candidates)
        deferred: list[int] = []
        to_cost: list[int] = []
        caps: dict[int, float] = {}
        for i, candidate in enumerate(candidates):
            if not delta.improvement_possible(candidate, None):
                continue  # zero-delta certificate: exact per strategy
            cap = delta.improvement_cap(candidate)
            if cap is not None and cap < threshold:
                caps[i] = cap
                deferred.append(i)
            else:
                to_cost.append(i)
        for i, cost in zip(
            to_cost, self.batch_cost([candidates[i] for i in to_cost])
        ):
            costs[i] = cost
        if not deferred:
            return costs
        max_any = None
        max_fit = None
        for i in to_cost:
            gain = current_cost - costs[i]
            if gain <= 0:
                continue
            if max_any is None or gain > max_any:
                max_any = gain
            if self.fits(candidates[i]) and (
                max_fit is None or gain > max_fit
            ):
                max_fit = gain
        rescued: list[int] = []
        for i in deferred:
            cap = caps[i]
            if max_any is None or cap >= max_any:
                rescued.append(i)
            elif self.fits(candidates[i]) and (
                max_fit is None or cap >= max_fit
            ):
                rescued.append(i)
        for i, cost in zip(
            rescued, self.batch_cost([candidates[i] for i in rescued])
        ):
            costs[i] = cost
        pruned = len(deferred) - len(rescued)
        if pruned:
            delta.note_bound_pruned(pruned)
        return costs

    # ------------------------------------------------------------------
    def _polish(self, result: EnumerationResult) -> EnumerationResult:
        """Final hill-climb over per-structure compression methods.

        Generalizes the backtracking swap of Figure 8 to the finished
        configuration and to *both* directions: compress a structure when
        the I/O savings beat the CPU overhead, decompress one when they
        do not.  Accepts any single method swap that lowers the workload
        cost while staying within budget, to a fixpoint.  Because the
        what-if cost is (near-)additive per structure, this reaches the
        per-structure best method without an exponential search.
        """
        config, cost = result.configuration, result.cost
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
            swap_costs = self.batch_cost(
                [swapped for _ix, _m, swapped in swaps]
            )
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
            self._rebase(config)
            result.steps.append(f"{best_swap[2]}: -> {cost:.1f}")
            self._emit_step("polish", result.steps[-1], cost)
        return EnumerationResult(
            configuration=config,
            cost=cost,
            consumed_bytes=self.consumed(config),
            steps=result.steps,
        )

    # ------------------------------------------------------------------
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
            swap_costs = self.batch_cost(swaps)
            for swapped, swap_cost in zip(swaps, swap_costs):
                if best is None or swap_cost < best[0]:
                    best = (swap_cost, swapped)
            if best is None:
                return None
            config = best[1]
        return config if self.fits(config) else None
