"""Drop-based relaxation: start from everything, remove until it fits.

The mirror image of greedy construction (and the idiom of several
production tuners): materialize the *full* candidate pool on top of the
base configuration, then repeatedly drop the structure with the lowest
attributed benefit density until the budget is met, finishing with
cost-checked drop iterations that terminate at the first round where no
drop helps.

Phases:

1. **Saturate** — add every pool candidate to the base configuration.
   Method variants of the same logical index collapse to one structure
   (the smallest estimated variant), otherwise the start state would
   hold NONE/ROW/PAGE triplets of every candidate.
2. **Budget relaxation** — per-candidate benefits are attributed once
   (same machinery as the knapsack algorithm); while the configuration
   is over budget, drop the secondary/MV structure with the lowest
   benefit density (fewest uses first, display-name tie-break).
   Base-structure swaps are never dropped here: reverting a compressed
   heap *grows* consumption.
3. **Terminating drop iterations** — while over-budget or improving:
   batch-cost every single-structure removal and accept the one with
   the best true cost; stop at the first round where no removal lowers
   the cost (or, when still over budget, frees space at a cost increase
   below the acceptance threshold).  Each round removes one structure,
   so termination is structural, not clocked.
"""

from __future__ import annotations

from repro.advisor.algorithms.base import (
    EnumerationResult,
    SelectionAlgorithm,
    register,
)
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.storage.index_build import IndexKind

#: method tie-break for equal quantized sizes: cheapest CPU first.
_METHOD_RANK = {"none": 0, "row": 1, "page": 2}


@register
class RelaxationAlgorithm(SelectionAlgorithm):
    """Start from the full expanded/merged pool and iteratively drop
    the lowest benefit-density structure until the budget fits."""

    name = "relaxation"
    summary = (
        "Saturate with the full candidate pool, then drop the lowest "
        "benefit-density structures until the budget fits"
    )

    def run(self, pool: list[IndexDef],
            base_config: Configuration) -> EnumerationResult:
        self._rebase(base_config)
        base_cost = self.workload_cost(base_config)
        steps: list[str] = []
        config = self._saturate(pool, base_config, steps)
        if config == base_config:
            return EnumerationResult(
                configuration=base_config,
                cost=base_cost,
                consumed_bytes=self.consumed(base_config),
                steps=steps,
            )
        benefits = {
            entry.index: entry
            for entry in self._attributed_benefits(pool, base_config)
        }
        self._rebase(config)
        config = self._relax_to_budget(config, base_config, benefits, steps)
        self._rebase(config)
        cost = self.batch_cost([config])[0]
        config, cost = self._drop_iterations(
            config, cost, base_config, steps
        )
        if cost > base_cost and self.fits(base_config):
            # Relaxation bottomed out worse than doing nothing.
            steps.append(f"relaxation floor: keep base {base_cost:.1f}")
            config, cost = base_config, base_cost
        return EnumerationResult(
            configuration=config,
            cost=cost,
            consumed_bytes=self.consumed(config),
            steps=steps,
        )

    # ------------------------------------------------------------------
    def _saturate(
        self,
        pool: list[IndexDef],
        base_config: Configuration,
        steps: list[str],
    ) -> Configuration:
        """Base + every pool candidate, one structure per logical index
        (the smallest method variant; NONE < ROW < PAGE tie-break keeps
        the choice deterministic under equal quantized sizes)."""
        by_identity: dict[tuple, IndexDef] = {}
        for ix in pool:
            identity = (
                ix.table, tuple(ix.key_columns),
                tuple(ix.included_columns), ix.kind, ix.filter,
                ix.is_mv_index,
            )
            best = by_identity.get(identity)
            if best is None or (
                self.index_size(ix), _METHOD_RANK[ix.method.value]
            ) < (self.index_size(best), _METHOD_RANK[best.method.value]):
                by_identity[identity] = ix
        config = base_config
        for ix in by_identity.values():
            if ix in config:
                continue
            candidate = config.add(ix)
            if candidate != config:
                config = candidate
        steps.append(
            f"saturate: {len(list(config))} structures, "
            f"{self.consumed(config):.0f} bytes"
        )
        self._emit_step("saturate", steps[-1],
                        consumed_bytes=self.consumed(config))
        return config

    def _droppable(
        self, config: Configuration, base_config: Configuration
    ) -> list[IndexDef]:
        """Structures eligible for removal, in the stable member order:
        everything that is not part of the original base."""
        return [ix for ix in config.ordered() if ix not in base_config]

    def _relax_to_budget(
        self,
        config: Configuration,
        base_config: Configuration,
        benefits: dict,
        steps: list[str],
    ) -> Configuration:
        """Cheap relaxation: while over budget, drop the secondary/MV
        structure with the lowest attributed benefit density (fewest
        uses first, per the usage/size drop-candidate idiom) without
        recosting every round."""
        while not self.fits(config):
            self._emit("sweep", candidates=len(list(config)),
                       consumed_bytes=self.consumed(config))
            candidates = [
                ix for ix in self._droppable(config, base_config)
                if ix.kind is IndexKind.SECONDARY or ix.is_mv_index
            ]
            if not candidates:
                break
            def drop_rank(ix: IndexDef):
                entry = benefits.get(ix)
                if entry is None:
                    return (0, 0.0, ix.display_name())
                return (entry.uses, entry.density(), ix.display_name())
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
        steps: list[str],
    ) -> tuple[Configuration, float]:
        """Terminating drop iterations: accept the single removal with
        the best true workload cost each round; stop when no removal
        lowers the cost (unless still over budget, where the cheapest
        space-freeing removal is accepted regardless)."""
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
            costs = self.batch_cost([removed for _ix, removed in kept])
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
            self._rebase(config)
            steps.append(f"relax {best[2]}: -> {cost:.1f}")
            self._emit_step("drop", steps[-1], cost)
        return config, cost
