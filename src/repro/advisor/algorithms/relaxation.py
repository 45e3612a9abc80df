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
   cost every single-structure removal and accept the one with
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
            return self._result(base_config, base_cost, steps)
        drop_rank = self._drop_ranking(pool, base_config)
        self._rebase(config)
        config = self._relax_to_budget(config, base_config, drop_rank, steps)
        self._rebase(config)
        cost = self._costs([config])[0]
        config, cost = self._drop_iterations(
            config, cost, base_config, steps
        )
        config, cost = self._floor_at_base(
            config, cost, base_config, base_cost, steps
        )
        return self._result(config, cost, steps)

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
