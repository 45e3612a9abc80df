"""The paper's search: greedy over the candidate union (Section 6.2)
with seeded multi-start, per-step backtracking, and a final method
polish — as an ordering of the shared moves: seed from the top
``seed_fanout`` scores of one add sweep, ``_fill`` each start, keep the
cheapest, ``_polish`` it.

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
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef


@register
class GreedyBacktrackAlgorithm(SelectionAlgorithm):
    """Runs the greedy/density/backtracking search."""

    name = "greedy-backtrack"
    summary = (
        "Seeded multi-start greedy with compression backtracking and a "
        "final method polish (the paper's DTA/DTAc search; default)"
    )

    option_descriptions = {
        **SelectionAlgorithm.option_descriptions,
        "strategy": "'greedy' (cost drop) or 'density' (cost drop per "
                    "byte) step scoring",
        "backtracking": "recover oversized picks by compressing members "
                        "until they fit (Figure 8)",
        "seed_fanout": "distinct first choices to grow full greedy runs "
                       "from",
    }

    def run(self, pool: list[IndexDef],
            base_config: Configuration) -> EnumerationResult:
        """Search for the best configuration reachable from
        ``base_config`` by adding pool members: seeded multi-start
        greedy, per-step backtracking, and a final method polish."""
        self._rebase(base_config)
        base_cost = self.workload_cost(base_config)
        best = None  # (cost, config, steps)
        for cost, config, label in self._starting_points(
            pool, base_config, base_cost
        ):
            steps: list[str] = []
            self._accept("seed", f"{label}: {base_cost:.1f} -> {cost:.1f}",
                         config, cost, steps)
            config, cost = self._fill(
                pool, config, cost, steps,
                backtrack=self.options.backtracking,
            )
            if best is None or cost < best[0]:
                best = (cost, config, steps)
        if best is None:
            return self._result(base_config, base_cost, [])
        cost, config, steps = best
        config, cost = self._polish(config, cost, steps)
        return self._result(config, cost, steps)

    def _starting_points(
        self,
        pool: list[IndexDef],
        base: Configuration,
        base_cost: float,
    ) -> list[tuple[float, Configuration, str]]:
        """Top ``seed_fanout`` feasible first moves (by score), plus a
        backtrack-recovery of the best oversized move when enabled."""
        moves = self._add_moves(pool, base)
        costs = self._costs([candidate for _ix, candidate in moves])
        feasible, recovered = self._score_adds(
            moves, costs, base, base_cost, self.options.backtracking
        )
        feasible.sort(key=lambda entry: -entry[0])
        starts = [
            (cost, config, f"add {ix.display_name()}")
            for _score, cost, config, ix in feasible[:self.options.seed_fanout]
        ]
        if recovered is not None:
            starts.append((*recovered, "backtrack-recover"))
        return starts
