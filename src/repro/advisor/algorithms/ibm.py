"""IBM-style knapsack selection (Valentin et al., "DB2 Advisor: An
optimizer smart enough to recommend its own indexes", ICDE 2000).

Three phases over the shared candidate pool:

1. **Attribution** — every candidate's benefit is the weighted sum of
   the per-statement cost reductions it achieves *alone* on top of the
   base configuration (batched through the advisor's delta-aware
   query-cost hook).  Candidates whose key prefix and column set are
   covered by a wider same-method candidate are folded into it
   (*subsumption combining*), so the knapsack does not spend budget on
   redundant prefixes.
2. **Knapsack fill** — candidates are taken in benefit/size-ratio order
   while they fit the budget.  Base-structure swaps with a negative
   size delta (compressing a heap *frees* budget) rank first: they
   relax the constraint for everything after them.
3. **try_variations** — a budgeted random-swap refinement: remove a few
   members, refill by ratio order, keep the variation only when the
   true workload cost improves.  Unlike the original's wall-clock
   limit, the budget is an *iteration count* and the RNG is seeded per
   run, so recommendations are reproducible across machines, worker
   counts and hash seeds.
"""

from __future__ import annotations

import random

from repro.advisor.algorithms.base import (
    EnumerationResult,
    IndexBenefit,
    SelectionAlgorithm,
    register,
)
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef


@register
class IBMKnapsackAlgorithm(SelectionAlgorithm):
    """Benefit/size-ratio knapsack with subsumption combining and a
    deterministic budgeted random-swap refinement."""

    name = "ibm"
    summary = (
        "Per-statement benefit attribution, benefit/size-ratio knapsack "
        "with subsumption combining, seeded try_variations refinement"
    )

    #: random-swap refinement budget — iterations, not seconds, so the
    #: search is wall-clock-free and reproducible.
    variation_iterations = 24
    #: at most this many members removed per variation.
    variation_max_remove = 2
    #: fixed RNG seed (the paper's publication date); per-run streams
    #: derive only from it and the deterministic member order.
    variation_seed = 20110829

    def run(self, pool: list[IndexDef],
            base_config: Configuration) -> EnumerationResult:
        self._rebase(base_config)
        base_cost = self.workload_cost(base_config)
        self._emit("sweep", candidates=len(pool), cost=base_cost)
        entries = self._attributed_benefits(pool, base_config)
        entries = self._combine_subsumed(entries)
        order = self._fill_order(entries)
        steps: list[str] = []
        config = self._knapsack_fill(order, base_config, steps)
        if config == base_config:
            return self._result(base_config, base_cost, steps)
        self._rebase(config)
        cost = self.batch_cost([config])[0]
        if cost >= base_cost:
            # Additive attribution over-promised (interactions, update
            # penalties): fall back to the base and let the variation
            # phase search for a configuration that actually helps.
            config, cost = base_config, base_cost
            steps.append(f"knapsack rejected: {base_cost:.1f} floor")
            self._rebase(config)
        config, cost = self._try_variations(
            order, config, cost, base_config, steps
        )
        return self._result(config, cost, steps)

    # ------------------------------------------------------------------
    def _combine_subsumed(
        self, entries: list[IndexBenefit]
    ) -> list[IndexBenefit]:
        """Fold each candidate's benefit into the widest same-method
        candidate that subsumes it (key prefix + column subset), and
        drop the subsumed ones — they would only duplicate budget."""
        ranked = sorted(
            entries,
            key=lambda e: (-e.benefit, e.index.display_name()),
        )
        kept: list[IndexBenefit] = []
        for entry in ranked:
            winner = None
            for i, wider in enumerate(kept):
                if _subsumes(wider.index, entry.index):
                    winner = i
                    break
            if winner is None:
                kept.append(entry)
            else:
                wider = kept[winner]
                kept[winner] = IndexBenefit(
                    index=wider.index,
                    benefit=wider.benefit + entry.benefit,
                    uses=max(wider.uses, entry.uses),
                    delta_bytes=wider.delta_bytes,
                )
        return kept

    def _fill_order(
        self, entries: list[IndexBenefit]
    ) -> list[IndexBenefit]:
        """Knapsack order: space-freeing base swaps first (they relax
        the budget), then descending benefit/size ratio; display-name
        tie-break keeps the order hash-seed independent."""
        useful = [
            e for e in entries if e.benefit > 0 or e.delta_bytes < 0
        ]
        return sorted(
            useful,
            key=lambda e: (
                0 if e.delta_bytes < 0 else 1,
                -e.density(),
                e.index.display_name(),
            ),
        )

    def _knapsack_fill(
        self,
        order: list[IndexBenefit],
        base_config: Configuration,
        steps: list[str],
    ) -> Configuration:
        config = base_config
        for entry in order:
            candidate = config.add(entry.index)
            if candidate == config:
                continue
            if not self.fits(candidate):
                continue
            config = candidate
            steps.append(
                f"knapsack add {entry.index.display_name()} "
                f"(benefit {entry.benefit:.1f})"
            )
            self._emit_step("knapsack", steps[-1], benefit=entry.benefit)
        return config

    # ------------------------------------------------------------------
    def _try_variations(
        self,
        order: list[IndexBenefit],
        best_config: Configuration,
        best_cost: float,
        base_config: Configuration,
        steps: list[str],
    ) -> tuple[Configuration, float]:
        """Seeded random-swap refinement: remove up to
        ``variation_max_remove`` members, refill by ratio order, keep
        the variation only when the true workload cost improves."""
        rng = random.Random(self.variation_seed)
        for _it in range(self.variation_iterations):
            removable = self._droppable(best_config, base_config)
            if not removable:
                break
            # A cancellation point per variation, like a greedy sweep.
            self._emit("sweep", candidates=len(removable), cost=best_cost)
            k = 1 + rng.randrange(
                min(self.variation_max_remove, len(removable))
            )
            removed = rng.sample(removable, k)
            work = best_config
            for ix in removed:
                work = self._revert_member(work, ix, base_config)
            banned = {ix.display_name() for ix in removed}
            for entry in order:
                if entry.index.display_name() in banned:
                    continue
                candidate = work.add(entry.index)
                if candidate == work:
                    continue
                if self.fits(candidate):
                    work = candidate
            if work == best_config:
                continue
            cost = self.batch_cost([work])[0]
            if cost < best_cost - 1e-9:
                best_config, best_cost = work, cost
                self._accept("variation", f"variation: -> {best_cost:.1f}",
                             best_config, best_cost, steps)
        return best_config, best_cost


def _subsumes(wider: IndexDef, narrow: IndexDef) -> bool:
    """Whether ``wider`` makes ``narrow`` redundant: same table, kind
    and method, ``narrow``'s key is a prefix of ``wider``'s, and every
    column it carries is carried by ``wider`` too."""
    if wider.is_mv_index or narrow.is_mv_index:
        return False
    if (
        wider.table != narrow.table
        or wider.kind is not narrow.kind
        or wider.method is not narrow.method
        or wider.filter != narrow.filter
    ):
        return False
    n = len(narrow.key_columns)
    if n > len(wider.key_columns):
        return False
    if tuple(wider.key_columns[:n]) != tuple(narrow.key_columns):
        return False
    return set(narrow.column_sequence) <= set(wider.column_sequence)
