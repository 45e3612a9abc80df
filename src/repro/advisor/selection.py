"""Per-query candidate selection: best-per-query top-k vs the Skyline
method (Section 6.1).

For each query the advisor costs small configurations (single candidates
and a few pairs).  DTA's classic selection keeps the top-k cheapest; the
Skyline selection instead keeps every configuration not dominated in
(size, cost) — retaining slow-but-small compressed candidates that a
cost-only top-k would prune, which is what lets tight budgets win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.workload.query import SelectQuery

#: Batched per-query costing hook: one query's cost under many small
#: candidate configurations, in input order.  The advisor wires the
#: delta-aware (or cache-aware) batch API in here; the default loops
#: the per-configuration callable, so both paths see identical floats.
QueryCostBatch = Callable[
    [SelectQuery, Sequence[Configuration]], "list[float]"
]


@dataclass(frozen=True)
class CandidateConfiguration:
    """A small per-query configuration with its cost and extra size."""

    indexes: frozenset[IndexDef]
    cost: float
    size: float

    def dominates(self, other: "CandidateConfiguration") -> bool:
        """Strict domination: no worse on both axes, better on one."""
        return (
            self.cost <= other.cost
            and self.size <= other.size
            and (self.cost < other.cost or self.size < other.size)
        )


def evaluate_candidates(
    query: SelectQuery,
    candidates: Sequence[IndexDef],
    base_config: Configuration,
    query_cost: Callable[[SelectQuery, Configuration], float],
    index_size: Callable[[IndexDef], float],
    max_pairs: int = 10,
    query_cost_batch: QueryCostBatch | None = None,
) -> list[CandidateConfiguration]:
    """Cost the empty, singleton and (a few) pair configurations.

    ``query_cost_batch`` routes each sweep (all singletons, then all
    pairs) through one batched call — the hook the advisor points at
    the delta-aware coster, which then re-evaluates only what each
    added index can actually change.  Costs are identical floats to the
    per-configuration ``query_cost`` loop in the same order.
    """
    if query_cost_batch is None:
        def query_cost_batch(q, configs):
            return [query_cost(q, config) for config in configs]
    base_cost = query_cost_batch(query, [base_config])[0]
    out: list[CandidateConfiguration] = [
        CandidateConfiguration(
            indexes=frozenset(), cost=base_cost, size=0.0,
        )
    ]
    single_costs = query_cost_batch(
        query, [base_config.add(ix) for ix in candidates]
    )
    singles: list[tuple[float, IndexDef]] = []
    for ix, cost in zip(candidates, single_costs):
        out.append(
            CandidateConfiguration(
                frozenset([ix]), cost=cost, size=index_size(ix)
            )
        )
        singles.append((cost, ix))

    # Pairs: combine the most promising singles (covering + seek combos).
    singles.sort(key=lambda t: t[0])
    top = [ix for _c, ix in singles[:5]]
    pairs: list[tuple[IndexDef, IndexDef]] = []
    for i in range(len(top)):
        for j in range(i + 1, len(top)):
            if len(pairs) >= max_pairs:
                break
            a, b = top[i], top[j]
            if a.table == b.table and a.column_set == b.column_set:
                continue
            pairs.append((a, b))
    pair_costs = query_cost_batch(
        query, [base_config.add(a).add(b) for a, b in pairs]
    )
    for (a, b), cost in zip(pairs, pair_costs):
        out.append(
            CandidateConfiguration(
                frozenset([a, b]),
                cost=cost,
                size=index_size(a) + index_size(b),
            )
        )
    return out


def evaluate_candidates_batch(
    queries: Sequence[SelectQuery],
    candidates_per_query: Sequence[Sequence[IndexDef]],
    base_config: Configuration,
    query_cost: Callable[[SelectQuery, Configuration], float],
    index_size: Callable[[IndexDef], float],
    max_pairs: int = 10,
    query_cost_batch: QueryCostBatch | None = None,
) -> list[list[CandidateConfiguration]]:
    """Evaluate per-query candidate *sets* for many queries at once.

    One entry of the result per query, each computed exactly as
    :func:`evaluate_candidates` would.
    """
    if len(queries) != len(candidates_per_query):
        raise ValueError(
            f"{len(queries)} queries but "
            f"{len(candidates_per_query)} candidate sets"
        )
    return [
        evaluate_candidates(
            query, candidates, base_config, query_cost, index_size,
            max_pairs=max_pairs, query_cost_batch=query_cost_batch,
        )
        for query, candidates in zip(queries, candidates_per_query)
    ]


def select_top_k(
    configs: Sequence[CandidateConfiguration], k: int = 2
) -> list[CandidateConfiguration]:
    """Classic DTA selection: the k configurations with the lowest cost."""
    return sorted(configs, key=lambda c: (c.cost, c.size))[:k]


def select_skyline(
    configs: Sequence[CandidateConfiguration],
) -> list[CandidateConfiguration]:
    """Skyline selection (Figure 5): keep every non-dominated
    configuration; O(n^2) dominance test as in the paper."""
    out: list[CandidateConfiguration] = []
    for c in configs:
        if any(o.dominates(c) for o in configs if o is not c):
            continue
        out.append(c)
    return sorted(out, key=lambda c: (c.size, c.cost))


def cluster_skyline(
    skyline: Sequence[CandidateConfiguration], max_points: int
) -> list[CandidateConfiguration]:
    """The compromise extension of Section 6.1: thin a large skyline down
    to ``max_points`` representatives by grouping on the size axis and
    keeping each group's cheapest configuration.

    The two cheapest configurations are always retained, whatever group
    they fall in: the skyline exists to *add* slow-but-small candidates,
    and clustering must never drop the fast configurations that DTA's
    classic top-k selection would have kept.  The result therefore holds
    at most ``max_points + 2`` configurations.
    """
    if len(skyline) <= max_points:
        return list(skyline)
    ordered = sorted(skyline, key=lambda c: c.size)
    out: list[CandidateConfiguration] = []
    per = len(ordered) / max_points
    for g in range(max_points):
        lo = int(g * per)
        hi = max(lo + 1, int((g + 1) * per))
        group = ordered[lo:hi]
        out.append(min(group, key=lambda c: c.cost))
    for keep in select_top_k(skyline, 2):
        if keep not in out:
            out.append(keep)
    return out
