"""Delta-aware workload costing: incremental what-if recosting for the
enumeration hot path.

The greedy search costs ``config ∪ {candidate}`` for every pool member at
every step, yet adding one index only changes the plans of statements
that touch its table (exactly what
:meth:`WhatIfOptimizer._relevant_structures` computes).  This module
exploits that through one piece of costing state, without moving a
single float:

* **The plan table.**  ``(statement, table, structure, base) ->
  AccessPlan | None``: the access plan of one structure for one
  statement's predicate context on one table, against one base
  structure (the base only enters through the non-covering lookup; its
  own plan sits under its own identity).  An entry is evaluated once
  per :class:`PlanTables`, through the kernel's shape memo, by
  :func:`~repro.optimizer.access_paths.plan_from_shape` with exactly
  the inputs ``StatementCoster._structures_for`` would feed it — so it
  *is* the plan the optimizer's search would see for that structure.

* **The chosen plan.**  ``best_access_plan`` keeps the first minimum of
  the per-structure plans in
  :meth:`~repro.physical.configuration.Configuration.structures_on`
  order (base first, then
  :func:`~repro.physical.configuration.structure_order_key`).  So a
  table's chosen plan under *any* configuration is the first strict
  minimum over the base's entry, then the configuration's secondaries'
  entries in that same order — read from the plan table, with no plan
  search.

* **The totals are the optimizer's.**  A SELECT with no MV in scope
  costs ``weight x`` :meth:`StatementCoster.select_total` over its
  chosen plans and its :class:`~repro.optimizer.statement_cost.
  SelectShape` — the function ``_cost_select`` itself ends in.  A
  maintenance statement costs the ``fsum`` of its per-structure
  contributions (order-independent, each the optimizer's own
  ``structure_maintenance`` over its ``affected_rows``) plus its find
  plan's ``select_total``.  The workload total is the sum of the
  per-statement terms in workload order, the left-to-right
  accumulation :meth:`WhatIfOptimizer.workload_cost` performs, so
  totals equal the full-recost path's by construction.

* **Sweeps.**  Costing ``reference ∪ {secondary}`` — what a greedy
  sweep asks for every pool member on every step — compares the
  candidate's **probe row** (its plan cost for every statement on its
  table, valid as long as the tables are) against the table's
  **reference vector** (the plan cost the reference chose, rebuilt
  after each :meth:`rebase`) in one pass of ``probe > chosen``.  A strict loser
  keeps its reference term; a strict winner is the new first minimum
  whatever its position, so its plan is patched into the reference's
  chosen plans; a tie goes to whichever of the two the structure order
  puts first.  Every other diff (swaps, removals, multi-adds, a rebase)
  re-chooses only on the tables the diff touches and keeps the
  reference's plans elsewhere.

* **Full recosts.**  The first reference costed over a set of tables
  (later costers over them weight the totals it left), statements with
  an MV in scope (substitution is the optimizer's decision), statements
  on an untracked table and statements whose table choice ever
  disagreed with the plan costs the optimizer reported go through
  :meth:`WhatIfOptimizer.cost_with_plans`, which owns the statement
  cache and the persistent :class:`~repro.parallel.cache.CostCache`.

* **Zero-delta certificates.**  :meth:`improvement_possible` lets the
  enumerator skip a pure add without costing it when every affected
  statement is a SELECT whose probes all strictly lose: the
  candidate's total is bit-identical to the current cost, so the full
  path would compute ``delta_cost == 0`` and skip it anyway.  Exact
  under every search strategy.

Determinism contract: recommendations with delta costing on are
byte-identical to the full-recost path at any worker count.  A term is
only ever rebuilt from plans that are *provably the bit-identical
plans* the full path would choose; a certificate only ever skips work
whose outcome is provably invisible.

State comes in two lifetimes.  A **coster** is per-run state: its
weights, reference and counters belong to one search and are never
shared.  The :class:`PlanTables` under it are weight-,
budget- and reference-free — every entry a pure function of its key
under one optimizer's sizes and statistics — so any number of costers
over the same statement sequence (a rerun, another budget or algorithm,
a drifted phase's weights) may read and fill one set of tables, one
after another.  The one rule that bounds that sharing: plan-table keys
do not embed size estimates (unlike the persistent
:class:`~repro.parallel.cache.CostCache`), so **a plan table must never
outlive the estimator whose sizes it was built from**.  The advisor
keeps the rule by giving both one owner and one lifetime — the
:class:`~repro.advisor.advisor.PreparedStage` holds the estimator, the
optimizer over its size lookup and the tables, and is used or dropped
as a whole; stage lifetime == estimator lifetime.  A session and a
service context each hold their latest stage; a sweep holds one stage
per seed per process, each prepared against a fork view of the
pre-sweep caches, which keeps sharded and sequential sweeps
byte-identical.  :meth:`DeltaWorkloadCoster.fork_view` is the explicit
way out: a sibling coster with empty tables of its own.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.optimizer.access_paths import plan_from_shape
from repro.optimizer.statement_cost import (
    SelectShape,
    StatementCoster,
    find_probe,
    mv_matches_query,
)
from repro.parallel.signature import index_identity
from repro.physical.configuration import Configuration, structure_order_key
from repro.physical.index_def import IndexDef
from repro.storage.index_build import IndexKind
from repro.workload.query import SelectQuery, Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle with whatif
    from repro.optimizer.whatif import WhatIfOptimizer

#: sentinel distinguishing "not yet computed" from a computed None
#: (an unusable plan).
_UNPROBED = object()

_INF = math.inf


class _RefVector:
    """What a sweep compares one table's probe rows against under one
    reference: ``stmts`` is the interned ``_by_table`` list, and the
    other lists align with it.

    ``chosen`` holds the cost of the plan the reference chose on the
    table — inf where there is none to lose to (a maintenance
    statement, an MV substitution).  ``reusable`` is ``chosen`` with
    inf also where an MV is in the statement's scope: reuse needs a
    recost there, the zero-delta certificate does not."""

    __slots__ = ("stmts", "chosen", "reusable")

    def __init__(self, stmts, chosen, reusable) -> None:
        self.stmts = stmts
        self.chosen = chosen
        self.reusable = reusable


def _sole_addition(added, removed) -> "IndexDef | None":
    """The one non-MV index a pure single-add diff adds (the sweep
    shape ``reference ∪ {candidate}``), else None."""
    if removed or len(added) != 1:
        return None
    (ix,) = added
    return ix if ix.mv is None else None


def _plan_tables(diff: Iterable[IndexDef]) -> set[str]:
    """The tables whose plan search a diff changes: its non-MV
    members' (an MV index only ever enters through substitution)."""
    return {ix.table for ix in diff if ix.mv is None}


def _mv_tables(config: Configuration) -> list[tuple[str, ...]]:
    """The table set of every MV index in ``config`` — what decides
    which statements have an MV in scope."""
    return [ix.mv.tables for ix in config.mv_indexes()]


class PlanTables:
    """The weight-free half of delta costing, shareable by every coster
    over one optimizer and one statement sequence.

    Holds the statement skeleton and the tables whose entries are pure
    functions of (statement position, structures, the optimizer's sizes
    and statistics): the plan table, the probe rows read off it, the
    per-SELECT shapes, the maintenance contributions, and the first
    (base) reference's unweighted totals and plans.  Nothing here
    depends on statement weights, a budget or a reference
    configuration, so costers built over reweighted copies of the same
    statements (a rerun, another budget, a drifted phase) read and fill
    the same entries.  Keys do not embed sizes: the tables share the
    lifetime of the optimizer — and the estimator behind its size
    lookup — they were built against, never a longer one.
    """

    def __init__(self, coster: StatementCoster,
                 statements: Sequence) -> None:
        stmts = self.stmts = list(statements)
        self.is_select = [isinstance(s, SelectQuery) for s in stmts]
        self.tables: list[set[str]] = [
            set(s.tables) if isinstance(s, SelectQuery) else {s.table}
            for s in stmts
        ]
        self.by_table: dict[str, list[int]] = defaultdict(list)
        for si, tables in enumerate(self.tables):
            for table in tables:
                self.by_table[table].append(si)
        #: first statement index per distinct statement (for the
        #: single-statement API used by candidate selection).
        self.stmt_index: dict = {}
        for si, stmt in enumerate(stmts):
            self.stmt_index.setdefault(stmt, si)
        #: per statement that chooses access plans — a SELECT, or the
        #: find probe of an UPDATE/DELETE — its
        #: :class:`~repro.optimizer.statement_cost.SelectShape`, whose
        #: ``inputs`` are the exact plan-search inputs the optimizer
        #: uses.  None for bulk INSERTs, which have no find phase.
        self.shapes: list[SelectShape | None] = []
        for s in stmts:
            planned = s if isinstance(s, SelectQuery) else find_probe(s)
            self.shapes.append(
                None if planned is None else coster.select_shape(planned)
            )

        #: the plan table: (si, table, structure identity, base
        #: identity) -> AccessPlan (None = unusable plan).
        self.probes: dict = {}
        #: statements whose table choice disagreed with the plan costs
        #: the optimizer reported: always fully recosted.
        self.distrusted: set[int] = set()
        #: (si, structure identity) -> (io, cpu) maintenance
        #: contribution (pure: sizes and stats are fixed).
        self.maint_terms: dict = {}
        #: (candidate identity, base identity) -> the candidate's plan
        #: cost per statement of its table, aligned with ``by_table``
        #: (inf = unusable plan, or not a SELECT).
        self.probe_rows: dict = {}
        #: (configuration, unweighted totals, chosen plans) of the first
        #: reference costed over these tables — the one reference every
        #: coster starts from, so a later coster weights it instead of
        #: asking the optimizer again.
        self.first_reference: tuple | None = None


class DeltaWorkloadCoster:
    """Incremental workload costing against a reference configuration.

    Args:
        whatif: the what-if optimizer providing full statement costings
            (with its in-memory and persistent caches) plus the sizes,
            stats and cost constants the plan table must match exactly.
        workload: the weighted workload being tuned; the statement order
            fixes the float accumulation order of every total.
        tables: the :class:`PlanTables` of an earlier coster over the
            same optimizer and statement sequence (weights may differ);
            None builds empty ones.  Weights, the reference and
            counters are always this coster's own.
    """

    def __init__(
        self, whatif: "WhatIfOptimizer", workload: Workload,
        tables: "PlanTables | None" = None,
    ) -> None:
        self.whatif = whatif
        self.workload = workload
        statements = list(workload)
        stmts = [ws.statement for ws in statements]
        if tables is None:
            tables = PlanTables(whatif.coster, stmts)
        elif tables.stmts != stmts:
            raise ValueError(
                "plan tables were built for another statement sequence"
            )
        self.tables = tables
        self._weights = [ws.weight for ws in statements]
        # The shared containers under the names the costing code reads
        # (filled in place, never rebound).
        self._stmts = tables.stmts
        self._is_select = tables.is_select
        self._tables = tables.tables
        self._by_table = tables.by_table
        self._stmt_index = tables.stmt_index
        self._shapes = tables.shapes
        self._probes = tables.probes
        self._distrusted = tables.distrusted
        self._maint_terms = tables.maint_terms
        self._probe_rows = tables.probe_rows

        # Reference state: per-statement weighted terms / raw totals /
        # chosen per-table plans under the reference configuration.
        self._ref_config: Configuration | None = None
        self._ref_terms: list[float] = []
        self._ref_totals: list[float] = []
        #: per SELECT, its chosen plans aligned with ``tables`` — None
        #: where the optimizer reported none (an MV substitution) or
        #: the plan table cannot reproduce them.
        self._ref_plans: list[tuple | None] = []
        self._ref_total = 0.0

        # Probe-batch state (populated by register_universe): the
        # universe's secondaries by table, and the peek-only size
        # resolver that sizes whole lane groups without triggering
        # estimation work.
        self._universe_by_table: dict[str, list[IndexDef]] = {}
        self._size_peek: Callable | None = None
        #: (table, base identity) groups already batch-probed.
        self._probe_filled: set = set()

        # Sweep state: depends on the reference configuration, reset on
        # every rebase (the probe rows they are compared with live in
        # the tables, like the plans they are read from).
        #: table -> (base structure, base identity) under the reference.
        self._ref_bases: dict = {}
        #: table -> _RefVector under the reference.
        self._ref_vectors: dict = {}

        # Instrumentation.
        self.reused_terms = 0
        self.patched_terms = 0
        self.patched_maintenance = 0
        self.full_recosts = 0
        self.probe_evals = 0
        self.pruned_zero_delta = 0

    # ------------------------------------------------------------------
    # reference management
    # ------------------------------------------------------------------
    def rebase(self, config: Configuration) -> float:
        """Make ``config`` the reference and return its workload cost
        (bit-identical to :meth:`WhatIfOptimizer.workload_cost`).

        The first reference is costed by the optimizer, statement by
        statement — once per :class:`PlanTables`: a later coster over
        the same tables weights the totals that costing left there (the
        product ``_recost`` would form, without the optimizer).  A later
        reference re-chooses only on the tables its diff against the
        previous one touches."""
        ref = self._ref_config
        if ref is not None and config == ref:
            return self._ref_total
        first = self.tables.first_reference if ref is None else None
        if first is not None and first[0] == config:
            totals, plans = list(first[1]), list(first[2])
            terms = list(map(operator.mul, self._weights, totals))
            affected, touched = (), None
        elif ref is None:
            n = len(self._stmts)
            terms, totals, plans = [0.0] * n, [0.0] * n, [None] * n
            affected, touched = range(n), None
        else:
            terms = list(self._ref_terms)
            totals = list(self._ref_totals)
            plans = list(self._ref_plans)
            diff = config.indexes ^ ref.indexes
            affected, touched = self._affected(diff), _plan_tables(diff)
        mv_tables = _mv_tables(config)
        for si in affected:
            terms[si], totals[si], plans[si] = self._recost(
                si, config, mv_tables, touched
            )
        if ref is None and self.tables.first_reference is None:
            self.tables.first_reference = (
                config, tuple(totals), tuple(plans)
            )
        self._ref_config = config
        self._ref_terms = terms
        self._ref_totals = totals
        self._ref_plans = plans
        self._ref_total = sum(terms)
        self._ref_bases = {}
        self._ref_vectors = {}
        return self._ref_total

    # ------------------------------------------------------------------
    # costing
    # ------------------------------------------------------------------
    def workload_cost(self, config: Configuration) -> float:
        """Weighted workload cost of ``config``, re-evaluating only the
        statements on the tables its diff against the reference touches
        — and, for ``reference ∪ {one secondary}``, only those the
        candidate's probe row does not strictly lose on."""
        if self._ref_config is None:
            return self.rebase(config)
        ref = self._ref_config
        if config == ref:
            return self._ref_total
        added = config.indexes - ref.indexes
        removed = ref.indexes - config.indexes
        ix = _sole_addition(added, removed)
        if ix is not None and ix.kind is IndexKind.SECONDARY:
            return self._sole_add_cost(ix, config)
        diff = added | removed
        affected = self._affected(diff)
        if not affected:
            return self._ref_total
        mv_tables, touched = _mv_tables(config), _plan_tables(diff)
        out = list(self._ref_terms)
        for si in affected:
            out[si] = self._recost(si, config, mv_tables, touched)[0]
        return sum(out)

    def batch(self, configs: Sequence[Configuration]) -> list[float]:
        """Workload costs of many configurations, in input order."""
        return [self.workload_cost(config) for config in configs]

    def statement_cost(self, statement, config: Configuration) -> float:
        """One statement's (unweighted) optimizer cost under ``config``,
        through the plan table — the hook candidate selection uses."""
        si = self._stmt_index.get(statement)
        if si is None or self._ref_config is None:
            return self.whatif.cost(statement, config).total
        diff = [
            ix for ix in config.indexes ^ self._ref_config.indexes
            if self._relevant(si, ix)
        ]
        if not diff:
            return self._ref_totals[si]
        return self._recost(
            si, config, _mv_tables(config), _plan_tables(diff)
        )[1]

    # ------------------------------------------------------------------
    # universe & certificates
    # ------------------------------------------------------------------
    def register_universe(
        self,
        universe: Iterable[IndexDef],
        size_if_known: Callable[[IndexDef], "tuple[float, float] | None"],
    ) -> None:
        """Declare every structure an enumeration could ever place in a
        configuration, so the first sweep against a table's base fills
        the plan-table entries of its whole secondary group in one
        kernel batch (see :meth:`_fill_probe_group`).

        Args:
            universe: candidate pool plus base structures plus every
                method variant the search phases may introduce.
            size_if_known: resolves an index to ``(est_bytes, est_rows)``
                **only when no new estimation work is needed**, agreeing
                with the optimizer's own size lookup whenever it
                resolves — a probe batch must never trigger size
                estimation, or the delta-on and delta-off estimation
                orders (and therefore their deduction plans) could
                diverge.
        """
        seen: dict = {}
        for ix in universe:
            seen.setdefault(index_identity(ix), ix)
        self._universe_by_table = defaultdict(list)
        for ix in seen.values():
            if ix.kind is IndexKind.SECONDARY and not ix.is_mv_index:
                self._universe_by_table[ix.table].append(ix)
        self._size_peek = size_if_known
        self._probe_filled = set()

    def improvement_possible(self, config: Configuration) -> bool:
        """Whether costing ``config`` could possibly change the search.

        False (a zero-delta certificate) means its total is provably
        bit-identical to the reference cost, so the enumerator may skip
        it entirely."""
        ref = self._ref_config
        if ref is None:
            return True
        added = config.indexes - ref.indexes
        if ref.indexes - config.indexes:
            return True  # swaps/base replacements: never certified
        ix = _sole_addition(added, ())
        if ix is not None and ix.kind is IndexKind.SECONDARY:
            # The sweep shape: every statement on the table must have a
            # chosen plan the candidate's probe strictly loses to.
            certified = all(map(
                operator.gt,
                self._probe_row(ix), self._ref_vector(ix.table).chosen,
            ))
        else:
            certified = all(
                self._is_select[si]
                and self._ref_plans[si] is not None
                and all(
                    self._probe_loses(si, ix)
                    for ix in added if self._relevant(si, ix)
                )
                for si in self._affected(added)
            )
        if certified:
            self.pruned_zero_delta += 1
        return not certified

    def improvement_cap(self, config: Configuration) -> None:
        """Always None; nothing calls it.  Kept because
        ``benchmarks/ledger/layers.py`` wraps this name."""
        return None

    # ------------------------------------------------------------------
    # views & stats
    # ------------------------------------------------------------------
    def fork_view(self) -> "DeltaWorkloadCoster":
        """A fresh, isolated coster over the same workload.

        Like the persistent caches' :meth:`fork_view`, but the overlay
        starts *empty* — its own :class:`PlanTables`, not these: keys
        do not embed size estimates, so entries are only valid under
        the estimator state that produced them.  For embedders that
        need a sibling which can never observe this coster's plans."""
        return type(self)(self.whatif, self.workload)

    def stats(self) -> dict:
        return {
            "statements": len(self._stmts),
            "reused_terms": self.reused_terms,
            "patched_terms": self.patched_terms,
            "patched_maintenance": self.patched_maintenance,
            "full_recosts": self.full_recosts,
            "probe_evals": self.probe_evals,
            "probe_entries": len(self._probes),
            "maintenance_entries": len(self._maint_terms),
            "pruned_zero_delta": self.pruned_zero_delta,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _relevant(self, si: int, index: IndexDef) -> bool:
        """Mirror of ``WhatIfOptimizer._relevant_structures`` for one
        (statement, index) pair."""
        mv = index.mv
        if mv is not None:
            return not self._tables[si].isdisjoint(mv.tables)
        return index.table in self._tables[si]

    def _mv_in_scope(self, si: int, mv_tables: list) -> bool:
        """Whether any of the MVs (:func:`_mv_tables`) overlaps
        statement ``si``'s tables, matching it or not."""
        tables = self._tables[si]
        return not all(map(tables.isdisjoint, mv_tables))

    def _affected(self, diff: Iterable[IndexDef]) -> list[int]:
        """Statement indices whose relevant set a diff touches, in
        workload order.  Callers must not mutate the result (the
        single-index fast path hands out the interned per-table list)."""
        first = None
        for n, ix in enumerate(diff):
            if n or ix.mv is not None:
                first = None
                break
            first = ix
        if first is not None:
            # Single non-MV diff — the enumeration hot path; _by_table
            # lists are built in ascending statement order.
            return self._by_table.get(first.table, [])
        out: set[int] = set()
        for ix in diff:
            if ix.is_mv_index:
                for si in range(len(self._stmts)):
                    if self._relevant(si, ix):
                        out.add(si)
            else:
                out.update(self._by_table.get(ix.table, ()))
        return sorted(out)

    def _recost(
        self, si: int, config: Configuration, mv_tables: list,
        touched: "set[str] | None",
    ) -> tuple:
        """(weighted term, raw total, chosen plans | None) of statement
        ``si`` under ``config``.  ``touched`` names the tables whose
        structures differ from the reference's, whose chosen plans
        serve everywhere else; None (no reference yet) asks the
        optimizer.  So do a statement with an MV in scope — the
        substitution is the optimizer's to decide — one on an untracked
        table, and a distrusted one."""
        if touched is not None and si not in self._distrusted and not (
            self._shapes[si] is not None
            and self._mv_in_scope(si, mv_tables)
        ):
            if not self._is_select[si]:
                total = self._maintenance_total(si, config)
                if total is not None:
                    self.patched_maintenance += 1
                    return self._weights[si] * total, total, None
            else:
                plans = self._chosen_plans(si, config, touched)
                if plans is not None:
                    if plans == self._ref_plans[si]:
                        # Every touched table chose as the reference
                        # did: its floats are this term's, bit for bit.
                        self.reused_terms += 1
                        return (
                            self._ref_terms[si], self._ref_totals[si],
                            plans,
                        )
                    total = self._select_total(si, plans)
                    self.patched_terms += 1
                    return self._weights[si] * total, total, plans
        breakdown, plan_costs = self.whatif.cost_with_plans(
            self._stmts[si], config
        )
        self.full_recosts += 1
        plans = None
        if plan_costs is not None and si not in self._distrusted:
            # The optimizer reports plan costs (a persistent replay
            # carries nothing else); the plans come from the table, and
            # must cost exactly that — a mismatch (a changed cost model
            # against a stale record, which the context fingerprint
            # should preclude) retires the statement to full recosts
            # rather than risk a wrong patch.
            plans = self._chosen_plans(si, config, None)
            if plans is not None and plan_costs != tuple(
                plan.cost for plan in plans
            ):
                self._distrusted.add(si)
                plans = None
        return (
            self._weights[si] * breakdown.total, breakdown.total, plans
        )

    def _sole_add_cost(self, ix: IndexDef, config: Configuration) -> float:
        """Workload cost of ``reference ∪ {ix}`` for a secondary ``ix``:
        one ``probe > chosen`` pass over its table's statements."""
        table = ix.table
        vector = self._ref_vector(table)
        contested = [
            (si, probe, chosen) for si, probe, chosen in zip(
                vector.stmts, self._probe_row(ix), vector.reusable
            )
            if not probe > chosen
        ]
        # Strict losers keep their reference term, bit for bit.
        self.reused_terms += len(vector.stmts) - len(contested)
        if not contested:
            return self._ref_total
        out = list(self._ref_terms)
        plan_key = (table, index_identity(ix), self._ref_base(table)[1])
        mv_tables = None
        for si, probe, chosen in contested:
            if chosen == _INF:
                # Nothing to lose to: a maintenance statement, an MV in
                # scope, no reference plans.
                if mv_tables is None:
                    mv_tables = _mv_tables(config)
                out[si] = self._recost(si, config, mv_tables, {table})[0]
                continue
            self.patched_terms += 1
            plans = self._ref_plans[si]
            pos = self._stmts[si].tables.index(table)
            if probe == chosen:
                # A tie stays with whichever plan the structure order
                # puts first — the base, else the smaller order key.
                held = plans[pos].index
                if held.kind is not IndexKind.SECONDARY or (
                    structure_order_key(held) < structure_order_key(ix)
                ):
                    continue
            # The candidate's plan is the table's new first minimum.
            plans = (
                *plans[:pos], self._probes[(si, *plan_key)],
                *plans[pos + 1:],
            )
            out[si] = self._weights[si] * self._select_total(si, plans)
        return sum(out)

    def _maintenance_total(
        self, si: int, config: Configuration
    ) -> float | None:
        """The exact total of a maintenance statement (INSERT / UPDATE /
        DELETE) under any configuration, rebuilt from memoized
        per-structure contributions.

        ``_maintenance_cost`` accumulates with :func:`math.fsum`, whose
        exactly-rounded total is independent of structure order — so
        summing the identical per-structure floats here (each computed
        by the optimizer's own ``structure_maintenance``) reproduces the
        full path's maintenance breakdown bit for bit.  The
        UPDATE/DELETE find plan is the table's chosen plan for the find
        probe, costed by ``select_total``; None (an untracked table)
        falls back to a full recost."""
        stmt = self._stmts[si]
        table = stmt.table
        find = None
        if self._shapes[si] is not None:
            find = self._choose(si, table, config)
            if find is None:
                return None
        coster = self.whatif.coster
        io_terms: list[float] = []
        cpu_terms: list[float] = []
        for ix in coster.maintenance_structures(table, config):
            key = (si, index_identity(ix))
            contrib = self._maint_terms.get(key)
            if contrib is None:
                affected = coster.affected_rows(stmt)
                contrib = coster.structure_maintenance(table, affected, ix)
                self._maint_terms[key] = contrib
            io_terms.append(contrib[0])
            cpu_terms.append(contrib[1])
        total = math.fsum(io_terms) + math.fsum(cpu_terms)
        if find is not None:
            # _cost_maintenance: total = find.total + maintain.total.
            total = self._select_total(si, (find,)) + total
        return total

    def _chosen_plans(
        self, si: int, config: Configuration,
        touched: "set[str] | None",
    ) -> tuple | None:
        """Statement ``si``'s chosen plan per table under ``config``,
        aligned with its ``tables``: the reference's on tables outside
        ``touched``, the plan table's choice elsewhere (None = every
        table).  None when a table is untracked."""
        held = None if touched is None else self._ref_plans[si]
        plans = []
        for pos, table in enumerate(self._shapes[si].inputs):
            if held is not None and table not in touched:
                plans.append(held[pos])
                continue
            plan = self._choose(si, table, config)
            if plan is None:
                return None
            plans.append(plan)
        return tuple(plans)

    def _choose(self, si: int, table: str, config: Configuration):
        """The plan ``best_access_plan`` picks for ``table`` under
        ``config``: the first minimum of the plan-table entries in
        :meth:`Configuration.structures_on` order.  None for an
        untracked table (its synthesized heap is the optimizer's)."""
        base = config.base_structure(table)
        if base is None:
            return None
        base_id = index_identity(base)
        best = None
        for ix in config.structures_on(table):
            plan = self._plan(si, table, ix, base, base_id)
            if plan is not None and (
                best is None or plan.cost < best.cost
            ):
                best = plan
        return best

    def _select_total(self, si: int, plans: tuple) -> float:
        """The optimizer's SELECT total of statement ``si`` (or its find
        probe) over already-chosen per-table plans — ``_cost_select``
        minus the plan search (only valid with no MV in scope)."""
        io, cpu = self.whatif.coster.select_total(self._shapes[si], plans)
        return io + cpu

    def _ref_base(self, table: str) -> tuple:
        """(base structure, base identity) of ``table`` under the
        reference — (None, None) for an untracked table."""
        cached = self._ref_bases.get(table)
        if cached is None:
            base = self._ref_config.base_structure(table)
            cached = (base, None if base is None else index_identity(base))
            self._ref_bases[table] = cached
        return cached

    def _ref_vector(self, table: str) -> _RefVector:
        """The reference's chosen plan costs for every statement on
        ``table`` (built on first demand after a rebase)."""
        vector = self._ref_vectors.get(table)
        if vector is None:
            stmts = self._by_table.get(table, [])
            mv_tables = _mv_tables(self._ref_config)
            chosen, reusable = [], []
            for si in stmts:
                plans = self._ref_plans[si]
                cost = (
                    plans[self._stmts[si].tables.index(table)].cost
                    if plans is not None else _INF
                )
                chosen.append(cost)
                reusable.append(
                    _INF if self._mv_in_scope(si, mv_tables) else cost
                )
            vector = _RefVector(stmts, chosen, reusable)
            self._ref_vectors[table] = vector
        return vector

    def _probe_row(self, ix: IndexDef) -> list[float]:
        """Secondary ``ix``'s access-plan cost for every statement on
        its table against the table's reference base, aligned with
        ``_by_table`` — inf where it has no usable plan and for
        maintenance statements (whose terms are never reused).  Read
        off the plan table on first demand and kept for the run: a plan
        depends on the base structure, not on the rest of the
        reference."""
        table = ix.table
        base, base_id = self._ref_base(table)
        key = (index_identity(ix), base_id)
        row = self._probe_rows.get(key)
        if row is None:
            row = []
            if base is not None:
                self._fill_probe_group(table, base, base_id)
            for si in self._by_table.get(table, ()):
                plan = (
                    self._plan(si, table, ix, base, base_id)
                    if base is not None and self._is_select[si] else None
                )
                row.append(_INF if plan is None else plan.cost)
            self._probe_rows[key] = row
        return row

    def _plan(
        self, si: int, table: str, ix: IndexDef, base: IndexDef,
        base_id: tuple,
    ):
        """The plan-table entry of ``ix`` for statement ``si`` on
        ``table`` against ``base`` (evaluated on first demand; None =
        unusable)."""
        key = (si, table, index_identity(ix), base_id)
        plan = self._probes.get(key, _UNPROBED)
        if plan is _UNPROBED:
            plan = self._probes[key] = self._probe(si, table, ix, base)
        return plan

    def _fill_probe_group(
        self, table: str, base: IndexDef, base_id: tuple
    ) -> None:
        """Batch the plan-table entries of every universe secondary on
        ``table`` whose size is already peekable, across **every**
        SELECT statement touching the table, on the first sweep against
        this base.  Sweeps read all affected statements for each
        candidate, so the whole group is demanded work — one lane
        batch per group instead of one :meth:`_probe` per entry.

        Sizing is strictly peek-only (``size_if_known``): a lane is
        only filled when no new estimation work is needed, so the
        delta-on estimation order stays identical to the full-recost
        path — structures the peek cannot resolve fall back to the
        scalar :meth:`_probe` (sized via the optimizer's own lookup) at
        the moment they are actually requested.  Each filled lane is
        the same :func:`plan_from_shape` arithmetic over the same
        memoized shape and lands in the same table, so plans are
        bit-identical to the unbatched path."""
        group = (table, base_id)
        if group in self._probe_filled:
            return
        self._probe_filled.add(group)
        if self._size_peek is None:
            return
        whatif = self.whatif
        kernel = whatif.kernel
        stats = whatif.stats.table(table)
        constants = whatif.coster.constants
        secondaries = [
            (cand, index_identity(cand), self._size_peek(cand))
            for cand in self._universe_by_table.get(table, [])
        ]
        lanes: list = []
        keys: list = []
        for sj in self._by_table.get(table, ()):
            if not self._is_select[sj]:
                continue
            preds, needed = self._shapes[sj].inputs[table]
            for cand, cand_id, size in secondaries:
                if size is None:
                    continue
                ckey = (sj, table, cand_id, base_id)
                if ckey in self._probes:
                    continue
                self.probe_evals += 1
                shape = kernel.shape_for(
                    (sj, table), cand, preds, needed, stats, constants
                )
                if shape is None:
                    self._probes[ckey] = None
                    continue
                lanes.append((cand, size[0], size[1], shape))
                keys.append(ckey)
        if not lanes:
            return
        base_bytes, _base_rows = whatif._sizes(base)
        plans = kernel.batch_access_plans(
            lanes, constants, (base, base_bytes)
        )
        for ckey, plan in zip(keys, plans):
            self._probes[ckey] = plan

    def _probe_loses(self, si: int, ix: IndexDef) -> bool:
        """True iff adding ``ix`` provably cannot change statement
        ``si``'s cost: a non-matching MV, an unusable plan, or an access
        plan that strictly loses to the chosen plan on its table."""
        stmt = self._stmts[si]
        if ix.is_mv_index:
            # Non-matching MVs are skipped by both the access-path and
            # the MV-substitution scans; matching ones need a recost.
            return not mv_matches_query(ix.mv, stmt)
        if ix.kind is not IndexKind.SECONDARY:
            return False  # base adds surface as removed+added upstream
        base, base_id = self._ref_base(ix.table)
        if base is None:  # pragma: no cover - bases always tracked
            return False
        plan = self._plan(si, ix.table, ix, base, base_id)
        if plan is None:
            return True
        chosen = self._ref_plans[si][stmt.tables.index(ix.table)]
        return plan.cost > chosen.cost

    def _probe(self, si: int, table: str, ix: IndexDef, base: IndexDef):
        """One plan evaluation with exactly the inputs
        ``StatementCoster._structures_for`` would feed
        ``best_access_plan``, through the kernel's shape memo."""
        self.probe_evals += 1
        preds, needed = self._shapes[si].inputs[table]
        whatif = self.whatif
        ix_bytes, ix_rows = whatif._sizes(ix)
        base_bytes, _base_rows = whatif._sizes(base)
        constants = whatif.coster.constants
        shape = whatif.kernel.shape_for(
            (si, table), ix, preds, needed,
            whatif.stats.table(table), constants,
        )
        if shape is None:
            return None
        return plan_from_shape(
            ix, ix_bytes, ix_rows, shape, constants, (base, base_bytes),
        )
