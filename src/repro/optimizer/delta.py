"""Delta-aware workload costing: incremental what-if recosting for the
enumeration hot path.

The greedy search costs ``config ∪ {candidate}`` for every pool member at
every step, yet adding one index only changes the plans of statements
that touch its table (exactly what
:meth:`WhatIfOptimizer._relevant_structures` computes).  This module
exploits that through one piece of costing state, without moving a
single float:

* **The plan table.**  ``(statement, table, structure, base method)
  -> AccessPlan | None``: the access plan of one structure for one
  statement's predicate context on one table, against a base structure
  compressed with one method.  The base only enters through a
  non-covering structure's row lookups, which the cost model charges by
  the base's compression method alone, so every base with that method
  (the heap and each clustered variant) shares the entry; the base's
  own plan sits under its own identity.  An entry is evaluated when a
  costing first reads it, once per :class:`PlanTables`, through the
  kernel's shape memo, by
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
  after each :meth:`rebase`) in one pass of ``probe > chosen``, for
  every candidate of the sweep.  A strict loser keeps its reference
  term; a strict winner is the new first minimum whatever its
  position, so its plan is patched into the reference's chosen plans;
  a tie goes to whichever of the two the structure order puts first.
  Every other diff (swaps, removals, multi-adds, a rebase) re-chooses
  only on the tables the diff touches and keeps the reference's plans
  elsewhere.

* **Full recosts.**  The first reference costed over a set of tables
  (later costers over them weight the totals it left), statements with
  an MV in scope (substitution is the optimizer's decision), statements
  on an untracked table and statements whose table choice ever
  disagreed with the plan costs the optimizer reported go through
  :meth:`WhatIfOptimizer.cost_with_plans`, which owns the statement
  cache and the persistent :class:`~repro.parallel.cache.CostCache`.

* **The cost memo.**  A configuration's per-statement raw totals are a
  pure function of (the configuration, the stage); only the final
  multiply-and-sum reads the weights.  So :meth:`DeltaWorkloadCoster.
  workload_cost` stores, for each configuration it costs, two layers:
  the raw totals, sparse — the totals tuple of the reference it was
  costed against, shared by every entry costed from that reference,
  plus the statements the body recosted or patched — and the weighted
  cost it returned, kept for the weight vector in force.  The same
  configuration again under those weights — in a later sweep, a
  converging seeded start, a rerun, the next budget of a sweep — is
  one dict read; under other weights over the same statements (a
  retune phase) the raw totals are reweighted, ``sum(w[i] * t[i])`` in
  statement order, which is the float the body would return: every
  term the body sums is one such product, and a reused term
  ``w[i] * ref_totals[i]``.  A sweep-shaped configuration ``reference ∪
  {secondary}`` is keyed by (the reference's members, the secondary),
  so one frozenset serves a whole sweep — the pair ``Configuration.add``
  recorded as the candidate's provenance, with no set difference; any
  other by its own members (a frozenset).  The memo lives
  beside the plan table in :class:`PlanTables`, and a statement joining
  ``distrusted`` empties it, raw totals and weighted costs alike, since
  entries may have been built from that statement's plans.  The first
  reference and the reference itself are answered before the memo is
  consulted; every read is counted in ``cost_memo_hits``.  With a cache
  directory the raw layer persists per stage
  (:class:`~repro.parallel.cache.CostMemoFile`): a new process over the
  same stage reads its search instead of recosting it.

Determinism contract: recommendations with delta costing on are
byte-identical to the full-recost path at any worker count.  A term is
only ever rebuilt from plans that are *provably the bit-identical
plans* the full path would choose.

State comes in two lifetimes.  A **coster** is per-run state: its
weights, reference and counters belong to one search and are never
shared.  The :class:`PlanTables` under it are budget-, reference- and
weight-free — every entry a pure function of its key under one
optimizer's sizes and statistics (the cost memo's weighted layer is a
cache of its raw totals under the weights in force) — so any
number of costers over the same statement sequence (a rerun, another
budget or algorithm, a drifted phase's weights) may read and fill one
set of tables, one after another.  The one rule that bounds that
sharing: these keys do not embed size estimates (unlike the persistent
:class:`~repro.parallel.cache.CostCache`), so **an entry must never
meet sizes other than the ones it was built from**.  In memory the
advisor keeps the rule by giving the tables and the estimator one
owner and one lifetime — the :class:`~repro.advisor.advisor.
PreparedStage` holds the estimator, the optimizer over its size lookup
and the tables, and is used or dropped as a whole; stage lifetime ==
estimator lifetime.  A session and a service context each hold their
latest stage; a sweep holds one stage per seed per process, each
prepared against a fork view of the pre-sweep caches, which keeps
sharded and sequential sweeps byte-identical.  The cost memo's raw
layer alone outlives its process, through a
:class:`~repro.parallel.cache.CostMemoFile` whose namespace is keyed by
sizes instead: a digest of the cost context, the statements and the
sized signature of every structure the stage sized, so an entry loads
only into a stage whose sizes are bit-identical, and an entry naming a
structure outside that set is never written.  Plan tables, probe rows
and the weighted layer still die with their stage.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.optimizer.access_paths import plan_from_shape
from repro.optimizer.statement_cost import SelectShape, StatementCoster
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


def _weighted_cost(raw: tuple, weights: list) -> float:
    """The workload cost of a raw cost-memo entry — ``(reference
    totals, si, total, si, total, ...)`` — under ``weights``:
    ``sum(w[i] * t[i])`` in statement order, the float a costing body
    with these weights returns, since every term it sums is one such
    product."""
    pairs = iter(raw)
    totals = list(next(pairs))
    for si, total in zip(pairs, pairs):
        totals[si] = total
    return sum(map(operator.mul, weights, totals))


def _plan_tables(diff: Iterable[IndexDef]) -> set[str]:
    """The tables whose plan search a diff changes: its non-MV
    members' (an MV index only ever enters through substitution)."""
    return {ix.table for ix in diff if ix.mv is None}


def _mv_tables(config: Configuration) -> list[tuple[str, ...]]:
    """The table set of every MV index in ``config`` — what decides
    which statements have an MV in scope."""
    return [ix.mv.tables for ix in config.mv_indexes()]


class PlanTables:
    """The stage-lifetime half of delta costing, shareable by every
    coster over one optimizer and one statement sequence.

    Holds the statement skeleton and the tables whose entries are pure
    functions of (statement position, structures, the optimizer's sizes
    and statistics): the plan table, the probe rows read off it, the
    per-SELECT shapes, the maintenance contributions, the first (base)
    reference's unweighted totals and plans, and the **cost memo**,
    configuration -> its unweighted per-statement totals.  None of these
    depends on statement weights, a budget or a reference
    configuration, so costers built over reweighted copies of the same
    statements (a rerun, another budget, a drifted phase) read and fill
    the same entries.  Keys do not embed sizes: the tables share the
    lifetime of the optimizer — and the estimator behind its size
    lookup — they were built against, never a longer one; only the raw
    memo reloads elsewhere, into a stage of bit-identical sizes (see
    the module docstring).

    Beside the raw memo sits its weighted layer, the workload costs
    under the weights in force (:meth:`held_weights`): a coster with
    those weights rereads a configuration in one dict read, and a
    coster with other weights puts its own in force over an empty
    weighted layer.  A distrusted statement empties both layers
    (:meth:`distrust`).
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
        #: uses, and its kernel key: the coster's shape memo's, so a
        #: probe and a full recost share one access-shape entry.  None
        #: for bulk INSERTs, which have no find phase.
        self.shapes: list[SelectShape | None] = []
        self.kernel_keys: list = []
        for s in stmts:
            shape, key = coster.statement_shape(s)
            self.shapes.append(shape)
            self.kernel_keys.append(key)

        #: the plan table: (si, table, structure identity, base
        #: method value) -> AccessPlan (None = unusable plan).  The
        #: base contributes only its compression method (the
        #: non-covering lookup's decompression term), as a str:
        #: ``method.value`` hashes from a cached str hash, the enum
        #: member through ``Enum.__hash__``.
        self.probes: dict = {}
        #: statements whose table choice disagreed with the plan costs
        #: the optimizer reported: always fully recosted.
        self.distrusted: set[int] = set()
        #: (si, structure identity) -> (io, cpu) maintenance
        #: contribution (pure: sizes and stats are fixed).
        self.maint_terms: dict = {}
        #: (candidate identity, base method value) -> the candidate's
        #: plan cost per statement of its table, aligned with
        #: ``by_table`` (inf = unusable plan, or not a SELECT); the
        #: base contributes only its method, as in ``probes``.
        self.probe_rows: dict = {}
        #: (configuration, unweighted totals, chosen plans) of the first
        #: reference costed over these tables — the one reference every
        #: coster starts from, so a later coster weights it instead of
        #: asking the optimizer again.
        self.first_reference: tuple | None = None
        #: the cost memo's raw layer: configuration -> its unweighted
        #: per-statement totals, as (the totals tuple of the reference
        #: it was costed against, then each statement its costing body
        #: recosted or patched and that statement's total, flat); keyed
        #: by (reference members, secondary) for the sweep shape and by
        #: the members otherwise (:meth:`DeltaWorkloadCoster._memo_key`).
        #: Flat tuples of numbers, so the collector soon stops tracking
        #: them.
        self.cost_memo: dict = {}
        #: the weighted layer: configuration -> workload cost under
        #: ``weights``, the vector in force (:meth:`held_weights`).
        self.weighted_costs: dict = {}
        self.weights: list | None = None

    def held_weights(self, weights: list) -> list:
        """Put ``weights`` in force and return the list the costers
        with them share: the held one if equal, whose weighted costs
        stand, else ``weights`` over an empty weighted layer.  The raw
        layer stays either way."""
        if weights != self.weights:
            self.weights = weights
            self.weighted_costs = {}
        return self.weights

    def distrust(self, si: int) -> None:
        """Retire statement ``si`` to full recosts, and drop every memo
        entry, raw and weighted, that may have been built from its
        plans."""
        self.distrusted.add(si)
        self.cost_memo.clear()
        self.weighted_costs.clear()


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
        self._weights = tables.held_weights(
            [ws.weight for ws in statements]
        )
        self._memo = tables.cost_memo
        # The shared containers under the names the costing code reads
        # (filled in place, never rebound).
        self._stmts = tables.stmts
        self._is_select = tables.is_select
        self._tables = tables.tables
        self._by_table = tables.by_table
        self._stmt_index = tables.stmt_index
        self._shapes = tables.shapes
        self._kernel_keys = tables.kernel_keys
        self._probes = tables.probes
        self._distrusted = tables.distrusted
        self._maint_terms = tables.maint_terms
        self._probe_rows = tables.probe_rows

        # Reference state: per-statement weighted terms / raw totals /
        # chosen per-table plans under the reference configuration.
        self._ref_config: Configuration | None = None
        self._ref_terms: list[float] = []
        #: a tuple, shared by the memo entries costed against it.
        self._ref_totals: tuple = ()
        #: per SELECT, its chosen plans aligned with ``tables`` — None
        #: where the optimizer reported none (an MV substitution) or
        #: the plan table cannot reproduce them.
        self._ref_plans: list[tuple | None] = []
        self._ref_total = 0.0

        # Sweep state: depends on the reference configuration, reset on
        # every rebase (the probe rows they are compared with live in
        # the tables, like the plans they are read from).
        #: table -> (base structure, its method value) under the
        #: reference.
        self._ref_bases: dict = {}
        #: table -> the reference's reusable plan costs, aligned with
        #: ``_by_table`` (:meth:`_ref_vector`).
        self._ref_vectors: dict = {}

        # Instrumentation.
        self.reused_terms = 0
        self.patched_terms = 0
        self.patched_maintenance = 0
        self.full_recosts = 0
        self.probe_evals = 0
        self.cost_memo_hits = 0

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
        self._ref_totals = tuple(totals)
        self._ref_plans = plans
        self._ref_total = sum(terms)
        self._ref_bases = {}
        self._ref_vectors = {}
        return self._ref_total

    # ------------------------------------------------------------------
    # costing
    # ------------------------------------------------------------------
    def workload_cost(self, config: Configuration) -> float:
        """Weighted workload cost of ``config``: read from the cost
        memo when any coster costed it before over these tables —
        reweighting its raw totals if that was under other weights —
        else costed and stored.  Costing re-evaluates only the
        statements on the tables the diff against the reference touches
        — and, for the sweep shape ``reference ∪ {one secondary}``, only
        those the candidate's probe row does not strictly lose on."""
        if self._ref_config is None:
            return self.rebase(config)
        if config == self._ref_config:
            return self._ref_total
        key, ix = self._memo_key(config)
        tables = self.tables
        # Weighted costs are kept for the weights in force only: a
        # coster another coster's weights displaced reads raw totals.
        weighted = (
            tables.weighted_costs if self._weights is tables.weights
            else {}
        )
        cost = weighted.get(key)
        if cost is not None:
            self.cost_memo_hits += 1
            return cost
        raw = self._memo.get(key)
        if raw is not None:
            self.cost_memo_hits += 1
            cost = weighted[key] = _weighted_cost(raw, self._weights)
            return cost
        cost, changes = (
            self._diff_cost(config) if ix is None
            else self._sole_add_cost(ix, config)
        )
        self._memo[key] = (self._ref_totals, *changes)
        weighted[key] = cost
        return cost

    def _memo_key(self, config: Configuration) -> tuple:
        """(cost-memo key, sweep candidate) of ``config``.  The sweep
        shape ``reference ∪ {secondary}`` is keyed by (reference
        members, the secondary), so a whole sweep shares one frozenset;
        any other configuration by its own members.

        A sweep candidate is its parent plus one: when ``config``'s
        :attr:`~repro.physical.configuration.Configuration.provenance`
        names the reference's members as its parent's, that pair is the
        key (built once, by ``add``), and no set difference recovers
        the index its caller just added.  Any other configuration takes
        :meth:`_diff_key`, which gives the same key."""
        ref = self._ref_config.indexes
        provenance = config.provenance
        if provenance is not None:
            parent, ix = provenance
            if parent is ref or parent == ref:
                if ix.mv is None and ix.kind is IndexKind.SECONDARY:
                    # The reference's own set in the key: the memo
                    # file numbers sets by object.
                    return (provenance if parent is ref else (ref, ix)), ix
                return config.indexes, None
        return self._diff_key(config)

    def _diff_key(self, config: Configuration) -> tuple:
        """:meth:`_memo_key` of ``config`` from its members alone."""
        ref = self._ref_config.indexes
        members = config.indexes
        if len(members) == len(ref) + 1:
            added = members - ref
            if len(added) == 1:
                (ix,) = added
                if ix.mv is None and ix.kind is IndexKind.SECONDARY:
                    return (ref, ix), ix
        return members, None

    def _diff_cost(self, config: Configuration) -> tuple:
        """(workload cost, [si, raw total, ...] of the statements it
        recosted) of any configuration but the sweep shape: re-choose
        on the tables the diff touches, and keep the reference's plans
        elsewhere."""
        diff = config.indexes ^ self._ref_config.indexes
        affected = self._affected(diff)
        if not affected:
            return self._ref_total, ()
        mv_tables, touched = _mv_tables(config), _plan_tables(diff)
        out = list(self._ref_terms)
        ref_totals = self._ref_totals
        changes = []
        for si in affected:
            out[si], total, _plans = self._recost(
                si, config, mv_tables, touched
            )
            if total is not ref_totals[si]:  # not a reused term
                changes += (si, total)
        return sum(out), changes

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
    # ledger-only names
    # ------------------------------------------------------------------
    def _ledger_only(self, *_args) -> None:
        """Does nothing, and nothing in the library calls it: the
        benchmark ledger wraps these three names, and they go when its
        next revision retires them (ROADMAP direction 2)."""

    register_universe = improvement_possible = improvement_cap = \
        _ledger_only

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
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
            "cost_memo_hits": self.cost_memo_hits,
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
                self.tables.distrust(si)
                plans = None
        return (
            self._weights[si] * breakdown.total, breakdown.total, plans
        )

    def _sole_add_cost(self, ix: IndexDef, config: Configuration) -> tuple:
        """(workload cost, [si, raw total, ...] of the statements it
        recosted or patched) of ``reference ∪ {ix}`` for a secondary
        ``ix``: one ``probe > chosen`` pass over its table's
        statements."""
        table = ix.table
        stmts = self._by_table.get(table, ())
        contested = [
            (si, probe, chosen) for si, probe, chosen in zip(
                stmts, self._probe_row(ix), self._ref_vector(table)
            )
            if not probe > chosen
        ]
        # Strict losers keep their reference term, bit for bit.
        self.reused_terms += len(stmts) - len(contested)
        if not contested:
            return self._ref_total, ()
        out = list(self._ref_terms)
        changes = []
        plan_key = (table, index_identity(ix), self._ref_base(table)[1])
        mv_tables = None
        for si, probe, chosen in contested:
            if chosen == _INF:
                # Nothing to lose to: a maintenance statement, an MV in
                # scope, no reference plans.
                if mv_tables is None:
                    mv_tables = _mv_tables(config)
                out[si], total, _plans = self._recost(
                    si, config, mv_tables, {table}
                )
                changes += (si, total)
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
            total = self._select_total(si, plans)
            out[si] = self._weights[si] * total
            changes += (si, total)
        return sum(out), changes

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
        method = base.method.value
        best = None
        for ix in config.structures_on(table):
            plan = self._plan(si, table, ix, base, method)
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
        """(base structure, its method's value) of ``table`` under the
        reference — (None, None) for an untracked table."""
        cached = self._ref_bases.get(table)
        if cached is None:
            base = self._ref_config.base_structure(table)
            cached = (base, None if base is None else base.method.value)
            self._ref_bases[table] = cached
        return cached

    def _ref_vector(self, table: str) -> list[float]:
        """The cost of the plan the reference chose on ``table`` for
        every statement on it, aligned with ``_by_table`` — inf where
        there is none to lose to: a maintenance statement, an MV
        substitution, or an MV in the statement's scope, where reuse
        needs a recost (built on first demand after a rebase)."""
        vector = self._ref_vectors.get(table)
        if vector is None:
            mv_tables = _mv_tables(self._ref_config)
            vector = []
            for si in self._by_table.get(table, ()):
                plans = self._ref_plans[si]
                vector.append(
                    _INF if plans is None
                    or self._mv_in_scope(si, mv_tables)
                    else plans[self._stmts[si].tables.index(table)].cost
                )
            self._ref_vectors[table] = vector
        return vector

    def _probe_row(self, ix: IndexDef) -> list[float]:
        """Secondary ``ix``'s access-plan cost for every statement on
        its table against the table's reference base, aligned with
        ``_by_table`` — inf where it has no usable plan and for
        maintenance statements (whose terms are never reused).  Read
        off the plan table on first demand and kept for the run: a plan
        depends on the base's compression method, not on the rest of
        the reference."""
        table = ix.table
        base, method = self._ref_base(table)
        key = (index_identity(ix), method)
        row = self._probe_rows.get(key)
        if row is None:
            row = []
            for si in self._by_table.get(table, ()):
                plan = (
                    self._plan(si, table, ix, base, method)
                    if base is not None and self._is_select[si] else None
                )
                row.append(_INF if plan is None else plan.cost)
            self._probe_rows[key] = row
        return row

    def _plan(
        self, si: int, table: str, ix: IndexDef, base: IndexDef,
        method: str,
    ):
        """The plan-table entry of ``ix`` for statement ``si`` on
        ``table`` against ``base``, whose ``method.value`` is
        ``method`` (evaluated on first demand; None = unusable)."""
        key = (si, table, index_identity(ix), method)
        plan = self._probes.get(key, _UNPROBED)
        if plan is _UNPROBED:
            plan = self._probes[key] = self._probe(si, table, ix, base)
        return plan

    def _probe(self, si: int, table: str, ix: IndexDef, base: IndexDef):
        """One plan evaluation with exactly the inputs
        ``StatementCoster._structures_for`` would feed
        ``best_access_plan``, through the kernel's shape memo."""
        self.probe_evals += 1
        preds, needed = self._shapes[si].inputs[table]
        whatif = self.whatif
        ix_bytes, ix_rows = whatif._sizes(ix)
        constants = whatif.coster.constants
        shape = whatif.kernel.shape_for(
            (self._kernel_keys[si], table), ix, preds, needed,
            whatif.stats.table(table), constants,
        )
        if shape is None:
            return None
        return plan_from_shape(ix, ix_bytes, ix_rows, shape, constants, base)
