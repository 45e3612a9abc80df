"""Delta-aware workload costing: incremental what-if recosting for the
enumeration hot path.

The greedy search costs ``config ∪ {candidate}`` for every pool member at
every step, yet adding one index only changes the plans of statements
that touch its table (exactly what
:meth:`WhatIfOptimizer._relevant_structures` computes).  This module
exploits that three ways, without moving a single float:

* **Statement-level memoization.**  Per-statement weighted cost terms
  are memoized on the statement's *relevant-structure subset signature*
  (the :func:`~repro.parallel.signature.index_identity` set of the
  structures on its tables).  Costing a candidate configuration diffs it
  against a *reference* configuration and re-evaluates only the
  statements whose relevant set actually changed; every other
  statement's term is reused untouched.  The workload total is the sum
  of the per-statement terms in workload order — the identical
  left-to-right accumulation :meth:`WhatIfOptimizer.workload_cost`
  performs, so totals are bit-equal to the full-recost path.

* **Access-path probes, resolved sweep-major.**  For a SELECT
  statement, adding one secondary index only changes the cost if the
  new index's single-table access plan *beats* the plan the optimizer
  chose without it (plan selection is a ``min`` over per-structure
  plans, and every other term of the statement cost is unchanged when
  the chosen plans are unchanged).  A greedy sweep asks that question
  for every (candidate, statement) pair on every step, so the two
  operands are held in sweep shape: a **probe row** per (candidate,
  base structure) — the candidate's access-plan cost for every
  statement on its table, valid for the whole run — and a **reference
  vector** per table — the plan cost the reference configuration chose
  for each of those statements, rebuilt after each :meth:`rebase`.
  Costing ``reference ∪ {secondary}`` is one pass of ``probe > chosen``
  comparisons; a statement whose probe *strictly loses* keeps its
  reference term (the exact new term) without touching the memo or
  allocating anything.  Strictness matters: on a tie the optimizer's
  first-minimum tie-break could switch plans, so ties — like winners,
  maintenance statements and statements with an MV in scope — go on to
  the per-statement memo, where a tie recomputes the table's plan
  search and a *strict win* (a unique strict minimum) rebuilds the
  statement total from the reference's chosen plans with the winner
  patched in, replaying ``_cost_select``'s exact accumulation — the
  same floats in the same order — so even winning candidates skip the
  all-tables x all-structures recost.  The same argument covers a
  *removed* secondary the reference did not choose (a compression-
  method swap removes one variant and adds another): the chosen plan
  stays the first minimum over what remains.

* **Bound-based candidate pruning.**  Per statement the coster
  maintains a lower bound — the cheapest cost any enumerable
  configuration could achieve, derived from the cost model over the
  registered candidate universe (every structure's best access plan
  under every possible base, optimistic join/group terms, matching MV
  substitutions; the classic AutoAdmin "atomic configuration" trick).
  ``improvement_possible`` lets the enumerator skip candidates whose
  optimistic total already loses to the current cost without costing
  them at all.  Two prune classes, both decision-identical to the full
  path by construction:

  - *zero-delta certificates* (always on): every affected statement is
    a SELECT whose probes all strictly lose — the candidate's total is
    bit-identical to the current cost, so the full path would compute
    ``delta_cost == 0`` and skip it anyway.
  - *bound pruning* (enabled by the enumerator only where provably
    safe: greedy scoring): the candidate's optimistic improvement is
    below half the enumerator's ``min_improvement`` acceptance
    threshold, so even if costed it could only be chosen-and-rejected,
    which leaves the search state exactly where pruning does.  Under
    backtracking the enumerator instead combines
    :meth:`~DeltaWorkloadCoster.improvement_cap` with a rescue sweep
    (see ``GreedyBacktrackAlgorithm._rescue_candidate_costs``) so the
    best-oversized recovery channel stays decision-identical too.

Determinism contract: recommendations with delta costing on are
byte-identical to the full-recost path at any worker count.  Reuse only
ever happens when the reused float is *provably the bit-identical value*
the full path would compute; pruning only ever skips work whose outcome
is provably invisible.

The coster is strictly per-run state: its memo keys do not embed size
estimates (unlike the persistent :class:`~repro.parallel.cache.CostCache`),
so a memo must never outlive the estimator whose sizes it was built
from.  Sweep orchestration honors that by construction — every (seed,
budget) unit's :class:`TuningAdvisor` builds a fresh coster against its
own seeded estimator, the delta-memo equivalent of handing each unit an
*empty* fork view of the persistent caches — which keeps sharded and
sequential sweeps byte-identical.  :meth:`fork_view` offers the same
isolation as an explicit API for embedders that hold a coster across
runs.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.optimizer.access_paths import (
    best_access_plan,
    cost_access,
    plan_from_shape,
)
from repro.optimizer.statement_cost import mv_matches_query
from repro.parallel.signature import index_identity
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.stats.selectivity import conjunction_selectivity
from repro.storage.index_build import IndexKind
from repro.storage.page import PAGE_SIZE
from repro.workload.query import (
    DeleteQuery,
    InsertQuery,
    SelectQuery,
    UpdateQuery,
    Workload,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle with whatif
    from repro.optimizer.whatif import WhatIfOptimizer

#: sentinel distinguishing "not yet computed" from a computed None
#: (an unusable plan, an unavailable cap).
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
    recost there, the zero-delta certificate does not.  ``cap`` is the
    table's ``Σ reference term − floor``, summed on first demand."""

    __slots__ = ("stmts", "chosen", "reusable", "cap")

    def __init__(self, stmts, chosen, reusable) -> None:
        self.stmts = stmts
        self.chosen = chosen
        self.reusable = reusable
        self.cap = _UNPROBED


def _sole_addition(added, removed) -> "IndexDef | None":
    """The one non-MV index a pure single-add diff adds (the sweep
    shape ``reference ∪ {candidate}``), else None."""
    if removed or len(added) != 1:
        return None
    (ix,) = added
    return ix if ix.mv is None else None


class DeltaWorkloadCoster:
    """Incremental workload costing against a reference configuration.

    Args:
        whatif: the what-if optimizer providing full statement costings
            (with its in-memory and persistent caches) plus the sizes,
            stats and cost constants the probes must match exactly.
        workload: the weighted workload being tuned; the statement order
            fixes the float accumulation order of every total.
    """

    def __init__(self, whatif: "WhatIfOptimizer", workload: Workload) -> None:
        self.whatif = whatif
        self.workload = workload
        statements = list(workload)
        self._stmts = [ws.statement for ws in statements]
        self._weights = [ws.weight for ws in statements]
        self._is_select = [
            isinstance(s, SelectQuery) for s in self._stmts
        ]
        self._tables: list[set[str]] = [
            set(s.tables) if isinstance(s, SelectQuery) else {s.table}
            for s in self._stmts
        ]
        self._by_table: dict[str, list[int]] = defaultdict(list)
        for si, tables in enumerate(self._tables):
            for table in tables:
                self._by_table[table].append(si)
        #: first statement index per distinct statement (for the
        #: single-statement API used by candidate selection).
        self._stmt_index: dict = {}
        for si, stmt in enumerate(self._stmts):
            self._stmt_index.setdefault(stmt, si)
        db = whatif.database
        #: per SELECT statement: table -> (predicates, needed columns),
        #: the exact probe inputs ``StatementCoster._cost_select`` uses.
        self._probe_info: list[dict | None] = [
            {
                t: (
                    s.predicates_of_table(db, t),
                    s.columns_of_table(db, t),
                )
                for t in s.tables
            }
            if isinstance(s, SelectQuery) else None
            for s in self._stmts
        ]
        #: per maintenance statement: (table, find-probe SELECT | None) —
        #: the probe is the exact SELECT ``_cost_update``/``_cost_delete``
        #: construct to find the affected rows (None for bulk INSERTs,
        #: which have no find phase).
        self._maint_info: list[tuple | None] = []
        for s in self._stmts:
            if isinstance(s, InsertQuery):
                self._maint_info.append((s.table, None))
            elif isinstance(s, UpdateQuery):
                self._maint_info.append((s.table, SelectQuery(
                    tables=(s.table,),
                    select_columns=tuple(s.set_columns),
                    predicates=s.predicates,
                )))
            elif isinstance(s, DeleteQuery):
                self._maint_info.append((s.table, SelectQuery(
                    tables=(s.table,), predicates=s.predicates,
                )))
            else:
                self._maint_info.append(None)
        # Probe info for the find-probe SELECTs, so ``_table_plan`` can
        # replay their plan search with the optimizer's own inputs.
        for si, info in enumerate(self._maint_info):
            if info is None or info[1] is None:
                continue
            table, probe = info
            self._probe_info[si] = {
                table: (
                    probe.predicates_of_table(db, table),
                    probe.columns_of_table(db, table),
                )
            }

        # Reference state: per-statement signatures / weighted terms /
        # raw totals / chosen per-table plan costs / chosen plans for
        # the reference configuration.
        self._ref_config: Configuration | None = None
        self._ref_sigs: list[frozenset] = []
        self._ref_terms: list[float] = []
        self._ref_totals: list[float] = []
        self._ref_plans: list[tuple[float, ...] | None] = []
        self._ref_full_plans: list[tuple | None] = []
        self._ref_total = 0.0

        #: (si, relevant-subset signature) ->
        #: (term, total, plan_costs, full AccessPlan tuple | None)
        self._memo: dict = {}
        #: (si, table, candidate identity, base identity) ->
        #: AccessPlan (None = unusable plan).
        self._probes: dict = {}
        #: (si, dimension table) -> conjunction selectivity (pure).
        self._dim_sel: dict = {}
        #: (si, table, table-local structure identities) -> AccessPlan.
        self._table_plans: dict = {}
        #: (si, structure identity) -> (io, cpu) maintenance
        #: contribution (pure per run: sizes and stats are fixed).
        self._maint_terms: dict = {}
        #: si -> affected row count of the maintenance statement (pure).
        self._maint_affected: dict[int, float] = {}

        # Bound state (populated by register_universe).
        self._universe: list[IndexDef] | None = None
        self._universe_by_table: dict[str, list[IndexDef]] = {}
        self._universe_sizes: dict | None = None
        self._floors: dict[int, float | None] = {}
        #: live peek-only size resolver (see register_universe) — the
        #: kernel probe batches use it to size whole lane groups
        #: without triggering estimation work.
        self._size_peek: Callable | None = None
        #: (si, table, base identity) groups already batch-probed.
        self._probe_filled: set = set()

        # Sweep state.  _ref_bases and _ref_vectors depend on the
        # reference configuration and are reset on every rebase;
        # _probe_rows (like the probes they are read from) and _sig_mv
        # (a pure property of a signature) persist for the run.
        #: table -> (base structure, base identity) under the reference.
        self._ref_bases: dict = {}
        #: table -> _RefVector under the reference.
        self._ref_vectors: dict = {}
        #: (candidate identity, base identity) -> the candidate's probe
        #: cost per statement of its table, aligned with ``_by_table``
        #: (inf = unusable plan, or not a SELECT).
        self._probe_rows: dict = {}
        #: signature -> whether it contains an MV identity.
        self._sig_mv: dict = {}

        # Instrumentation.
        self.reused_terms = 0
        self.patched_terms = 0
        self.patched_maintenance = 0
        self.full_recosts = 0
        self.memo_hits = 0
        self.probe_evals = 0
        self.pruned_zero_delta = 0
        self.pruned_bound = 0

    # ------------------------------------------------------------------
    # reference management
    # ------------------------------------------------------------------
    def rebase(self, config: Configuration) -> float:
        """Make ``config`` the reference and return its workload cost
        (bit-identical to :meth:`WhatIfOptimizer.workload_cost`).

        Cheap when ``config`` was just costed: every changed statement's
        term comes out of the memo."""
        if self._ref_config is not None and config == self._ref_config:
            return self._ref_total
        n = len(self._stmts)
        if self._ref_config is None:
            sigs, terms, totals, plans, full = [], [], [], [], []
            for si in range(n):
                sig = self._sig(si, config)
                term, total, pc, fp = self._term_for(si, sig, config)
                sigs.append(sig)
                terms.append(term)
                totals.append(total)
                plans.append(pc)
                full.append(fp)
        else:
            added = config.indexes - self._ref_config.indexes
            removed = self._ref_config.indexes - config.indexes
            sigs = list(self._ref_sigs)
            terms = list(self._ref_terms)
            totals = list(self._ref_totals)
            plans = list(self._ref_plans)
            full = list(self._ref_full_plans)
            for si in self._affected(added | removed):
                sig = self._shifted_sig(si, added, removed)
                term, total, pc, fp = self._term_for(
                    si, sig, config, added=added, removed=removed
                )
                sigs[si] = sig
                terms[si] = term
                totals[si] = total
                plans[si] = pc
                full[si] = fp
        self._ref_config = config
        self._ref_sigs = sigs
        self._ref_terms = terms
        self._ref_totals = totals
        self._ref_plans = plans
        self._ref_full_plans = full
        self._ref_total = sum(terms)
        self._ref_bases = {}
        self._ref_vectors = {}
        return self._ref_total

    # ------------------------------------------------------------------
    # costing
    # ------------------------------------------------------------------
    def workload_cost(self, config: Configuration) -> float:
        """Weighted workload cost of ``config``, re-evaluating only the
        statements whose relevant-structure set differs from the
        reference configuration's — and, for ``reference ∪ {one
        secondary}``, only those the candidate's probe row does not
        strictly lose on."""
        if self._ref_config is None:
            return self.rebase(config)
        ref = self._ref_config
        if config == ref:
            return self._ref_total
        added = config.indexes - ref.indexes
        removed = ref.indexes - config.indexes
        ix = _sole_addition(added, removed)
        if ix is not None and ix.kind is IndexKind.SECONDARY:
            vector = self._ref_vector(ix.table)
            affected = [
                si for si, probe, chosen in zip(
                    vector.stmts, self._probe_row(ix), vector.reusable
                )
                if not probe > chosen
            ]
            # Strict losers keep their reference term, bit for bit.
            self.reused_terms += len(vector.stmts) - len(affected)
        else:
            affected = self._affected(added | removed)
        if not affected:
            return self._ref_total
        out = list(self._ref_terms)
        for si in affected:
            out[si] = self._term_for(
                si, self._shifted_sig(si, added, removed), config,
                added, removed,
            )[0]
        return sum(out)

    def batch(self, configs: Sequence[Configuration]) -> list[float]:
        """Workload costs of many configurations, in input order."""
        return [self.workload_cost(config) for config in configs]

    def statement_cost(self, statement, config: Configuration) -> float:
        """One statement's (unweighted) optimizer cost under ``config``,
        through the delta memo — the hook candidate selection uses."""
        si = self._stmt_index.get(statement)
        if si is None or self._ref_config is None:
            return self.whatif.cost(statement, config).total
        added = config.indexes - self._ref_config.indexes
        removed = self._ref_config.indexes - config.indexes
        if not any(self._relevant(si, ix) for ix in added) and \
                not any(self._relevant(si, ix) for ix in removed):
            return self._ref_totals[si]
        return self._term_for(
            si,
            self._shifted_sig(si, added, removed),
            config,
            added=added,
            removed=removed,
        )[1]

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------
    def register_universe(
        self,
        universe: Iterable[IndexDef],
        size_if_known: Callable[[IndexDef], "tuple[float, float] | None"],
    ) -> None:
        """Declare every structure an enumeration could ever place in a
        configuration, enabling per-statement lower bounds.

        Args:
            universe: candidate pool plus base structures plus every
                method variant the search phases may introduce.
            size_if_known: resolves an index to ``(est_bytes, est_rows)``
                **only when no new estimation work is needed** — bounds
                must never trigger size estimation, or the delta-on and
                delta-off estimation orders (and therefore their
                deduction plans) could diverge.  Tables with any
                unresolvable universe member get no bound.
        """
        seen: dict = {}
        for ix in universe:
            seen.setdefault(index_identity(ix), ix)
        self._universe = list(seen.values())
        self._universe_by_table = defaultdict(list)
        self._universe_sizes = {}
        for ix in self._universe:
            if not ix.is_mv_index:
                self._universe_by_table[ix.table].append(ix)
            size = size_if_known(ix)
            if size is not None:
                self._universe_sizes[index_identity(ix)] = size
        # Keep the live resolver too: probe batches fill lanes for
        # *currently* peekable structures (the snapshot above stays the
        # floors' source so bounds are stable across a run).  The
        # resolver must agree with the optimizer's own size lookup
        # whenever it resolves — the same contract the floors already
        # rely on for soundness.
        self._size_peek = size_if_known
        self._floors = {}
        self._probe_filled = set()
        self._ref_vectors = {}  # their caps were sums over the old floors

    def lower_bound(self, si: int) -> float | None:
        """Weighted lower bound on statement ``si``'s term over every
        enumerable configuration (None = no sound bound available)."""
        if self._universe is None:
            return None
        if si not in self._floors:
            self._floors[si] = self._compute_floor(si)
        return self._floors[si]

    def improvement_possible(
        self,
        config: Configuration,
        prune_threshold: float | None = None,
    ) -> bool:
        """Whether costing ``config`` could possibly change the search.

        False means the enumerator may skip the candidate entirely:
        either its total is provably bit-identical to the reference cost
        (zero-delta certificate), or — when the enumerator passes a
        ``prune_threshold`` because its strategy makes it safe — the
        candidate's optimistic improvement over the reference is below
        that threshold."""
        ref = self._ref_config
        if ref is None:
            return True
        added = config.indexes - ref.indexes
        removed = ref.indexes - config.indexes
        if removed:
            return True  # swaps/base replacements: never certified
        affected = self._affected(added)
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
                for si in affected
            )
        if certified:
            self.pruned_zero_delta += 1
            return False

        if prune_threshold is not None:
            cap = 0.0
            for si in affected:
                floor = self.lower_bound(si)
                if floor is None:
                    return True
                cap += self._ref_terms[si] - floor
                if cap >= prune_threshold:
                    return True
            self.pruned_bound += 1
            return False
        return True

    def improvement_cap(self, config: Configuration) -> float | None:
        """Optimistic upper bound on how much ``config`` can improve on
        the reference total (None = no sound cap: no reference or
        universe yet, removals in the diff, or an affected statement
        without a floor).

        The enumerator-side counterpart of the ``prune_threshold`` arm
        of :meth:`improvement_possible`, for strategies that cannot
        prune on the cap alone — the backtracking rescue sweep in
        ``greedy-backtrack`` compares caps across the whole candidate
        sweep before deciding which low-cap candidates were provably
        invisible (and then records them via :meth:`note_bound_pruned`).
        The cap is a property of the affected statements, so a sweep's
        candidates on one table share one sum per reference.
        """
        ref = self._ref_config
        if ref is None or self._universe is None:
            return None
        added = config.indexes - ref.indexes
        removed = ref.indexes - config.indexes
        if removed:
            return None  # swaps/base replacements: no cap
        ix = _sole_addition(added, ())
        if ix is None:
            return self._cap_over(self._affected(added))
        vector = self._ref_vector(ix.table)
        if vector.cap is _UNPROBED:
            vector.cap = self._cap_over(vector.stmts)
        return vector.cap

    def _cap_over(self, affected: list[int]) -> float | None:
        """``Σ reference term − floor`` over ``affected``, in workload
        order (None when a statement has no floor)."""
        cap = 0.0
        for si in affected:
            floor = self.lower_bound(si)
            if floor is None:
                return None
            cap += self._ref_terms[si] - floor
        return cap

    def note_bound_pruned(self, n: int = 1) -> None:
        """Record ``n`` candidates skipped by enumerator-side bound
        pruning (caps obtained via :meth:`improvement_cap` rather than
        decided inside :meth:`improvement_possible`)."""
        self.pruned_bound += n

    # ------------------------------------------------------------------
    # views & stats
    # ------------------------------------------------------------------
    def fork_view(self) -> "DeltaWorkloadCoster":
        """A fresh, isolated coster over the same workload skeleton.

        Like the persistent caches' :meth:`fork_view`, but the overlay
        starts *empty*: delta memo keys do not embed size estimates, so
        entries are only valid under the estimator state that produced
        them.  Sweep units get this isolation implicitly (each unit's
        advisor constructs its own coster); the explicit method is for
        embedders that keep one coster across runs and need a sibling
        that can never observe its terms."""
        return type(self)(self.whatif, self.workload)

    def stats(self) -> dict:
        return {
            "statements": len(self._stmts),
            "memo_entries": len(self._memo),
            "memo_hits": self.memo_hits,
            "reused_terms": self.reused_terms,
            "patched_terms": self.patched_terms,
            "patched_maintenance": self.patched_maintenance,
            "full_recosts": self.full_recosts,
            "probe_evals": self.probe_evals,
            "probe_entries": len(self._probes),
            "maintenance_entries": len(self._maint_terms),
            "pruned_zero_delta": self.pruned_zero_delta,
            "pruned_bound": self.pruned_bound,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _relevant(self, si: int, index: IndexDef) -> bool:
        """Mirror of ``WhatIfOptimizer._relevant_structures`` for one
        (statement, index) pair."""
        mv = index.mv
        if mv is not None:
            return bool(self._tables[si] & set(mv.tables))
        return index.table in self._tables[si]

    def _sig(self, si: int, config: Configuration) -> frozenset:
        return frozenset(
            index_identity(ix) for ix in config if self._relevant(si, ix)
        )

    def _shifted_sig(self, si: int, added, removed) -> frozenset:
        """The relevant-subset signature after a diff, derived from the
        reference signature without rescanning the configuration."""
        sig = self._ref_sigs[si]
        if removed:
            sig = sig.difference(
                index_identity(ix) for ix in removed
                if self._relevant(si, ix)
            )
        if added:
            sig = sig.union(
                index_identity(ix) for ix in added
                if self._relevant(si, ix)
            )
        return sig

    def _sig_has_mv(self, sig: frozenset) -> bool:
        """Whether a signature contains an MV identity — memoized, as
        the same signatures are re-examined on every sweep."""
        has = self._sig_mv.get(sig)
        if has is None:
            has = any(t[6] is not None for t in sig)
            self._sig_mv[sig] = has
        return has

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
                mv_tables = set(ix.mv.tables)
                for si, tables in enumerate(self._tables):
                    if tables & mv_tables:
                        out.add(si)
            else:
                out.update(self._by_table.get(ix.table, ()))
        return sorted(out)

    def _term_for(
        self,
        si: int,
        sig: frozenset,
        config: Configuration,
        added=None,
        removed=None,
    ) -> tuple:
        """(weighted term, raw total, chosen per-table plan costs,
        chosen plans) of statement ``si`` under ``config`` — memoized,
        probe-reused or plan-patched when provably exact, fully
        recosted otherwise."""
        entry = self._memo.get((si, sig))
        if entry is not None:
            self.memo_hits += 1
            return entry
        entry = None
        if added is not None:
            if self._is_select[si] and self._ref_plans[si] is not None:
                entry = self._delta_entry(si, sig, config, added, removed)
            elif self._maint_info[si] is not None:
                entry = self._maintenance_entry(si, sig, config)
        if entry is None:
            breakdown, plan_costs = self.whatif.cost_with_plans(
                self._stmts[si], config
            )
            term = self._weights[si] * breakdown.total
            entry = (
                term, breakdown.total, plan_costs,
                breakdown.plans or None,
            )
            self.full_recosts += 1
        self._memo[(si, sig)] = entry
        return entry

    def _delta_entry(
        self, si: int, sig: frozenset, config: Configuration,
        added, removed,
    ) -> tuple | None:
        """The exact memo entry for a SELECT under a diffed candidate,
        when the plans decide it without a full recost:

        * reference reuse when every change is invisible (non-matching
          MVs, unusable plans, added plans that strictly lose, removed
          secondaries the reference did not choose);
        * a plan-patched rebuild otherwise — a purely-added winner's
          probe plan (a strict unique minimum), or, for tables whose
          structure set changed structurally (base swaps, a removed
          chosen plan, ties), the table's plan recomputed by the *real*
          ``_structures_for`` + :func:`best_access_plan`, so ordering
          and tie-breaks are the optimizer's own.

        None means only a full recost is exact (MV substitution in
        scope, or no reference plans to patch)."""
        stmt = self._stmts[si]
        if self._sig_has_mv(sig):
            return None  # MVs in scope: substitution needs a recost
        full = self._ref_full_plans[si]
        recompute: set[str] = set()
        winners: dict[str, object] = {}
        for ix in removed:
            if not self._relevant(si, ix):
                continue
            if ix.is_mv_index:
                # Non-matching MVs are invisible; matching ones change
                # the substitution choice.
                if mv_matches_query(ix.mv, stmt):
                    return None
                continue
            if (
                ix.kind is IndexKind.SECONDARY
                and full is not None
                and full[stmt.tables.index(ix.table)].index != ix
            ):
                # A secondary the reference did not choose: every
                # structure ordered before the chosen plan still costs
                # strictly more and none after it costs less, so the
                # chosen plan stays the first minimum over what remains
                # (the method-swap shape: its added variant is probed
                # against that same chosen cost below).
                continue
            recompute.add(ix.table)
        for ix in added:
            if not self._relevant(si, ix):
                continue
            if ix.is_mv_index:
                if mv_matches_query(ix.mv, stmt):
                    return None  # MV substitution: full recost
                continue  # non-matching MV: invisible to this SELECT
            table = ix.table
            if table in recompute:
                continue
            if ix.kind is not IndexKind.SECONDARY:
                recompute.add(table)  # base add: whole plan set shifts
                winners.pop(table, None)
                continue
            plan = self._probe_cached(si, ix)
            if plan is None:
                continue  # unusable plan: invisible
            chosen = self._chosen_plan_cost(si, table)
            if chosen is None:  # pragma: no cover - defensive
                recompute.add(table)
                winners.pop(table, None)
                continue
            if plan.cost > chosen:
                continue  # strict loss: invisible
            if plan.cost == chosen:
                # Tie: the optimizer's first-minimum order decides.
                recompute.add(table)
                winners.pop(table, None)
                continue
            best = winners.get(table)
            if best is None:
                winners[table] = plan
            elif plan.cost < best.cost:
                winners[table] = plan
            else:
                if plan.cost == best.cost:
                    recompute.add(table)  # tied winners: order decides
                    winners.pop(table, None)
        if not recompute and not winners:
            # Every change invisible: the reference floats are the
            # candidate's floats, bit for bit.
            self.reused_terms += 1
            return (
                self._ref_terms[si],
                self._ref_totals[si],
                self._ref_plans[si],
                full,
            )
        if full is None:
            # Persistent replay: the reference carries plan costs but
            # not the plans themselves — rebuild them with the real
            # plan search (bit-identical by construction, and verified
            # against the replayed costs before use).
            full = self._reconstruct_ref_plans(si)
            if full is None:
                return None
        patched = list(full)
        for table, plan in winners.items():
            patched[stmt.tables.index(table)] = plan
        for table in recompute:
            patched[stmt.tables.index(table)] = self._table_plan(
                si, table, sig, config
            )
        total = self._select_total_from_plans(si, patched)
        term = self._weights[si] * total
        self.patched_terms += 1
        return (
            term, total,
            tuple(plan.cost for plan in patched),
            tuple(patched),
        )

    def _maintenance_entry(
        self, si: int, sig: frozenset, config: Configuration
    ) -> tuple | None:
        """The exact memo entry for a maintenance statement (INSERT /
        UPDATE / DELETE) under any configuration, rebuilt from memoized
        per-structure contributions.

        ``_maintenance_cost`` accumulates with :func:`math.fsum`, whose
        exactly-rounded total is independent of structure order — so
        summing the identical per-structure floats here (each computed
        by the *same* ``structure_maintenance`` code the full path runs)
        reproduces the full path's maintenance breakdown bit for bit.
        UPDATE/DELETE find-probes replay ``_cost_select``'s single-table
        arithmetic from the optimizer's own plan search (memoized per
        table-local structure subset).  None falls back to a full recost
        (an MV in scope could change the probe's substitution choice)."""
        table, probe = self._maint_info[si]
        if probe is not None and self._sig_has_mv(sig):
            return None  # MV in scope: the find-probe could substitute
        coster = self.whatif.coster
        affected = self._affected_rows(si)
        io_terms: list[float] = []
        cpu_terms: list[float] = []
        for ix in coster.maintenance_structures(table, config):
            key = (si, index_identity(ix))
            contrib = self._maint_terms.get(key)
            if contrib is None:
                contrib = coster.structure_maintenance(table, affected, ix)
                self._maint_terms[key] = contrib
            io_terms.append(contrib[0])
            cpu_terms.append(contrib[1])
        io = math.fsum(io_terms)
        cpu = math.fsum(cpu_terms)
        total = io + cpu
        if probe is not None:
            # _cost_update/_cost_delete: total = find.total +
            # maintain.total, find.total = plan.io + plan.cpu (single
            # table, no joins/groups/sort on the probe).
            plan = self._table_plan(si, table, sig, config)
            total = (plan.io_cost + plan.cpu_cost) + total
        term = self._weights[si] * total
        self.patched_maintenance += 1
        return (term, total, None, None)

    def _affected_rows(self, si: int) -> float:
        """Affected row count of maintenance statement ``si`` — the
        identical expression ``_cost_insert``/``_cost_update``/
        ``_cost_delete`` evaluate, memoized (it is a pure function of
        the statement and the table statistics)."""
        affected = self._maint_affected.get(si)
        if affected is None:
            stmt = self._stmts[si]
            if isinstance(stmt, InsertQuery):
                affected = float(stmt.n_rows)
            else:
                stats = self.whatif.stats.table(stmt.table)
                affected = stats.n_rows * conjunction_selectivity(
                    stats, stmt.predicates
                )
            self._maint_affected[si] = affected
        return affected

    def _reconstruct_ref_plans(self, si: int) -> tuple | None:
        """Chosen per-table plans of the reference statement costing,
        recomputed with the optimizer's own plan search when the
        reference breakdown was a persistent replay (which persists the
        plan costs, not the plans).  The recomputed costs must equal the
        replayed ones bit-for-bit — a mismatch (changed cost model vs. a
        stale record, which the context fingerprint should preclude)
        falls back to full recosting rather than risk a wrong patch."""
        plan_costs = self._ref_plans[si]
        if plan_costs is None:
            return None
        stmt = self._stmts[si]
        sig = self._ref_sigs[si]
        plans = tuple(
            self._table_plan(si, table, sig, self._ref_config)
            for table in stmt.tables
        )
        if tuple(plan.cost for plan in plans) != plan_costs:
            return None  # pragma: no cover - defensive
        self._ref_full_plans[si] = plans
        return plans

    def _table_plan(self, si: int, table: str, sig: frozenset,
                    config: Configuration):
        """The optimizer's own chosen plan for one table under
        ``config`` — the exact ``_cost_select`` plan search, structure
        ordering and tie-breaking included; memoized on the table-local
        identity subset (a plan only sees its own table's structures)."""
        key = (
            si, table,
            frozenset(
                t for t in sig if t[0] == table and t[6] is None
            ),
        )
        plan = self._table_plans.get(key)
        if plan is not None:
            return plan
        coster = self.whatif.coster
        preds, needed = self._probe_info[si][table]
        plan = best_access_plan(
            self.whatif.database,
            self.whatif.stats.table(table),
            table,
            coster._structures_for(table, config),
            preds,
            needed,
            coster.constants,
            coster.kernel,
            shape_key=(si, table),
        )
        self._table_plans[key] = plan
        return plan

    def _select_total_from_plans(self, si: int, plans: list) -> float:
        """``_cost_select``'s total rebuilt from already-chosen per-table
        plans: the identical arithmetic in the identical order, minus
        the per-structure plan search (only valid with no MV in scope).
        """
        stmt = self._stmts[si]
        constants = self.whatif.coster.constants
        io = cpu = 0.0
        fact = stmt.root_table
        fact_rows_out = None
        dim_sel_product = 1.0
        for table, plan in zip(stmt.tables, plans):
            io += plan.io_cost
            cpu += plan.cpu_cost
            if table == fact:
                fact_rows_out = plan.rows_out
            else:
                dim_sel_product *= self._dim_selectivity(si, table)
        if fact_rows_out is None:  # pragma: no cover - defensive
            fact_rows_out = 0.0
        join_rows = fact_rows_out * dim_sel_product
        if len(stmt.tables) > 1:
            cpu += fact_rows_out * len(stmt.joins) * constants.cpu_join_probe
            for plan in plans[1:]:
                cpu += plan.rows_out * constants.cpu_tuple
        if stmt.group_by or stmt.aggregates:
            cpu += join_rows * constants.cpu_group
        if stmt.order_by and not self._order_satisfied(stmt, plans[0]):
            out_rows = max(2.0, join_rows)
            cpu += out_rows * math.log2(out_rows) * constants.cpu_sort_factor
        return io + cpu

    @staticmethod
    def _order_satisfied(stmt: SelectQuery, fact_plan) -> bool:
        index = fact_plan.index
        if index is None or len(stmt.tables) > 1:
            return False
        k = len(stmt.order_by)
        return index.key_columns[:k] == tuple(stmt.order_by)

    def _dim_selectivity(self, si: int, table: str) -> float:
        sel = self._dim_sel.get((si, table))
        if sel is None:
            preds, _needed = self._probe_info[si][table]
            sel = conjunction_selectivity(
                self.whatif.stats.table(table), preds
            )
            self._dim_sel[(si, table)] = sel
        return sel

    def _chosen_plan_cost(self, si: int, table: str) -> float | None:
        plans = self._ref_plans[si]
        try:
            return plans[self._stmts[si].tables.index(table)]
        except (ValueError, IndexError):  # pragma: no cover - defensive
            return None

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
            chosen = [
                self._chosen_plan_cost(si, table)
                if self._is_select[si] and self._ref_plans[si] is not None
                else _INF
                for si in stmts
            ]
            reusable = [
                _INF if self._sig_has_mv(self._ref_sigs[si]) else cost
                for si, cost in zip(stmts, chosen)
            ]
            vector = _RefVector(stmts, chosen, reusable)
            self._ref_vectors[table] = vector
        return vector

    def _probe_row(self, ix: IndexDef) -> list[float]:
        """Secondary ``ix``'s access-plan cost for every statement on
        its table against the table's reference base, aligned with
        ``_by_table`` — inf where it has no usable plan and for
        maintenance statements (which are never probed).  Read off the
        per-pair probes on first demand and kept for the run: a probe
        depends on the base structure, not on the rest of the
        reference."""
        key = (index_identity(ix), self._ref_base(ix.table)[1])
        row = self._probe_rows.get(key)
        if row is None:
            row = []
            for si in self._by_table.get(ix.table, ()):
                plan = (
                    self._probe_cached(si, ix)
                    if self._is_select[si] else None
                )
                row.append(_INF if plan is None else plan.cost)
            self._probe_rows[key] = row
        return row

    def _probe_cached(self, si: int, ix: IndexDef):
        """The candidate's access plan against the reference base of
        its table (cached; None = unusable)."""
        table = ix.table
        base, base_id = self._ref_base(table)
        if base is None:  # pragma: no cover - bases always tracked
            return None
        key = (si, table, index_identity(ix), base_id)
        plan = self._probes.get(key, _UNPROBED)
        if plan is _UNPROBED:
            self._fill_probe_group(table, base, base_id)
            plan = self._probes.get(key, _UNPROBED)
            if plan is _UNPROBED:
                plan = self._probe(si, table, ix, base)
                self._probes[key] = plan
        return plan

    def _fill_probe_group(
        self, table: str, base: IndexDef, base_id: tuple
    ) -> None:
        """Batch the probes of every universe secondary on ``table``
        whose size is already peekable, across **every** SELECT
        statement touching the table, on the first probe miss against
        this base.  Sweeps probe all affected statements for each
        candidate, so the whole group is demanded work — one lane
        batch per group instead of one :meth:`_probe` per miss.

        Sizing is strictly peek-only (``size_if_known``): a lane is
        only filled when no new estimation work is needed, so the
        delta-on estimation order stays identical to the full-recost
        path — structures the peek cannot resolve fall back to the
        scalar :meth:`_probe` (sized via the optimizer's own lookup) at
        the moment they are actually requested, exactly as before.
        Each filled lane is the same :func:`cost_access` arithmetic
        (shape + kernel evaluation) and lands in the same probe cache,
        so probe decisions are bit-identical to the unbatched path."""
        group = (table, base_id)
        if group in self._probe_filled:
            return
        self._probe_filled.add(group)
        if self._universe is None or self._size_peek is None:
            return
        whatif = self.whatif
        kernel = whatif.kernel
        stats = whatif.stats.table(table)
        constants = whatif.coster.constants
        secondaries = [
            (cand, index_identity(cand), self._size_peek(cand))
            for cand in self._universe_by_table.get(table, [])
            if cand.kind is IndexKind.SECONDARY
        ]
        lanes: list = []
        keys: list = []
        for sj in self._by_table.get(table, ()):
            if not self._is_select[sj]:
                continue
            info = self._probe_info[sj]
            if info is None or table not in info:
                continue
            preds, needed = info[table]
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
        plan = self._probe_cached(si, ix)
        if plan is None:
            return True
        chosen = self._chosen_plan_cost(si, ix.table)
        if chosen is None:
            return False
        return plan.cost > chosen

    def _probe(self, si: int, table: str, ix: IndexDef, base: IndexDef):
        """One :func:`cost_access` evaluation with exactly the inputs
        ``StatementCoster._structures_for`` would feed it, through the
        kernel's shape cache."""
        self.probe_evals += 1
        preds, needed = self._probe_info[si][table]
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

    # ------------------------------------------------------------------
    # lower bounds (the atomic-configuration floor)
    # ------------------------------------------------------------------
    def _universe_size(self, ix: IndexDef) -> "tuple[float, float] | None":
        return self._universe_sizes.get(index_identity(ix))

    def _table_plan_floor(
        self, si: int, table: str
    ) -> "tuple[float, float] | None":
        """(min plan cost, min rows_out) over every structure x base
        pairing the universe allows on ``table`` — None when any
        universe member's size is unknown (an unsound bound otherwise).

        The base structure only enters a plan through the non-covering
        lookup's decompression term, which is zero for an uncompressed
        base and nonnegative otherwise — so costing every structure once
        against an uncompressed base lower-bounds every real pairing
        without enumerating them."""
        structures = self._universe_by_table.get(table, [])
        bases = [
            ix for ix in structures
            if ix.kind in (IndexKind.HEAP, IndexKind.CLUSTERED)
        ]
        floor_base = next(
            (ix for ix in bases if not ix.method.is_compressed), None
        )
        if floor_base is None:
            return None
        base_size = self._universe_size(floor_base)
        if base_size is None:
            return None
        preds, needed = self._probe_info[si][table]
        stats = self.whatif.stats.table(table)
        constants = self.whatif.coster.constants
        best_cost = None
        best_rows = None
        for ix in structures:
            size = self._universe_size(ix)
            if size is None:
                return None
            plan = cost_access(
                ix, size[0], size[1], preds, needed, stats,
                constants, base_lookup=(floor_base, base_size[0]),
            )
            if plan is None:
                continue
            if best_cost is None or plan.cost < best_cost:
                best_cost = plan.cost
            if best_rows is None or plan.rows_out < best_rows:
                best_rows = plan.rows_out
        if best_cost is None:
            return None
        return best_cost, best_rows

    def _select_floor(self, si: int, stmt: SelectQuery) -> float | None:
        """Lower bound on a SELECT's total over every enumerable
        configuration: per-table minimum access plans, optimistic
        join/group terms, zero sort, best matching MV."""
        constants = self.whatif.coster.constants
        total = 0.0
        fact_rows = None
        dim_rows_terms = 0.0
        dim_sel_product = 1.0
        for table in stmt.tables:
            floor = self._table_plan_floor(si, table)
            if floor is None:
                return None
            total += floor[0]
            if table == stmt.root_table:
                fact_rows = floor[1]
            else:
                preds, _needed = self._probe_info[si][table]
                dim_sel_product *= conjunction_selectivity(
                    self.whatif.stats.table(table), preds
                )
                dim_rows_terms += floor[1] * constants.cpu_tuple
        if fact_rows is None:  # pragma: no cover - defensive
            fact_rows = 0.0
        if len(stmt.tables) > 1:
            total += fact_rows * len(stmt.joins) * constants.cpu_join_probe
            total += dim_rows_terms
        if stmt.group_by or stmt.aggregates:
            total += fact_rows * dim_sel_product * constants.cpu_group
        if stmt.order_by and not self._order_satisfiable(stmt):
            # No enumerable plan can satisfy the ordering, so every
            # configuration pays the sort.  join_rows >= the floor's
            # fact_rows * dim_sel_product and x·log2(x) over max(2, x)
            # is nondecreasing, so this term lower-bounds the real one.
            out_rows = max(2.0, fact_rows * dim_sel_product)
            total += out_rows * math.log2(out_rows) * constants.cpu_sort_factor
        mv_floor = self._mv_floor(stmt)
        if mv_floor is not None and mv_floor < total:
            total = mv_floor
        return total

    def _order_satisfiable(self, stmt: SelectQuery) -> bool:
        """Whether *any* enumerable plan could satisfy the statement's
        ORDER BY (mirrors ``_order_satisfied`` quantified over the
        registered universe).  Multi-table plans never satisfy it; a
        single-table plan needs a universe structure whose key prefix
        is exactly the ordering."""
        if len(stmt.tables) > 1:
            return False
        k = len(stmt.order_by)
        order = tuple(stmt.order_by)
        return any(
            ix.key_columns[:k] == order
            for ix in self._universe_by_table.get(stmt.tables[0], [])
        )

    def _mv_floor(self, stmt: SelectQuery) -> float | None:
        """Cheapest matching MV substitution available in the universe
        (exact per-MV arithmetic, mirroring ``_try_mv_plan``)."""
        constants = self.whatif.coster.constants
        best = None
        for ix in self._universe or ():
            if not ix.is_mv_index or not mv_matches_query(ix.mv, stmt):
                continue
            size = self._universe_size(ix)
            if size is None:
                return 0.0  # unknown MV size: only zero stays sound
            size_bytes, rows = size
            pages = max(1.0, size_bytes / PAGE_SIZE)
            cost = pages * constants.io_seq_page + rows * constants.cpu_tuple
            if ix.method.is_compressed:
                n_cols = max(
                    1, len(ix.mv.group_by) + len(ix.mv.aggregates)
                )
                cost += constants.decompress_cpu(ix.method, rows, n_cols)
            if best is None or cost < best:
                best = cost
        return best

    def _maintenance_floor(self, table: str, affected: float) -> float | None:
        """Lower bound on maintenance cost: the cheapest possible base
        structure alone (secondary/MV terms are nonnegative)."""
        constants = self.whatif.coster.constants
        bases = [
            ix for ix in self._universe_by_table.get(table, [])
            if ix.kind in (IndexKind.HEAP, IndexKind.CLUSTERED)
        ]
        if not bases:
            return None
        best = None
        for base in bases:
            size = self._universe_size(base)
            if size is None:
                return None
            size_bytes, rows = size
            rows_total = max(rows, 1.0)
            io = (
                affected * (size_bytes / rows_total) / PAGE_SIZE
                * constants.io_seq_page
            )
            cpu = affected * constants.cpu_insert_per_index
            cpu += constants.compress_cpu(base.method, affected)
            if best is None or io + cpu < best:
                best = io + cpu
        return best

    def _compute_floor(self, si: int) -> float | None:
        stmt = self._stmts[si]
        weight = self._weights[si]
        if isinstance(stmt, SelectQuery):
            floor = self._select_floor(si, stmt)
            return None if floor is None else weight * floor
        stats = self.whatif.stats.table(stmt.table)
        if isinstance(stmt, InsertQuery):
            find = 0.0
            affected = float(stmt.n_rows)
        elif isinstance(stmt, (UpdateQuery, DeleteQuery)):
            # The find part is a SELECT probe on the same table; its
            # floor needs per-table probe info this statement does not
            # carry, so stay conservative: zero find cost.
            find = 0.0
            affected = stats.n_rows * conjunction_selectivity(
                stats, stmt.predicates
            )
        else:  # pragma: no cover - unknown statement kinds
            return None
        maintain = self._maintenance_floor(stmt.table, affected)
        if maintain is None:
            return None
        return weight * (find + maintain)
