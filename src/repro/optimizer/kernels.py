"""The access-shape memo and the lane evaluator.

The advisor's hot path evaluates the same access-path arithmetic over
whole candidate sets: every sweep re-costs every per-table structure
against a fixed predicate context.  The discrete part of that work
(predicate subsumption, prefix selectivity, covering checks) is hoisted
into :class:`~repro.optimizer.access_paths.AccessShape` and memoized
here per (predicate context, structure); what remains per structure is
a short float expression, evaluated by one scalar loop over
:func:`~repro.optimizer.access_paths.plan_from_shape`.
"""

from __future__ import annotations

from repro.optimizer.access_paths import access_shape, plan_from_shape
from repro.parallel.signature import index_identity

#: sentinel distinguishing "shape not yet computed" from "unusable".
_UNSHAPED = object()

#: Entries one kernel's shape memo holds.  An advisor run stays far
#: below it; each distinct ad-hoc SQL a served context is asked adds
#: entries under a new key, so past this the memo starts over.
_SHAPE_MEMO_ENTRIES = 1 << 16


def resolve_backend(name: str = "auto") -> "CostKernel":
    """A fresh :class:`CostKernel`; ``name`` is ignored.  Kept because
    ``benchmarks/ledger/worker.py`` calls ``resolve_backend("auto")``."""
    return CostKernel()


class CostKernel:
    """Shape memo plus batch evaluator for shaped access-path lanes.

    A *lane* is ``(index, index_bytes, rows_in_structure, shape)`` —
    one structure with its sizes and its precomputed
    :class:`~repro.optimizer.access_paths.AccessShape`.  The kernel
    returns one :class:`~repro.optimizer.access_paths.AccessPlan` (or
    None for a non-covering lane without a base lookup) per lane, in
    lane order.

    Instrumentation counters (``lanes_total``, ``batches_scalar``) feed
    the bench metadata.
    """

    def __init__(self) -> None:
        self.lanes_total = 0
        self.batches_scalar = 0
        #: (shape_key, index identity) -> AccessShape | None.  Shapes
        #: are pure functions of (structure, predicate context) and a
        #: run's stats/constants never change, so one entry serves
        #: every sweep of the run.  Bounded by ``_SHAPE_MEMO_ENTRIES``.
        self._shapes: dict = {}

    def stats(self, since: "dict | None" = None) -> dict:
        """Lane/batch counters — those made after ``since`` (an earlier
        :meth:`stats`) when given — and the shape memo's size now."""
        since = since or {}
        return {
            "lanes_total": self.lanes_total - since.get("lanes_total", 0),
            "batches_scalar":
                self.batches_scalar - since.get("batches_scalar", 0),
            "shape_entries": len(self._shapes),
        }

    def shape_for(
        self, shape_key, index, predicates, needed_columns, stats,
        constants,
    ):
        """Memoized :func:`~repro.optimizer.access_paths.access_shape`.

        ``shape_key`` names the fixed predicate context: ``(kernel key,
        table)`` of :meth:`~repro.optimizer.statement_cost.
        StatementCoster.statement_shape`; pass None to bypass the
        cache."""
        if shape_key is None:
            return access_shape(
                index, predicates, needed_columns, stats, constants
            )
        key = (shape_key, index_identity(index))
        shape = self._shapes.get(key, _UNSHAPED)
        if shape is _UNSHAPED:
            shape = access_shape(
                index, predicates, needed_columns, stats, constants
            )
            if len(self._shapes) >= _SHAPE_MEMO_ENTRIES:
                self._shapes.clear()
            self._shapes[key] = shape
        return shape

    def batch_access_plans(self, lanes: list, constants, base_lookup) -> list:
        """Evaluate every lane against the table's base structure
        ``base_lookup`` (see
        :func:`~repro.optimizer.access_paths.plan_from_shape`); aligned
        list of AccessPlan | None."""
        self.lanes_total += len(lanes)
        self.batches_scalar += 1
        return [
            plan_from_shape(
                index, index_bytes, rows, shape, constants, base_lookup,
            )
            for index, index_bytes, rows, shape in lanes
        ]
