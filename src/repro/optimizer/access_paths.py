"""Single-table access path selection and costing.

Given a table's predicates, the needed columns and the available
structures (base heap/clustered + secondary indexes), pick the cheapest
access path.  Compressed structures read fewer pages but pay the
decompression CPU term; the optimizer only charges decompression for the
columns the query actually uses (Appendix A.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OptimizerError
from repro.optimizer.constants import CostConstants
from repro.physical.index_def import IndexDef
from repro.stats.column_stats import TableStats
from repro.stats.selectivity import predicate_selectivity
from repro.storage.index_build import IndexKind
from repro.storage.page import PAGE_SIZE
from repro.workload.expr import Predicate


@dataclass(frozen=True, slots=True)
class AccessPlan:
    """A costed way to produce a table's qualifying rows.

    Attributes:
        index: structure used (None = no structure registered: cold heap).
        cost: total access cost.
        io_cost / cpu_cost: breakdown.
        rows_out: estimated qualifying rows produced.
        used_seek: whether a key seek restricted the scan.
    """

    index: IndexDef | None
    cost: float
    io_cost: float
    cpu_cost: float
    rows_out: float
    used_seek: bool


def _split_predicates(predicates: tuple[Predicate, ...]):
    eq_cols, range_cols = set(), set()
    for p in predicates:
        for c in p.columns():
            if p.is_equality:
                eq_cols.add(c)
            elif p.is_range:
                range_cols.add(c)
    return eq_cols, range_cols


def _prefix_selectivity(
    index: IndexDef,
    predicates: tuple[Predicate, ...],
    stats: TableStats,
) -> tuple[float, int]:
    """Selectivity of the sargable key-prefix predicates and the number
    of predicates consumed by the seek."""
    eq_cols, range_cols = _split_predicates(predicates)
    usable = index.key_prefix_length(eq_cols, range_cols)
    if usable == 0:
        return 1.0, 0
    prefix_cols = set(index.key_columns[:usable])
    sel = 1.0
    consumed = 0
    for p in predicates:
        cols = set(p.columns())
        if cols <= prefix_cols:
            sel *= predicate_selectivity(stats, p)
            consumed += 1
    return sel, consumed


def _filter_subsumed(
    index: IndexDef, predicates: tuple[Predicate, ...]
) -> tuple[bool, tuple[Predicate, ...]]:
    """Partial-index usability: the index filter must be implied by the
    query's predicates (checked structurally: the filter predicate must
    literally appear in the conjunction).  Returns (usable, remaining)."""
    if index.filter is None:
        return True, predicates
    if index.filter in predicates:
        remaining = tuple(p for p in predicates if p != index.filter)
        return True, remaining
    return False, predicates


@dataclass(frozen=True, slots=True)
class AccessShape:
    """The discrete part of costing one structure against one predicate
    context — everything :func:`cost_access` decides before the float
    arithmetic starts.  Shapes depend only on (index identity,
    predicates, needed columns, statistics), so callers that sweep the
    same predicate context over many candidate sets cache them (see
    :mod:`repro.optimizer.kernels`) and replay only the flat numeric
    part, :func:`plan_from_shape`.

    Attributes:
        sel_prefix: selectivity of the sargable key-prefix predicates.
        residual: predicates applied while scanning (not seek-consumed).
        sel_all: min(prefix selectivity, full conjunction selectivity).
        covering: leaf rows carry every needed column.
        can_seek: a key seek restricts the scan.
        compressed: the structure pays per-tuple decompression.
        n_used_cols: decompressed columns per tuple (0 if uncompressed).
        beta: the method's per-tuple per-column decompression constant.
        n_needed: how many columns the query needs from the table (the
            non-covering base lookup's decompression width) — carried
            in the shape so one kernel batch can mix lanes from
            different statements.
    """

    sel_prefix: float
    residual: int
    sel_all: float
    covering: bool
    can_seek: bool
    compressed: bool
    n_used_cols: int
    beta: float
    n_needed: int


def access_shape(
    index: IndexDef,
    predicates: tuple[Predicate, ...],
    needed_columns: tuple[str, ...],
    stats: TableStats,
    constants: CostConstants,
) -> AccessShape | None:
    """Extract one structure's :class:`AccessShape`, or None if the
    structure is unusable for this predicate context (a partial index
    whose filter the conjunction does not imply)."""
    usable, predicates = _filter_subsumed(index, predicates)
    if not usable:
        return None
    method = index.method
    covering = index.covers(needed_columns)
    sel_prefix, consumed = _prefix_selectivity(index, predicates, stats)
    residual = max(0, len(predicates) - consumed)
    total_sel = 1.0
    for p in predicates:
        total_sel *= predicate_selectivity(stats, p)
    sel_all = min(sel_prefix, total_sel)
    can_seek = (
        index.kind in (IndexKind.CLUSTERED, IndexKind.SECONDARY)
        and consumed > 0
    )
    if method.is_compressed:
        used_cols = [
            c for c in needed_columns if c in index.column_sequence
        ] or list(index.key_columns)
        n_used_cols = len(used_cols)
        beta = constants.beta[method]
    else:
        n_used_cols = 0
        beta = 0.0
    return AccessShape(
        sel_prefix=sel_prefix,
        residual=residual,
        sel_all=sel_all,
        covering=covering,
        can_seek=can_seek,
        compressed=method.is_compressed,
        n_used_cols=n_used_cols,
        beta=beta,
        n_needed=len(needed_columns),
    )


def plan_from_shape(
    index: IndexDef,
    index_bytes: float,
    rows_in_structure: float,
    shape: AccessShape,
    constants: CostConstants,
    base_lookup: IndexDef | None,
) -> AccessPlan | None:
    """The flat numeric part of :func:`cost_access`: evaluate one
    already-shaped structure.

    ``base_lookup`` is the table's base structure, which a non-covering
    structure's row lookups go through (None: no lookup, so a
    non-covering structure has no plan).  The base contributes only
    its compression method — a lookup costs one random page per
    qualifying row whatever the base's size — so two bases with the
    same method give the same plan."""
    pages = max(1.0, index_bytes / PAGE_SIZE)
    if shape.can_seek:
        pages_read = max(1.0, pages * shape.sel_prefix)
        rows_read = rows_in_structure * shape.sel_prefix
        io = pages_read * constants.io_seq_page + 2 * constants.io_random_page
    else:
        rows_read = rows_in_structure
        io = pages * constants.io_seq_page

    # Residual predicates are applied while scanning; every scanned tuple
    # pays base CPU.
    cpu = rows_read * constants.cpu_tuple
    cpu += rows_read * shape.residual * constants.cpu_predicate
    if shape.compressed:
        cpu += shape.beta * rows_read * shape.n_used_cols

    rows_out = rows_in_structure * shape.sel_all

    if not shape.covering:
        if base_lookup is None:
            return None
        # RID/key lookups into the base structure: one random page per
        # qualifying row (they are effectively random).
        lookups = rows_out
        lookup_io = lookups * constants.io_random_page
        lookup_cpu = lookups * constants.cpu_tuple
        if base_lookup.method.is_compressed:
            lookup_cpu += constants.decompress_cpu(
                base_lookup.method, lookups, shape.n_needed
            )
        io += lookup_io
        cpu += lookup_cpu

    return AccessPlan(
        index=index,
        cost=io + cpu,
        io_cost=io,
        cpu_cost=cpu,
        rows_out=rows_out,
        used_seek=shape.can_seek,
    )


def cost_access(
    index: IndexDef,
    index_bytes: float,
    rows_in_structure: float,
    predicates: tuple[Predicate, ...],
    needed_columns: tuple[str, ...],
    stats: TableStats,
    constants: CostConstants,
    base_lookup: IndexDef | None = None,
) -> AccessPlan | None:
    """Cost one candidate structure, or None if unusable.

    Args:
        index: the structure.
        index_bytes: its (estimated) size in bytes.
        rows_in_structure: entries it stores.
        predicates: the query's predicates on this table.
        needed_columns: columns the query needs from this table.
        stats: the table's statistics.
        constants: cost constants.
        base_lookup: the base structure, for non-covering seeks.
    """
    shape = access_shape(index, predicates, needed_columns, stats, constants)
    if shape is None:
        return None
    return plan_from_shape(
        index, index_bytes, rows_in_structure, shape, constants,
        base_lookup,
    )


def best_access_plan(
    stats: TableStats,
    table: str,
    structures: list[tuple[IndexDef, float, float]],
    predicates: tuple[Predicate, ...],
    needed_columns: tuple[str, ...],
    constants: CostConstants,
    kernel,
    shape_key=None,
) -> AccessPlan:
    """Pick the cheapest plan among ``structures``.

    Args:
        structures: (index, bytes, rows) triples available on the table;
            must contain at least the base structure.
        kernel: the run's :class:`~repro.optimizer.kernels.CostKernel`
            (shape memo + lane evaluator).
        shape_key: hashable ``(kernel key, table)`` key identifying
            the fixed (predicates, needed columns) context, enabling
            the kernel's per-run shape cache.
    """
    base = None
    for index, _bytes, _rows in structures:
        if index.kind in (IndexKind.HEAP, IndexKind.CLUSTERED):
            base = index
            break
    lanes = []
    for index, size_bytes, rows in structures:
        shape = kernel.shape_for(
            shape_key, index, predicates, needed_columns, stats,
            constants,
        )
        if shape is not None:
            lanes.append((index, size_bytes, rows, shape))
    plans = [
        plan
        for plan in kernel.batch_access_plans(lanes, constants, base)
        if plan is not None
    ]
    if not plans:
        raise OptimizerError(
            f"no usable access path for table {table!r} "
            f"(structures={len(structures)})"
        )
    return min(plans, key=lambda p: p.cost)
