"""Whole-statement costing under a hypothetical configuration.

SELECT statements: per-table access plans (star-style FK joins keep the
fact cardinality), join/group/sort CPU, with MV substitution when an MV
index structurally matches the query.  INSERT/UPDATE/DELETE statements:
per-structure maintenance costs including the compression CPU term
(Appendix A.1) — the reason DTAc avoids over-compressing INSERT-heavy
workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.catalog.schema import Database
from repro.errors import OptimizerError
from repro.optimizer.access_paths import AccessPlan, best_access_plan
from repro.optimizer.constants import CostConstants
from repro.optimizer.kernels import CostKernel
from repro.physical.configuration import Configuration
from repro.physical.index_def import IndexDef
from repro.physical.mv_def import MVDefinition
from repro.stats.column_stats import DatabaseStats
from repro.stats.selectivity import conjunction_selectivity
from repro.storage.index_build import IndexKind
from repro.storage.page import PAGE_SIZE
from repro.workload.query import (
    DeleteQuery,
    InsertQuery,
    SelectQuery,
    Statement,
    UpdateQuery,
)

#: (index -> (est_bytes, est_rows)) provider the advisor wires in.
SizeLookup = Callable[[IndexDef], tuple[float, float]]


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Estimated cost of a statement under a configuration."""

    total: float
    io: float
    cpu: float
    plans: tuple[AccessPlan, ...] = ()
    used_mv: bool = False


class SelectShape(NamedTuple):
    """What a SELECT's cost takes from the statement alone, whatever
    the configuration: the plan-search inputs, and the terms that
    combine the chosen plans into a total."""

    #: table -> (predicates, needed columns), in ``query.tables`` order.
    inputs: dict
    #: position of the fact (root) table among ``inputs``.
    fact_pos: int | None
    #: product of the dimension tables' predicate selectivities.
    dim_selectivity: float
    n_joins: int
    grouped: bool
    order_by: tuple[str, ...]


class StatementCoster:
    """Costs statements against configurations (the optimizer core)."""

    def __init__(
        self,
        database: Database,
        stats: DatabaseStats,
        sizes: SizeLookup,
        constants: CostConstants,
        kernel: CostKernel,
    ) -> None:
        self.database = database
        self.stats = stats
        self.sizes = sizes
        self.constants = constants
        self.kernel = kernel

    # ------------------------------------------------------------------
    def cost(self, statement: Statement, config: Configuration) -> CostBreakdown:
        if isinstance(statement, SelectQuery):
            return self._cost_select(statement, config)
        if isinstance(statement, (InsertQuery, UpdateQuery, DeleteQuery)):
            return self._cost_maintenance(statement, config)
        raise OptimizerError(f"cannot cost {type(statement).__name__}")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    @staticmethod
    def _table_structures(
        table: str, config: Configuration
    ) -> list[IndexDef]:
        """The non-MV structures of ``table`` in plan-search order
        (:meth:`Configuration.structures_on`: base first); a plain heap
        is synthesized in front if the configuration tracks no base."""
        structures = list(config.structures_on(table))
        if config.base_structure(table) is None:
            # Untracked table: scan happens over a plain heap.
            structures.insert(0, IndexDef(table, (), kind=IndexKind.HEAP))
        return structures

    def _structures_for(
        self, table: str, config: Configuration
    ) -> list[tuple[IndexDef, float, float]]:
        """(index, bytes, rows) for every structure on ``table``, base
        first (best_access_plan relies on finding it for lookups)."""
        return [
            (index, *self.sizes(index))
            for index in self._table_structures(table, config)
        ]

    def select_shape(self, query: SelectQuery) -> SelectShape:
        """What a SELECT's cost takes from the statement alone (see
        :class:`SelectShape`)."""
        inputs = {}
        fact_pos = None
        dim_selectivity = 1.0
        for pos, table in enumerate(query.tables):
            preds = query.predicates_of_table(self.database, table)
            inputs[table] = (
                preds, query.columns_of_table(self.database, table)
            )
            if table == query.root_table:
                fact_pos = pos
            else:
                dim_selectivity *= conjunction_selectivity(
                    self.stats.table(table), preds
                )
        return SelectShape(
            inputs, fact_pos, dim_selectivity, len(query.joins),
            bool(query.group_by or query.aggregates), tuple(query.order_by),
        )

    def select_total(
        self, shape: SelectShape, plans: Sequence[AccessPlan]
    ) -> tuple[float, float]:
        """(io, cpu) of a SELECT from its shape and its chosen plans,
        aligned with ``shape.inputs``: the plans' own costs, then join,
        group and sort CPU.  FK joins preserve fact cardinality;
        dimension predicates thin it."""
        constants = self.constants
        io = cpu = 0.0
        for plan in plans:
            io += plan.io_cost
            cpu += plan.cpu_cost
        fact_rows_out = (
            0.0 if shape.fact_pos is None else plans[shape.fact_pos].rows_out
        )
        join_rows = fact_rows_out * shape.dim_selectivity
        if len(plans) > 1:
            cpu += fact_rows_out * shape.n_joins * constants.cpu_join_probe
            for plan in plans[1:]:
                cpu += plan.rows_out * constants.cpu_tuple
        if shape.grouped:
            cpu += join_rows * constants.cpu_group
        # Only a single-table plan whose key leads with the ordering
        # skips the sort.
        order_by = shape.order_by
        if order_by and (
            len(plans) > 1
            or plans[0].index.key_columns[:len(order_by)] != order_by
        ):
            out_rows = max(2.0, join_rows)
            cpu += out_rows * math.log2(out_rows) * constants.cpu_sort_factor
        return io, cpu

    def _cost_select(self, query: SelectQuery,
                     config: Configuration) -> CostBreakdown:
        mv_plan = self._try_mv_plan(query, config)
        shape = self.select_shape(query)
        plans = tuple(
            best_access_plan(
                self.stats.table(table), table,
                self._structures_for(table, config), preds, needed,
                self.constants, self.kernel, shape_key=(query, table),
            )
            for table, (preds, needed) in shape.inputs.items()
        )
        io, cpu = self.select_total(shape, plans)
        base = CostBreakdown(total=io + cpu, io=io, cpu=cpu, plans=plans)
        if mv_plan is not None and mv_plan.total < base.total:
            return mv_plan
        return base

    # ------------------------------------------------------------------
    # MV substitution
    # ------------------------------------------------------------------
    def _try_mv_plan(self, query: SelectQuery,
                     config: Configuration) -> CostBreakdown | None:
        best: CostBreakdown | None = None
        # Stable member order: the strict '<' tie-break below must not
        # depend on set iteration (PYTHONHASHSEED) for reproducibility.
        for index in config.mv_indexes():
            if not mv_matches_query(index.mv, query):
                continue
            size_bytes, rows = self.sizes(index)
            pages = max(1.0, size_bytes / PAGE_SIZE)
            io = pages * self.constants.io_seq_page
            cpu = rows * self.constants.cpu_tuple
            if index.method.is_compressed:
                n_cols = max(1, len(index.mv.group_by)
                             + len(index.mv.aggregates))
                cpu += self.constants.decompress_cpu(
                    index.method, rows, n_cols
                )
            total = io + cpu
            if best is None or total < best.total:
                best = CostBreakdown(
                    total=total, io=io, cpu=cpu, used_mv=True
                )
        return best

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def maintenance_structures(
        self, table: str, config: Configuration
    ) -> list[IndexDef]:
        """Every structure of ``config`` that stores rows of ``table``
        (base first, then secondaries, then MVs sourcing the table)."""
        structures = self._table_structures(table, config)
        structures.extend(
            index for index in config.mv_indexes()
            if table in index.mv.tables
        )
        return structures

    def structure_maintenance(
        self, table: str, n_rows: float, index: IndexDef
    ) -> tuple[float, float]:
        """(io, cpu) contribution of one structure to reflecting
        ``n_rows`` new/changed rows of ``table`` — a pure function of
        the structure, the row count and the table's stats/sizes, which
        is what lets the delta layer memoize it per structure."""
        constants = self.constants
        affected = n_rows
        if index.is_partial:
            affected = n_rows * conjunction_selectivity(
                self.stats.table(table), (index.filter,)
            )
        if index.is_mv_index:
            # Incremental group maintenance: each source row touches
            # one group (random page) amortized by locality.
            cpu = affected * constants.cpu_insert_per_index
            io = affected / 64.0 * constants.io_random_page
            return io, cpu
        size_bytes, rows = self.sizes(index)
        rows_total = max(rows, 1.0)
        bytes_per_row = size_bytes / rows_total
        io = affected * bytes_per_row / PAGE_SIZE * constants.io_seq_page
        cpu = affected * constants.cpu_insert_per_index
        if index.kind is IndexKind.SECONDARY:
            # Secondary entries land in key order, not load order.
            io += affected / 128.0 * constants.io_random_page
        cpu += constants.compress_cpu(index.method, affected)
        return io, cpu

    def _maintenance_cost(
        self, table: str, n_rows: float, config: Configuration
    ) -> CostBreakdown:
        """Cost to reflect ``n_rows`` new/changed rows of ``table`` in
        every structure of the configuration that stores them.

        Accumulated with :func:`math.fsum` over the per-structure
        contributions: the exactly-rounded sum is independent of
        structure order, so the delta layer can rebuild the identical
        total from memoized contributions in any order."""
        contributions = [
            self.structure_maintenance(table, n_rows, index)
            for index in self.maintenance_structures(table, config)
        ]
        io = math.fsum(c[0] for c in contributions)
        cpu = math.fsum(c[1] for c in contributions)
        return CostBreakdown(total=io + cpu, io=io, cpu=cpu)

    def affected_rows(self, stmt: Statement) -> float:
        """Rows a maintenance statement writes: a bulk INSERT's count,
        else the table's rows its predicates select."""
        if isinstance(stmt, InsertQuery):
            return float(stmt.n_rows)
        stats = self.stats.table(stmt.table)
        return stats.n_rows * conjunction_selectivity(stats, stmt.predicates)

    def _cost_maintenance(self, stmt: Statement,
                          config: Configuration) -> CostBreakdown:
        """Find the rows (UPDATE/DELETE, see :func:`find_probe`), then
        maintain every structure that stores them."""
        probe = find_probe(stmt)
        find = None if probe is None else self._cost_select(probe, config)
        maintain = self._maintenance_cost(
            stmt.table, self.affected_rows(stmt), config
        )
        if find is None:
            return maintain
        return CostBreakdown(
            total=find.total + maintain.total,
            io=find.io + maintain.io,
            cpu=find.cpu + maintain.cpu,
        )


def find_probe(stmt: Statement) -> SelectQuery | None:
    """The SELECT an UPDATE or DELETE runs to find its rows (an UPDATE
    reads the columns it sets); None for a bulk INSERT, which has no
    find phase."""
    if isinstance(stmt, UpdateQuery):
        return SelectQuery(
            tables=(stmt.table,),
            select_columns=tuple(stmt.set_columns),
            predicates=stmt.predicates,
        )
    if isinstance(stmt, DeleteQuery):
        return SelectQuery(tables=(stmt.table,), predicates=stmt.predicates)
    return None


def mv_matches_query(mv: MVDefinition, query: SelectQuery) -> bool:
    """Structural MV matching: same table set, same grouping, the query's
    aggregates present in the MV, the MV's filter implied by (contained
    in) the query's predicates, and any residual query predicate
    referencing only MV storage (group-by) columns."""
    if set(mv.tables) != set(query.tables):
        return False
    if tuple(mv.group_by) != tuple(query.group_by):
        return False
    for agg in query.aggregates:
        if agg not in mv.aggregates:
            return False
    mv_preds = set(mv.predicates)
    query_preds = set(query.predicates)
    if not mv_preds <= query_preds:
        return False
    residual = query_preds - mv_preds
    allowed = set(mv.group_by)
    for p in residual:
        if not set(p.columns()) <= allowed:
            return False
    return True
