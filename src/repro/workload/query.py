"""Statement IR: SELECT / INSERT / UPDATE / DELETE plus weighted workloads.

Column names are unique database-wide in all bundled datasets (TPC-H style
``l_``/``o_`` prefixes), so predicates and projections reference bare
column names; a statement is bound to tables via the database catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.catalog.schema import Database
from repro.checks import check_budget
from repro.errors import WorkloadError
from repro.workload.expr import Predicate

AGG_FUNCS = ("SUM", "COUNT", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class Aggregate:
    """An aggregate expression, e.g. SUM(price * discount).

    ``columns`` are the referenced columns (empty for COUNT(*)).
    """

    func: str
    columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise WorkloadError(f"unknown aggregate {self.func!r}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = " * ".join(self.columns) if self.columns else "*"
        return f"{self.func}({inner})"

    # The fold over input rows, shared by the executor and MV samples;
    # each finishes AVG its own way (``state`` is the running sum).
    def initial_state(self):
        return 0 if self.func in ("SUM", "COUNT", "AVG") else None

    def row_value(self, row: dict):
        """The product of the referenced columns (1 for ``COUNT(*)``),
        or ``None`` when any of them is NULL."""
        value = 1
        for col in self.columns:
            v = row[col]
            if v is None:
                return None
            value *= v
        return value

    def step(self, state, row: dict):
        v = self.row_value(row)
        if self.func == "COUNT":
            return state + (1 if v is not None else 0)
        if v is None:
            return state
        if self.func in ("SUM", "AVG"):
            return state + v
        if self.func == "MIN":
            return v if state is None or v < state else state
        return v if state is None or v > state else state


@dataclass(frozen=True)
class Join:
    """An equi-join ``left_column = right_column`` (FK joins in practice)."""

    left_column: str
    right_column: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.left_column} = {self.right_column}"


@dataclass(frozen=True)
class SelectQuery:
    """A (possibly multi-table, possibly aggregated) SELECT statement."""

    tables: tuple[str, ...]
    select_columns: tuple[str, ...] = ()
    aggregates: tuple[Aggregate, ...] = ()
    joins: tuple[Join, ...] = ()
    predicates: tuple[Predicate, ...] = ()
    group_by: tuple[str, ...] = ()
    order_by: tuple[str, ...] = ()

    @property
    def is_select(self) -> bool:
        return True

    @property
    def root_table(self) -> str:
        """The driving (fact) table: listed first in FROM."""
        return self.tables[0]

    # ------------------------------------------------------------------
    def referenced_columns(self) -> tuple[str, ...]:
        """Every column the query touches, de-duplicated, in a stable
        order: predicates, joins, group by, order by, projections,
        aggregates."""
        out: list[str] = []
        for p in self.predicates:
            out.extend(p.columns())
        for j in self.joins:
            out.extend((j.left_column, j.right_column))
        out.extend(self.group_by)
        out.extend(self.order_by)
        out.extend(self.select_columns)
        for agg in self.aggregates:
            out.extend(agg.columns)
        return tuple(dict.fromkeys(out))

    def columns_of_table(self, database: Database, table: str) -> tuple[str, ...]:
        """The referenced columns that belong to ``table``."""
        tbl = database.table(table)
        return tuple(
            c for c in self.referenced_columns() if tbl.has_column(c)
        )

    def predicates_of_table(self, database: Database, table: str) -> tuple[Predicate, ...]:
        """The simple predicates over ``table``'s columns."""
        tbl = database.table(table)
        out: list[Predicate] = []
        for p in self.predicates:
            if all(tbl.has_column(c) for c in p.columns()):
                out.append(p)
        return tuple(out)

    def validate(self, database: Database) -> None:
        """Check tables and column references against the catalog."""
        tables = [database.table(t) for t in self.tables]
        known = {c for t in tables for c in t.column_names}
        missing = [c for c in self.referenced_columns() if c not in known]
        if missing:
            raise WorkloadError(
                f"query references unknown columns {missing}"
            )


@dataclass(frozen=True)
class InsertQuery:
    """A bulk load of ``n_rows`` into ``table`` (the paper's update side)."""

    table: str
    n_rows: int

    @property
    def is_select(self) -> bool:
        return False

    def validate(self, database: Database) -> None:
        """Check the table against the catalog and the row count."""
        _check_columns(database, self.table, ())
        if self.n_rows < 0:
            raise WorkloadError(
                f"INSERT INTO {self.table} needs a non-negative row "
                f"count, got {self.n_rows}"
            )


@dataclass(frozen=True)
class UpdateQuery:
    """UPDATE ``table`` SET cols WHERE predicate (modelled, not executed)."""

    table: str
    set_columns: tuple[str, ...]
    predicates: tuple[Predicate, ...] = ()

    @property
    def is_select(self) -> bool:
        return False

    def validate(self, database: Database) -> None:
        """Check the table, SET and predicate columns against the
        catalog."""
        _check_columns(database, self.table, (
            *self.set_columns,
            *(c for p in self.predicates for c in p.columns()),
        ))


@dataclass(frozen=True)
class DeleteQuery:
    """DELETE FROM ``table`` WHERE predicate."""

    table: str
    predicates: tuple[Predicate, ...] = ()

    @property
    def is_select(self) -> bool:
        return False

    def validate(self, database: Database) -> None:
        """Check the table and predicate columns against the catalog."""
        _check_columns(
            database, self.table,
            tuple(c for p in self.predicates for c in p.columns()),
        )


def _check_columns(database: Database, table: str,
                   columns: tuple[str, ...]) -> None:
    """An update statement names one table; every column it references
    must be one of that table's."""
    if not database.has_table(table):
        raise WorkloadError(f"statement references unknown table {table!r}")
    tbl = database.table(table)
    missing = [c for c in dict.fromkeys(columns) if not tbl.has_column(c)]
    if missing:
        raise WorkloadError(
            f"statement references columns {missing} not in table {table!r}"
        )


Statement = SelectQuery | InsertQuery | UpdateQuery | DeleteQuery


@dataclass(frozen=True)
class WorkloadStatement:
    """One workload entry: a statement with an execution weight (a
    finite non-negative number, kept as given)."""

    statement: Statement
    weight: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        check_budget("weight", self.weight)


class Workload:
    """A weighted list of statements (queries + updates)."""

    def __init__(self, statements: Iterable[WorkloadStatement] = ()) -> None:
        self.statements: list[WorkloadStatement] = list(statements)

    def add(self, statement: Statement, weight: float = 1.0,
            name: str = "") -> None:
        self.statements.append(WorkloadStatement(statement, weight, name))

    @property
    def queries(self) -> list[WorkloadStatement]:
        return [s for s in self.statements if s.statement.is_select]

    @property
    def updates(self) -> list[WorkloadStatement]:
        return [s for s in self.statements if not s.statement.is_select]

    def reweighted(self, select_weight: float, update_weight: float) -> "Workload":
        """A copy with all SELECTs at ``select_weight`` and all updates at
        ``update_weight`` — how the paper builds SELECT-intensive vs
        INSERT-intensive variants of the same workload."""
        out = Workload()
        for ws in self.statements:
            w = select_weight if ws.statement.is_select else update_weight
            out.add(ws.statement, w, ws.name)
        return out

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self):
        return iter(self.statements)
