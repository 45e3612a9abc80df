"""A small execution engine: runs SELECT statements against the real
in-memory data.

The advisor itself only needs optimizer *estimates* (as in the paper),
but the executor lets examples and tests validate semantics end-to-end:
MV contents equal re-running the defining query, selectivity estimates
can be compared with true match counts, and recommended plans can be
sanity-checked against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.schema import Database
from repro.errors import ExecutionError
from repro.workload.query import Aggregate, SelectQuery


@dataclass
class ResultSet:
    """Rows + column names of an executed query."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, r)) for r in self.rows]


def _agg_name(agg: Aggregate) -> str:
    inner = " * ".join(agg.columns) if agg.columns else "*"
    return f"{agg.func.lower()}({inner})"


def _agg_final(agg: Aggregate, state, count: int):
    if agg.func == "AVG":
        return state / count if count else None
    return state


class Executor:
    """Executes SELECT queries with hash joins + hash aggregation."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # ------------------------------------------------------------------
    def _join_rows(self, query: SelectQuery) -> tuple[list[dict], int]:
        """Materialize the joined, filtered row stream as dicts."""
        db = self.database
        fact = db.table(query.root_table)
        names = list(fact.column_names)
        rows = [dict(zip(names, r)) for r in fact.iter_rows()]

        joined = {query.root_table}
        pending = list(query.joins)
        guard = 0
        while pending:
            guard += 1
            if guard > 10 * (len(query.joins) + 1):
                raise ExecutionError("cannot order join conditions")
            join = pending.pop(0)
            side = None
            for table_name in query.tables:
                if table_name in joined:
                    continue
                table = db.table(table_name)
                if table.has_column(join.left_column) or table.has_column(
                    join.right_column
                ):
                    side = table
                    break
            if side is None:
                # Both sides already joined (redundant condition): filter.
                rows = [
                    r
                    for r in rows
                    if r[join.left_column] == r[join.right_column]
                ]
                continue
            if side.has_column(join.left_column):
                dim_col, probe_col = join.left_column, join.right_column
            else:
                dim_col, probe_col = join.right_column, join.left_column
            if not rows or probe_col not in rows[0]:
                pending.append(join)
                continue
            dim_names = side.column_names
            index: dict = {}
            pos = dim_names.index(dim_col)
            for drow in side.iter_rows():
                index.setdefault(drow[pos], []).append(drow)
            out = []
            for r in rows:
                for match in index.get(r[probe_col], ()):
                    merged = dict(r)
                    merged.update(zip(dim_names, match))
                    out.append(merged)
            rows = out
            joined.add(side.name)

        if query.predicates:
            rows = [
                r for r in rows
                if all(p.evaluate(r) for p in query.predicates)
            ]
        return rows, len(rows)

    # ------------------------------------------------------------------
    def execute(self, query: SelectQuery) -> ResultSet:
        """Run the query and return its result rows."""
        rows, _n = self._join_rows(query)

        out_cols = tuple(query.select_columns) + tuple(
            _agg_name(a) for a in query.aggregates
        )

        if query.group_by or query.aggregates:
            group_cols = query.group_by or ()
            groups: dict[tuple, list] = {}
            counts: dict[tuple, int] = {}
            for r in rows:
                key = tuple(r[c] for c in group_cols)
                state = groups.get(key)
                if state is None:
                    state = [a.initial_state() for a in query.aggregates]
                    groups[key] = state
                    counts[key] = 0
                counts[key] += 1
                for i, agg in enumerate(query.aggregates):
                    state[i] = agg.step(state[i], r)
            result_rows = []
            extra_cols = [
                c for c in query.select_columns if c not in group_cols
            ]
            if extra_cols:
                raise ExecutionError(
                    f"non-grouped projection columns {extra_cols}"
                )
            for key, state in groups.items():
                projected = list(key)
                projected += [
                    _agg_final(a, s, counts[key])
                    for a, s in zip(query.aggregates, state)
                ]
                result_rows.append(tuple(projected))
            out_cols = tuple(group_cols) + tuple(
                _agg_name(a) for a in query.aggregates
            )
        else:
            cols = query.select_columns or (
                self.database.table(query.root_table).column_names
            )
            result_rows = [tuple(r[c] for c in cols) for r in rows]
            out_cols = tuple(cols)

        if query.order_by:
            positions = []
            for c in query.order_by:
                if c in out_cols:
                    positions.append(out_cols.index(c))
            result_rows.sort(
                key=lambda r: tuple(
                    ((r[p] is None), r[p]) for p in positions
                )
            )
        return ResultSet(columns=out_cols, rows=result_rows)

    # ------------------------------------------------------------------
    def count_matching(self, query: SelectQuery) -> int:
        """True qualifying-row count (for selectivity validation)."""
        _rows, n = self._join_rows(query)
        return n
