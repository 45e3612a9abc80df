"""MV samples: grouped samples of materialized views (Appendix B.3).

An MV sample is built by filtering + grouping a join synopsis.  Because
grouping a sample does *not* scale linearly to the full data, the number
of tuples in the real MV is estimated with the Adaptive Estimator from the
per-group COUNT(*) column, exactly as the paper's ``CreateMVSample``
algorithm does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.column import Column
from repro.catalog.schema import Database
from repro.catalog.table import Table
from repro.errors import SamplingError
from repro.physical.mv_def import MVDefinition, aggregate_column_name
from repro.stats.distinct import adaptive_estimator, frequency_statistics
from repro.workload.query import Aggregate


@dataclass
class MVSample:
    """A sample of an MV plus the cardinality estimate for the full MV.

    Attributes:
        mv: the view definition.
        table: the grouped (or projected) sample rows, including the
            implicit ``count_all`` column for aggregated views.
        sample_rows: tuples of the synopsis that satisfied the filter
            (the paper's ``r``).
        sample_groups: groups in the sample (the paper's ``d``).
        est_base_rows: estimated tuples feeding the view in the full
            database (the paper's ``n``).
        est_rows: estimated tuples *in* the full MV (AE for aggregated
            views; ``n`` for projection-only views).
        fraction: the sampling fraction of the underlying synopsis.
    """

    mv: MVDefinition
    table: Table
    sample_rows: int
    sample_groups: int
    est_base_rows: float
    est_rows: float
    fraction: float


def _agg_final(agg: Aggregate, state, count: int):
    if agg.func == "AVG":
        return state // count if count else None
    return state


def build_mv_sample(
    database: Database,
    mv: MVDefinition,
    synopsis: Table,
    synopsis_rows_total: int,
    fraction: float,
) -> MVSample:
    """Materialize the MV over a join synopsis and estimate its size.

    Args:
        database: the catalog (for output column types).
        mv: the view definition.
        synopsis: join synopsis covering ``mv``'s tables/columns.
        synopsis_rows_total: rows in the synopsis (before filtering).
        fraction: sampling fraction the synopsis was built with.
    """
    needed = mv.referenced_base_columns()
    missing = [c for c in needed if not synopsis.has_column(c)]
    if missing:
        raise SamplingError(
            f"synopsis for {mv.fact_table!r} lacks columns {missing}"
        )

    out_columns = [
        Column(name, dtype) for name, dtype in mv.storage_columns(database)
    ]
    out = Table(mv.name, out_columns)

    names = list(dict.fromkeys(list(needed) + list(mv.group_by)))
    rows = synopsis.iter_rows(names)
    predicates = mv.predicates

    if not mv.has_aggregation:
        # Projection-only view: each qualifying base row is one MV row.
        kept = 0
        group_cols = [c for c, _ in mv.storage_columns(database)]
        for raw in rows:
            row = dict(zip(names, raw))
            if all(p.evaluate(row) for p in predicates):
                kept += 1
                out.append_row([row[c] for c in group_cols])
        filter_factor = kept / synopsis_rows_total if synopsis_rows_total else 0.0
        fact_rows = database.table(mv.fact_table).num_rows
        est_base = fact_rows * filter_factor
        return MVSample(
            mv=mv,
            table=out,
            sample_rows=kept,
            sample_groups=kept,
            est_base_rows=est_base,
            est_rows=est_base,
            fraction=fraction,
        )

    groups: dict[tuple, list] = {}
    counts: dict[tuple, int] = {}
    kept = 0
    for raw in rows:
        row = dict(zip(names, raw))
        if not all(p.evaluate(row) for p in predicates):
            continue
        kept += 1
        key = tuple(row[c] for c in mv.group_by)
        state = groups.get(key)
        if state is None:
            state = [a.initial_state() for a in mv.aggregates]
            groups[key] = state
            counts[key] = 0
        counts[key] += 1
        for i, agg in enumerate(mv.aggregates):
            state[i] = agg.step(state[i], row)

    out_names = [c.name for c in out_columns]
    for key, state in groups.items():
        count = counts[key]
        row_map = dict(zip(mv.group_by, key))
        for agg, st in zip(mv.aggregates, state):
            row_map[aggregate_column_name(agg)] = _agg_final(agg, st, count)
        row_map.setdefault("count_all", count)
        out.append_row([row_map[name] for name in out_names])

    r = kept
    d = len(groups)
    filter_factor = r / synopsis_rows_total if synopsis_rows_total else 0.0
    fact_rows = database.table(mv.fact_table).num_rows
    n = fact_rows * filter_factor
    if d == 0:
        est = 0.0
    else:
        freq = frequency_statistics(list(counts.values()))
        est = adaptive_estimator(freq, d, r, max(int(round(n)), r))
    return MVSample(
        mv=mv,
        table=out,
        sample_rows=r,
        sample_groups=d,
        est_base_rows=n,
        est_rows=est,
        fraction=fraction,
    )
