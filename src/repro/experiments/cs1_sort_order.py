"""CS1 — RLE's sort-order sensitivity in a column store (Section 8).

The paper's future-work section motivates column-store design with the
observation that "RLE can make column data several orders of magnitude
smaller ... but it is quite sensitive to the sort orders".  This
experiment quantifies that on the TPC-H lineitem columns: the same
projection, RLE encoded, under different sort orders.

Expected shape: the sorted-by-low-cardinality order compresses the
leading column by orders of magnitude; the id-ordered variant gains
almost nothing; the best-encoding column store always sits at or below
the pure-RLE point.
"""

from __future__ import annotations

from repro.columnstore import ProjectionDef, ProjectionSizer
from repro.compression.base import CompressionMethod
from repro.experiments.common import (
    EXPERIMENT_SCALE,
    ExperimentResult,
    get_tpch,
)

#: Projection body: a typical aggregation column set on lineitem.
PROJ_COLUMNS = (
    "l_returnflag",
    "l_shipmode",
    "l_shipdate",
    "l_quantity",
    "l_extendedprice",
)

#: Sort orders from very low cardinality to unique.
SORT_ORDERS = (
    ("l_returnflag",),
    ("l_shipmode",),
    ("l_shipdate",),
    ("l_extendedprice",),
)


def run(scale: float = EXPERIMENT_SCALE) -> ExperimentResult:
    database = get_tpch(scale)
    lineitem = database.table("lineitem")
    sizer = ProjectionSizer(lineitem)
    fixed_width = lineitem.num_rows * sum(
        lineitem.column(c).width for c in PROJ_COLUMNS
    )

    result = ExperimentResult(
        name="CS1: RLE sort-order sensitivity on lineitem "
             "(column-store projections)",
        headers=("sort order", "rle-bytes", "best-bytes",
                 "rle-lead-col", "x-smaller-lead"),
    )
    for order in SORT_ORDERS:
        columns = order + tuple(
            c for c in PROJ_COLUMNS if c not in order
        )
        projection = ProjectionDef("lineitem", columns, order)
        rle = sizer.measure(
            projection, encodings=(CompressionMethod.RLE,)
        )
        best = sizer.measure(projection)
        lead = order[0]
        lead_rle = sum(rle.column_used_bytes[c] for c in order)
        lead_fixed = lineitem.num_rows * lineitem.column(lead).width
        result.rows.append((
            "+".join(order),
            sum(rle.column_used_bytes.values()),
            sum(best.column_used_bytes.values()),
            lead_rle,
            lead_fixed / max(1, lead_rle),
        ))
    result.notes.append(
        f"fixed-width projection bytes: {fixed_width}"
    )
    result.notes.append(
        "paper shape (Section 8): RLE collapses low-cardinality sort "
        "leaders by orders of magnitude and gains little on unique orders"
    )
    return result
