"""Shared infrastructure for the paper-reproduction experiments.

Each experiment module exposes ``run(...) -> ExperimentResult`` plus a
``main()`` so it can be executed as ``python -m repro.experiments.<mod>``;
the benchmark harness under ``benchmarks/`` wraps the same entry points.
Datasets are cached per (kind, scale, z) because several experiments share
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.catalog.schema import Database
from repro.compression.base import CompressionMethod
from repro.datasets import (
    sales_database,
    tpcds_lite_database,
    tpch_database,
)
from repro.physical.index_def import IndexDef
from repro.sizeest.calibration import (  # re-exported for the experiments
    error_stats as error_stats,
    fit_through_origin as fit_through_origin,
)
from repro.storage.index_build import IndexKind

#: Default dataset scale for experiments: small enough that full-data
#: "ground truth" index builds stay fast, large enough for stable stats.
EXPERIMENT_SCALE = 0.2

_DATASETS: dict[tuple, Database] = {}


def get_tpch(scale: float = EXPERIMENT_SCALE, z: float = 0.0) -> Database:
    key = ("tpch", scale, z)
    if key not in _DATASETS:
        _DATASETS[key] = tpch_database(scale=scale, z=z)
    return _DATASETS[key]


def get_sales(scale: float = EXPERIMENT_SCALE) -> Database:
    key = ("sales", scale)
    if key not in _DATASETS:
        _DATASETS[key] = sales_database(scale=scale)
    return _DATASETS[key]


def get_tpcds(scale: float = EXPERIMENT_SCALE) -> Database:
    key = ("tpcds", scale)
    if key not in _DATASETS:
        _DATASETS[key] = tpcds_lite_database(scale=scale)
    return _DATASETS[key]


def clear_dataset_cache() -> None:
    _DATASETS.clear()


# ----------------------------------------------------------------------
@dataclass
class ExperimentResult:
    """A reproduced table/figure: headers + rows + free-form notes."""

    name: str
    headers: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def format(self) -> str:
        widths = [len(h) for h in self.headers]
        rendered = []
        for row in self.rows:
            cells = [_fmt(c) for c in row]
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
            rendered.append(cells)
        lines = [self.name, "=" * len(self.name)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for cells in rendered:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:
        print(self.format())

    def column(self, header: str) -> list:
        i = self.headers.index(header)
        return [row[i] for row in self.rows]


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


# ----------------------------------------------------------------------
def index_population(
    database: Database,
    table_columns: dict[str, Sequence[Sequence[str]]],
    methods: Sequence[CompressionMethod] = (
        CompressionMethod.ROW,
        CompressionMethod.PAGE,
    ),
) -> list[IndexDef]:
    """Build an index population from explicit column lists per table."""
    out: list[IndexDef] = []
    for table, keysets in table_columns.items():
        for keys in keysets:
            for method in methods:
                out.append(
                    IndexDef(
                        table,
                        tuple(keys),
                        kind=IndexKind.SECONDARY,
                        method=method,
                    )
                )
    return out


#: Representative single/composite key sets over the TPC-H fact tables —
#: the population behind the error analyses (Appendix C "hundreds of
#: indexes"; scaled to stay tractable on a full-build-per-index budget).
TPCH_ERROR_KEYSETS: dict[str, list[tuple[str, ...]]] = {
    "lineitem": [
        ("l_shipdate",),
        ("l_discount",),
        ("l_shipmode",),
        ("l_quantity",),
        ("l_returnflag",),
        ("l_partkey",),
        ("l_shipdate", "l_discount"),
        ("l_shipmode", "l_shipdate"),
        ("l_returnflag", "l_linestatus"),
        ("l_quantity", "l_extendedprice"),
        ("l_shipdate", "l_discount", "l_quantity"),
        ("l_shipmode", "l_returnflag", "l_shipdate"),
        ("l_partkey", "l_suppkey", "l_quantity"),
        ("l_returnflag", "l_shipmode", "l_quantity", "l_discount"),
    ],
    "orders": [
        ("o_orderdate",),
        ("o_orderpriority",),
        ("o_custkey",),
        ("o_orderdate", "o_orderpriority"),
        ("o_orderpriority", "o_orderdate"),
        ("o_custkey", "o_orderdate", "o_totalprice"),
    ],
    "partsupp": [
        ("ps_availqty",),
        ("ps_suppkey", "ps_availqty"),
    ],
}

TPCDS_ERROR_KEYSETS: dict[str, list[tuple[str, ...]]] = {
    "store_sales": [
        ("ss_sold_date_sk",),
        ("ss_item_sk",),
        ("ss_quantity",),
        ("ss_promo",),
        ("ss_item_sk", "ss_quantity"),
        ("ss_promo", "ss_sold_date_sk"),
        ("ss_sold_date_sk", "ss_item_sk", "ss_quantity"),
    ],
    "item": [
        ("i_category",),
        ("i_category", "i_brand"),
    ],
}
