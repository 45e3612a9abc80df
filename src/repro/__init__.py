"""repro — Compression Aware Physical Database Design.

A from-scratch Python reproduction of Kimura, Narasayya & Syamala (PVLDB
4(10), 2011): a compression-aware index advisor (DTAc) together with the
substrates it needs — a page-level storage engine with real compression
codecs, a sampling framework (SampleCF, join synopses, MV samples), the
size-deduction graph optimizer, and a what-if query optimizer with the
paper's compression-aware cost model.

Quickstart::

    from repro.api import Session
    from repro import tpch_database, tpch_workload

    db = tpch_database(scale=0.3)
    wl = tpch_workload(db, select_weight=5.0, insert_weight=1.0)
    session = Session(db, wl, variant="dtac-both")
    result = session.tune(budget_bytes=db.total_data_bytes() // 4)
    print(f"improvement: {result.improvement_pct:.1f}%")
    for index in result.configuration:
        print(" ", index.display_name())
"""

from repro.advisor import (
    AdvisorOptions,
    AdvisorResult,
    RetuneResult,
    SweepResult,
    TuningAdvisor,
    TuningSession,
)
from repro.catalog import Column, Database, Table
from repro.columnstore import (
    ColumnStoreAdvisor,
    ProjectionDef,
    ProjectionSizer,
    tune_columnstore,
)
from repro.compression import ADVISOR_METHODS, CompressionMethod
from repro.engine import (
    Executor,
    validate_recommendation,
    validate_selectivities,
)
from repro.optimizer import CostConstants, DeltaWorkloadCoster, WhatIfOptimizer
from repro.physical import Configuration, IndexDef, MVDefinition
from repro.sampling import SampleManager
from repro.sizeest import ErrorModel, SizeEstimate, SizeEstimator
from repro.stats import DatabaseStats
from repro.storage import IndexKind
from repro.workload import Workload, parse_query, parse_statement
from repro.datasets import (
    sales_database,
    sales_workload,
    tpch_database,
    tpch_workload,
    tpcds_lite_database,
)

__version__ = "1.0.0"


__all__ = [
    "__version__",
    # catalog / storage
    "Database",
    "Table",
    "Column",
    "IndexKind",
    # compression
    "CompressionMethod",
    "ADVISOR_METHODS",
    # physical design
    "IndexDef",
    "MVDefinition",
    "Configuration",
    # workload
    "Workload",
    "parse_statement",
    "parse_query",
    # stats / sampling / size estimation
    "DatabaseStats",
    "SampleManager",
    "SizeEstimator",
    "SizeEstimate",
    "ErrorModel",
    # optimizer
    "DeltaWorkloadCoster",
    "WhatIfOptimizer",
    "CostConstants",
    # advisor
    "TuningAdvisor",
    "AdvisorOptions",
    "AdvisorResult",
    "TuningSession",
    "RetuneResult",
    "SweepResult",
    # engine
    "Executor",
    "validate_recommendation",
    "validate_selectivities",
    # column store (Section 8 future work)
    "ColumnStoreAdvisor",
    "ProjectionDef",
    "ProjectionSizer",
    "tune_columnstore",
    # datasets
    "tpch_database",
    "tpch_workload",
    "sales_database",
    "sales_workload",
    "tpcds_lite_database",
]
