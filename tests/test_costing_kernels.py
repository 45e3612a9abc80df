"""The access-shape memo must not change a float: plans evaluated
through the :class:`CostKernel` (memoized shape + scalar lane loop)
equal the :func:`cost_access` scalar reference exactly, on first
evaluation and on memo hits — and costing needs no third-party array
library."""

import os
import subprocess
import sys

from repro.optimizer import DEFAULT_COST_CONSTANTS, cost_access
from repro.optimizer.kernels import CostKernel
from repro.physical import IndexDef
from repro.storage import IndexKind
from repro.workload import Comparison

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)


def test_memoized_lanes_match_cost_access_to_the_float(small_stats):
    stats = small_stats.table("fact")
    predicates = (Comparison("f_cat", "=", "CAT_1"),)
    needed = ("f_cat", "f_price")
    base = IndexDef("fact", (), kind=IndexKind.HEAP)
    structures = [
        (base, 40 * 8192.0, 4000.0),
        (IndexDef("fact", ("f_cat",), included_columns=("f_price",)),
         10 * 8192.0, 4000.0),
        (IndexDef("fact", ("f_cat",)), 6 * 8192.0, 4000.0),
        (IndexDef("fact", ("f_qty",)), 6 * 8192.0, 4000.0),
    ]
    reference = [
        cost_access(index, size, rows, predicates, needed, stats,
                    DEFAULT_COST_CONSTANTS, base_lookup=base)
        for index, size, rows in structures
    ]
    kernel = CostKernel()
    for sweep in (1, 2):  # second sweep is served by the shape memo
        lanes = [
            (index, size, rows,
             kernel.shape_for("ctx", index, predicates, needed, stats,
                              DEFAULT_COST_CONSTANTS))
            for index, size, rows in structures
        ]
        plans = kernel.batch_access_plans(
            lanes, DEFAULT_COST_CONSTANTS, base
        )
        assert plans == reference
        assert kernel.stats() == {
            "lanes_total": sweep * len(structures),
            "batches_scalar": sweep,
            "shape_entries": len(structures),
        }


_NO_NUMPY_SCRIPT = """\
import sys

from repro.api import Session
from repro.datasets import sales_database, sales_workload

db = sales_database(scale=0.02)
result = Session(db, sales_workload(db), budget_fraction=0.15).tune()
assert "numpy" not in sys.modules, "costing imported numpy"
stats = result.kernel_stats
assert stats["lanes_total"] > 0 and stats["batches_scalar"] > 0, stats
"""


def test_tune_never_imports_numpy():
    """Costing is one scalar loop over memoized shapes — zero
    dependencies, even when an array library is installed."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
