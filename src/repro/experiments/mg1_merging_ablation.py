"""MG1 — merging ablation: none vs plain vs compression-aware merging.

Section 6.2 ends with the conjecture that revisiting index merging in
the context of compression "could have significant impact on quality of
database design".  This experiment measures it: the full DTAc with
merging disabled, with classic prefix merging, and with the
compression-aware reshapes (key permutation + included-column
promotion) enabled.  Every run goes through one
:class:`~repro.api.Session`, merge modes outside and budgets inside: the
merging flags shape the candidate pool, so the session prepares once
per mode and searches that stage at every budget.
"""

from __future__ import annotations

from repro.api import Session
from repro.datasets import tpch_workload
from repro.experiments.common import (
    EXPERIMENT_SCALE,
    ExperimentResult,
    get_tpch,
)

BUDGET_FRACTIONS = (0.1, 0.3)

MODES = (
    ("no-merge", dict(enable_merging=False)),
    ("plain-merge", dict(enable_merging=True,
                         compression_aware_merging=False)),
    ("cf-aware-merge", dict(enable_merging=True,
                            compression_aware_merging=True)),
)


def run(scale: float = EXPERIMENT_SCALE) -> ExperimentResult:
    database = get_tpch(scale)
    workload = tpch_workload(
        database, select_weight=5.0, insert_weight=1.0
    )
    session = Session(database, workload, variant="dtac-both")
    total = database.total_data_bytes()
    columns = [
        [session.tune(total * fraction, **flags).improvement_pct
         for fraction in BUDGET_FRACTIONS]
        for _name, flags in MODES
    ]
    result = ExperimentResult(
        name="MG1: Index merging ablation under compression "
             "(improvement %)",
        headers=("Budget%",) + tuple(name for name, _ in MODES),
        rows=[(100.0 * fraction, *cells)
              for fraction, cells in zip(BUDGET_FRACTIONS, zip(*columns))],
    )
    result.notes.append(
        "paper conjecture (Section 6.2): compression-aware merging "
        "should not lose to plain merging, and merging helps overall"
    )
    return result
