"""Golden-recommendation regression canaries.

Unit tests pin individual components; these pin the *whole pipeline*:
for fixed datasets, seeds and budgets, the advisor's recommendation —
configuration, sizes, costs, step log — must be byte-identical to the
JSON committed under ``tests/golden/``, and the run's progress stream
— every event the search emits, in order — to the NDJSON beside it under
``tests/golden/streams/``.  Any refactor of costing, enumeration,
estimation or caching that moves a single float (or reorders a
tie-break, or an event) fails here even if every unit test still passes.

When a change is *deliberate* (e.g. a cost-model fix), regenerate with::

    python -m pytest tests/test_golden_recommendations.py --update-golden

and commit the diff — it is the reviewable record of what moved.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.advisor.advisor import TuningAdvisor, get_variant
from repro.api import tune
from repro.datasets import (
    sales_database,
    sales_workload,
    tpch_database,
    tpch_workload,
)
from repro.sampling.sample_manager import SampleManager
from repro.service.context import serialize_result
from repro.sizeest.estimator import SizeEstimator
from repro.stats.column_stats import DatabaseStats

GOLDEN_DIR = Path(__file__).parent / "golden"
STREAM_DIR = GOLDEN_DIR / "streams"


def _sales(scale):
    db = sales_database(scale=scale)
    return db, sales_workload(db)


def _tpch(scale):
    db = tpch_database(scale=scale)
    return db, tpch_workload(db)


@dataclass(frozen=True)
class GoldenCase:
    name: str
    build: object
    scale: float
    variant: str
    budget_fraction: float
    seed: int | None = None
    options: dict = field(default_factory=dict)


CASES = [
    GoldenCase("sales_dtac_both_b15", _sales, 0.04, "dtac-both", 0.15),
    GoldenCase("sales_dtac_both_b15_seed7", _sales, 0.04, "dtac-both",
               0.15, seed=7),
    GoldenCase("sales_dtac_none_b10", _sales, 0.04, "dtac-none", 0.10),
    GoldenCase("tpch_dtac_both_b20", _tpch, 0.05, "dtac-both", 0.20),
    GoldenCase("tpch_dta_b20", _tpch, 0.05, "dta", 0.20),
    # One per registered search besides the default; the second anytime
    # case runs under dtac-both, whose backtracking=True it ignores.
    GoldenCase("sales_ibm_b15", _sales, 0.04, "dtac-both", 0.15,
               options={"algorithm": "ibm"}),
    GoldenCase("sales_relaxation_b15", _sales, 0.04, "dtac-both", 0.15,
               options={"algorithm": "relaxation"}),
    GoldenCase("sales_anytime_density_b10", _sales, 0.04, "dtac-none",
               0.10, options={"algorithm": "anytime",
                              "strategy": "density"}),
    GoldenCase("sales_anytime_dtac_both_b15", _sales, 0.04, "dtac-both",
               0.15, options={"algorithm": "anytime"}),
    GoldenCase("sales_density_b10", _sales, 0.04, "dtac-none", 0.10,
               options={"strategy": "density"}),
]


def run_case(case: GoldenCase) -> tuple[str, str]:
    """One advisor run at the case's fixed parameters, rendered as the
    canonical golden JSON (sorted keys, trailing newline) and its
    progress stream (one sorted-key JSON event per line)."""
    db, wl = case.build(case.scale)
    budget = db.total_data_bytes() * case.budget_fraction
    events: list[dict] = []
    if case.seed is None:
        result = tune(db, wl, budget, variant=case.variant,
                      progress=events.append, **case.options)
    else:
        stats = DatabaseStats(db)
        options = get_variant(case.variant).advisor_options(
            budget, **case.options
        )
        estimator = SizeEstimator(
            db, stats=stats,
            manager=SampleManager(db, seed=case.seed),
            e=options.e, q=options.q,
        )
        result = TuningAdvisor(
            db, wl, options, estimator=estimator, stats=stats,
            progress=events.append,
        ).run()
    payload = {
        "case": {
            "name": case.name,
            "dataset": db.name,
            "variant": case.variant,
            "budget_fraction": case.budget_fraction,
            "seed": case.seed,
        },
        **serialize_result(result)["result"],
    }
    stream = "".join(
        json.dumps(event, sort_keys=True) + "\n" for event in events
    )
    return json.dumps(payload, indent=2, sort_keys=True) + "\n", stream


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_golden_recommendation(case, request):
    golden_file = GOLDEN_DIR / f"{case.name}.json"
    stream_file = STREAM_DIR / f"{case.name}.ndjson"
    fresh, fresh_stream = run_case(case)
    if request.config.getoption("--update-golden"):
        STREAM_DIR.mkdir(parents=True, exist_ok=True)
        golden_file.write_text(fresh)
        stream_file.write_text(fresh_stream)
        pytest.skip(f"updated {golden_file.name}")
    for path in (golden_file, stream_file):
        assert path.exists(), (
            f"{path} missing — generate it with "
            "pytest tests/test_golden_recommendations.py --update-golden"
        )
    # Byte-identical, not approximately equal: every float, every index
    # name, every greedy step in the committed order.
    assert fresh == golden_file.read_text(), (
        f"advisor output drifted from {golden_file.name}; if this "
        "change is deliberate, regenerate with --update-golden and "
        "commit the diff"
    )
    assert fresh_stream == stream_file.read_text(), (
        f"progress stream drifted from {stream_file.name}; if this "
        "change is deliberate, regenerate with --update-golden and "
        "commit the diff"
    )


def test_goldens_have_no_strays():
    """Every committed golden file corresponds to a case (catches
    renamed cases leaving stale canaries behind)."""
    known = {case.name for case in CASES}
    assert {p.stem for p in GOLDEN_DIR.glob("*.json")} == known
    assert {p.stem for p in STREAM_DIR.glob("*")} == known


def test_golden_runs_are_self_consistent():
    """The canary harness itself is deterministic: running a case twice
    in-process produces identical bytes (otherwise a golden mismatch
    could be harness noise rather than advisor drift)."""
    case = CASES[0]
    assert run_case(case) == run_case(case)
