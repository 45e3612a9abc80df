"""Smoke test of the ledger benchmark's plumbing (not of its numbers):
``run.py --quick`` on shrunken data emits exactly the metric names
``BENCHMARK.json`` declares, every check passes, the traced runs cover
the cold operation with named spans, and spans nest.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

LEDGER = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((LEDGER.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IN_PROCESS = [w for w in WORKLOADS if w != "serve-mixed"]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """``{(workload, trace): result record}`` of one quick pass; the
    eight runs go side by side to keep tier-1 short."""
    out = tmp_path_factory.mktemp("ledger")
    runs = [
        subprocess.Popen(
            [sys.executable, str(LEDGER / "run.py"), "--quick",
             "--workload", workload, "--trace", str(trace),
             "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for workload in WORKLOADS for trace in (0, 1)
    ]
    try:
        for run in runs:
            output, _ = run.communicate(timeout=600)
            assert run.returncode == 0, output[-3000:]
    finally:
        for run in runs:
            if run.poll() is None:
                run.kill()
                run.wait()
    records = {}
    for path in out.glob("*.json"):
        record = json.loads(path.read_text())
        records[(record["workload"], record["trace"])] = record
    return records


@pytest.mark.parametrize("trace, section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_declared_metrics(results, trace, section):
    declared = [m["name"] for m in SPEC[section]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in declared)
    for workload in WORKLOADS:
        record = results[(workload, trace)]
        assert record["correct"], record["failures"]
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert list(record["metrics"]) == declared
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in record["metrics"].items()} == units


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        for name, cell in results[(workload, 0)]["metrics"].items():
            assert cell["value"] > 0, (workload, name)


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_named_spans_cover_the_cold_operation(results, workload):
    metrics = results[(workload, 1)]["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.9


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_spans_nest(results, workload):
    spans = results[(workload, 1)]["spans"]
    assert spans
    for name, start, end, parent, _tag in spans:
        assert end >= start, name
        if parent >= 0:
            _pname, pstart, pend, _pp, _pt = spans[parent]
            assert pstart <= start and end <= pend, name
