#!/usr/bin/env python
"""Nightly bench trend tracking.

Appends one summary line per nightly run to a ``BENCH_trend.jsonl``
artifact (carried forward run-to-run by the workflow) and fails when the
fresh run's throughput regressed more than ``--max-regression`` against
the previous entry — wall-clock drift CI's per-PR gate deliberately
tolerates, but a *sustained* drop across nightlies on the same runner
class is a real regression signal.

Usage (what nightly.yml runs)::

    python benchmarks/trend.py --bench BENCH_nightly.json \
        --trend BENCH_trend.jsonl

The trend file is append-only: the workflow downloads the previous
nightly's artifact (when one exists), this script appends today's
summary, and the workflow re-uploads the grown file.  With no previous
entry the regression check is skipped — the first nightly seeds the
series.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: (summary key, path into the bench payload) throughput series tracked
#: and gated against regression.
_TRACKED = (
    ("advisor_candidates_per_sec",
     ("advisor", "sequential", "candidates_per_sec")),
    ("incremental_candidates_per_sec",
     ("incremental", "incremental", "candidates_per_sec")),
    ("fig9_samplecf_runs_per_sec",
     ("fig9", "samplecf_runs_per_sec")),
)

#: informational fields carried along but not gated.
_CONTEXT = (
    ("incremental_speedup", ("incremental", "speedup")),
    ("sweep_warm_cost_hit_rate", ("sweep", "warm_cost_hit_rate")),
    ("service_overlap_speedup", ("service", "overlap", "speedup")),
    ("cpu_count", ("meta", "cpu_count")),
    ("python", ("meta", "python")),
)


def _dig(payload: dict, path: tuple) -> object:
    node: object = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def summarize(bench: dict, run_id: str) -> dict:
    summary: dict = {"run_id": run_id}
    for key, path in _TRACKED + _CONTEXT:
        value = _dig(bench, path)
        if value is not None:
            summary[key] = value
    return summary


def last_entry(trend_path: Path) -> dict | None:
    if not trend_path.exists():
        return None
    lines = [
        line for line in trend_path.read_text().splitlines() if line.strip()
    ]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_regression(previous: dict, fresh: dict,
                     max_regression: float) -> list[str]:
    failures = []
    for key, _path in _TRACKED:
        prev = previous.get(key)
        new = fresh.get(key)
        if not isinstance(prev, (int, float)) or prev <= 0:
            continue
        if not isinstance(new, (int, float)):
            failures.append(f"{key} vanished from the fresh run "
                            f"(was {prev})")
            continue
        floor = prev * (1.0 - max_regression)
        if new < floor:
            failures.append(
                f"{key} regressed {1.0 - new / prev:.1%} vs the previous "
                f"nightly: {prev} -> {new} "
                f"(floor at -{max_regression:.0%}: {floor:.2f})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Append a nightly bench summary to the trend series "
                    "and fail on throughput regressions"
    )
    parser.add_argument("--bench", required=True,
                        help="fresh BENCH_nightly.json")
    parser.add_argument("--trend", default="BENCH_trend.jsonl",
                        help="append-only JSONL trend series "
                             "(previous nightly's artifact, if any)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="max fractional candidates/sec drop vs the "
                             "previous nightly entry")
    parser.add_argument("--run-id",
                        default=os.environ.get("GITHUB_RUN_ID", "local"),
                        help="stamp recorded with the entry")
    args = parser.parse_args(argv)

    try:
        bench = json.loads(Path(args.bench).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"[trend] cannot load {args.bench}: {exc}")
        return 1

    trend_path = Path(args.trend)
    previous = last_entry(trend_path)
    summary = summarize(bench, args.run_id)
    with trend_path.open("a") as fh:
        fh.write(json.dumps(summary) + "\n")
    print(f"[trend] appended run {summary['run_id']} to {trend_path} "
          f"({sum(1 for _ in trend_path.open())} entries)")

    if previous is None:
        print("[trend] no previous nightly entry: seeding the series, "
              "regression check skipped")
        return 0
    failures = check_regression(previous, summary, args.max_regression)
    for failure in failures:
        print(f"[trend] FAIL: {failure}")
    if failures:
        return 1
    tracked = {k: summary.get(k) for k, _p in _TRACKED if k in summary}
    print(f"[trend] no regression vs run {previous.get('run_id')}: "
          f"{tracked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
