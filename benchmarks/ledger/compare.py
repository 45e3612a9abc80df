"""Compare two sets of ledger runs under the bounds of BENCHMARK.json.

    python3 benchmarks/ledger/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result files ``run.py --out DIR`` wrote (at
least three ``--trace 0`` runs per workload, on different seeds; use
the same seeds on both sides).  One row per end-to-end metric x
workload: both medians, the ratio with its base, the wider of the two
run-to-run spreads (interquartile range over median), the bound, and a
verdict:

* ``worse``      — the change's median is worse than the base's by more
  than the bound;
* ``better``     — better by more than the bound, or every run of the
  change reads better than every run of the base;
* ``same``       — within the bound;
* ``unresolved`` — the spread is wider than the bound, so the runs
  cannot tell (reported, never read as "same").

Exits 1 when any row is ``worse``, 2 when the inputs are unusable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_RUNS = 3


def load(directory: str) -> dict:
    """``{(workload, metric): [value per run]}`` of the untraced runs."""
    out: dict = defaultdict(list)
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        for metric, cell in record["metrics"].items():
            out[(record["workload"], metric)].append(cell["value"])
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: list[float], change: list[float], lower_is_better: bool,
            bound: float) -> tuple[str, float]:
    """(verdict, the wider of the two spreads)."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    worsening = (change_median - base_median) / base_median
    if not lower_is_better:
        worsening = -worsening
    wide = max(spread(base), spread(change))
    if lower_is_better:
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if all_better:
        return "better", wide
    if wide > bound:
        return "unresolved", wide
    if worsening > bound:
        return "worse", wide
    if worsening < -bound:
        return "better", wide
    return "same", wide


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    base, change = load(argv[0]), load(argv[1])
    worse = 0
    print(f"{'workload':20s} {'metric':20s} {'base':>12s} {'change':>12s} "
          f"{'change/base':>12s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for entry in spec["end_to_end"]:
            key = (workload, entry["name"])
            a, b = base.get(key, []), change.get(key, [])
            if len(a) < MIN_RUNS or len(b) < MIN_RUNS:
                print(f"{workload}: {entry['name']} has {len(a)} base and "
                      f"{len(b)} change runs; {MIN_RUNS} each are needed",
                      file=sys.stderr)
                return 2
            word, wide = verdict(
                a, b, entry["better"] == "lower", entry["bound"]
            )
            worse += word == "worse"
            base_median = statistics.median(a)
            change_median = statistics.median(b)
            print(f"{workload:20s} {entry['name']:20s} "
                  f"{base_median:12.4f} {change_median:12.4f} "
                  f"{change_median / base_median:12.4f} "
                  f"{wide:7.3f} {entry['bound']:6.2f}  {word} "
                  f"({entry['unit']}, n={len(a)}/{len(b)})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
