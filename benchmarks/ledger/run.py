"""The ledger benchmark: one command, four workloads.

    python3 benchmarks/ledger/run.py --workload tune-sales-select \\
        --seed 1 --seconds 25 --trace 0

runs one workload in a fresh child process (``PYTHONHASHSEED=0``,
``src/`` on ``PYTHONPATH``, advisor ``workers=1``), prints every metric
by name with its unit, checks the outputs, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones.  Without ``--workload`` all four run in turn.  The exit
code is non-zero when a check failed or the program is not there to
measure.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
#: the driver allows one run 180 s; leave room to report a hang.
CHILD_TIMEOUT = 170


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="all inputs are generated from it")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measured seconds per run, set-up excluded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: shrunken data, one unit per phase")
    parser.add_argument("--out", default=None,
                        help="directory for one result file per run "
                             "(input of compare.py)")
    args = parser.parse_args(argv)

    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"nothing to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = 0
    for name in [args.workload] if args.workload else names:
        command = [
            sys.executable, str(LEDGER_DIR / "worker.py"),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.quick:
            command.append("--quick")
        if args.out:
            command += ["--out", args.out]
        # Its own process group, so that a hung child takes the server
        # it started down with it.
        child = subprocess.Popen(command, env=env, start_new_session=True)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT) or code
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            print(f"{name}: no result within {CHILD_TIMEOUT} s",
                  file=sys.stderr)
            return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
