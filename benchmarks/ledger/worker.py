"""Child process of ``run.py``: runs one workload once.

Started with ``PYTHONHASHSEED=0`` and ``src/`` on ``PYTHONPATH``; owns a
scratch directory under ``benchmarks/ledger/out/`` that is removed when
it exits.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    # Pay one-time imports (numpy behind the costing kernel) before any
    # clock starts: no unit should differ from the next by an import.
    from repro.optimizer.kernels import resolve_backend
    resolve_backend("auto")

    out_root = Path(__file__).resolve().parent / "out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out_root, prefix=f"tmp-{os.getpid()}-"))
    try:
        if args.workload == "serve-mixed":
            import served
            return served.run(args, scratch)
        import inprocess
        return inprocess.run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
