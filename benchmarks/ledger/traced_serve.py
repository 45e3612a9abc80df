"""``repro serve`` with the ledger's span wrappers installed.

    python traced_serve.py DUMP.json serve --dataset both ...

installs the same outside wrappers the in-process workloads use, plus
the served path's (job execution, serialization, journal, interactive
executors), then hands over to ``repro.cli.main``.  On SIGTERM the
server shuts down the way Ctrl-C would and the per-name totals are
written to ``DUMP.json``: ``{"totals": {name: [self seconds, calls,
total seconds]}, "counts": {name: n}}``.
"""

from __future__ import annotations

import json
import signal
import sys

from layers import install_advisor, install_service
from spans import Recorder


def main(argv: list[str]) -> int:
    dump_path, *serve_args = argv
    rec = Recorder()
    install_advisor(rec)
    install_service(rec)

    def on_term(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, on_term)
    from repro.cli import main as cli_main
    try:
        return cli_main(serve_args)
    finally:
        rec.uninstall()
        with open(dump_path, "w") as fh:
            json.dump({
                # No harness tags spans here: everything is under None.
                "totals": rec.by_tag().get(None, {}),
                "counts": {name: n for (_tag, name), n in rec.counts.items()},
            }, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
