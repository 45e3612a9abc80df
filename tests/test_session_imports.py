"""``repro.api.Session`` and ``repro.advisor.retune.TuningSession`` are
one class under every import order.

``repro``, ``repro.advisor`` and ``repro.api`` all import the session
eagerly and ``repro.advisor.sweep`` builds one per seed, so a cycle
through them only shows in a fresh interpreter, depending on which
module it imports first.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

FIRST_IMPORTS = [
    "repro",
    "repro.api",
    "repro.advisor",
    "repro.advisor.retune",
    "repro.advisor.sweep",
    "repro.service.context",
]


@pytest.mark.parametrize("first", FIRST_IMPORTS)
def test_one_session_class_whatever_is_imported_first(first):
    script = (
        f"import {first}\n"
        "import repro, repro.api, repro.advisor.retune\n"
        "assert repro.api.Session is repro.advisor.retune.TuningSession"
        " is repro.TuningSession\n"
    )
    subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        check=True,
        timeout=120,
    )
