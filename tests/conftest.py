"""Shared fixtures: a small deterministic database used across tests,
plus the ``--update-golden`` refresh flag for the golden-recommendation
regression canaries, and the subprocess helper of the PYTHONHASHSEED
identity tests."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.catalog import Column, Database, INT, Table, char, decimal
from repro.stats import DatabaseStats


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate tests/golden/*.json from the current advisor "
             "output instead of asserting against it (commit the diff "
             "deliberately — it documents a behavior change)",
    )


@pytest.fixture(scope="session")
def run_with_hashseed():
    """``run(script, hashseed) -> stdout``: the script in a fresh
    interpreter under that ``PYTHONHASHSEED``, with ``src/`` and the
    repo root importable and nothing else inherited."""
    root = Path(__file__).resolve().parent.parent

    def run(script: str, hashseed: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": f"{root / 'src'}:{root}",
                 "PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
            check=True,
            timeout=300,
        ).stdout.strip()

    return run


@pytest.fixture(scope="session")
def small_db() -> Database:
    """A two-table star: fact(40 cols worth of redundancy) + dim."""
    rng = random.Random(1234)
    db = Database("small")
    dim = Table(
        "dim",
        [
            Column("d_key", INT),
            Column("d_name", char(12)),
            Column("d_group", char(8)),
        ],
        primary_key=("d_key",),
    )
    for i in range(50):
        dim.append_row((i, f"dim_{i:04d}", f"G{i % 5}"))
    db.add_table(dim)

    fact = Table(
        "fact",
        [
            Column("f_key", INT),
            Column("f_dkey", INT),
            Column("f_cat", char(10)),
            Column("f_qty", INT),
            Column("f_price", decimal()),
            Column("f_day", INT),
        ],
        primary_key=("f_key",),
    )
    for i in range(4000):
        fact.append_row(
            (
                i,
                rng.randrange(50),
                f"CAT_{rng.randrange(8)}",
                rng.randrange(100),
                rng.randrange(10000) * 10,
                rng.randrange(365),
            )
        )
    db.add_table(fact)
    db.add_foreign_key("fact", "f_dkey", "dim", "d_key")
    return db


@pytest.fixture
def two_cpus(monkeypatch):
    """Run-level sharding must be reachable on a one-CPU host too: the
    engine degrades from what ``effective_cpu_count`` observes."""
    from repro.parallel import engine

    monkeypatch.setattr(engine, "effective_cpu_count", lambda: 2)


@pytest.fixture(scope="session")
def small_stats(small_db) -> DatabaseStats:
    return DatabaseStats(small_db)


@pytest.fixture(scope="session")
def tiny_tpch():
    """A very small TPC-H instance shared by integration tests."""
    from repro.datasets import tpch_database

    return tpch_database(scale=0.05)
