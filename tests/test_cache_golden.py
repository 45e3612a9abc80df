"""A cache directory written by the single-object file layout.

``tests/golden/cache/`` holds the ``estimates.json`` and ``costs.json``
that a cold

    repro sweep --dataset sales --scale 0.02 --budgets 0.1,0.2 \\
        --cache-dir DIR

left behind when each file was one ``{"version": 2, "entries": {...}}``
object, rewritten whole on every save; ``recommendations.json`` is the
result section of each of that sweep's runs.  The line layout reads such
a directory warm and appends to it without rewriting a byte of it; the
cost memo's and the selection's files, which the golden predates, join
them.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import _make_dataset, _make_session, build_parser
from repro.parallel.cache import CACHE_FILE, COST_CACHE_FILE
from repro.service.context import serialize_result
from tests.test_run_identity import _count_costings, _count_evaluations

GOLDEN = Path(__file__).parent / "golden" / "cache"
SWEEP = ["sweep", "--dataset", "sales", "--scale", "0.02",
         "--budgets", "0.1,0.2"]


def sweep(cache_dir, *extra):
    """``repro sweep`` with the golden's flags (plus ``extra``) over
    ``cache_dir``, without the printing."""
    args = build_parser().parse_args(
        [*SWEEP, "--cache-dir", str(cache_dir), *extra]
    )
    db, wl = _make_dataset(args.dataset, args)
    total = db.total_data_bytes()
    return _make_session(args, db, wl).sweep(
        [total * fraction for fraction in args.budgets],
        seeds=args.seeds, workers=args.workers,
    )


def recommendations(result) -> str:
    """The sweep's runs as ``recommendations.json`` spells them."""
    return json.dumps([
        {"seed": run.seed, "budget_bytes": run.budget_bytes,
         **serialize_result(run.result)["result"]}
        for run in result.runs
    ], indent=2, sort_keys=True) + "\n"


@pytest.fixture()
def cache_dir(tmp_path):
    copy = tmp_path / "cache"
    shutil.copytree(GOLDEN, copy)
    (copy / "recommendations.json").unlink()
    return copy


def _assert_warm(result) -> None:
    assert result.estimation_cache_stats["hit_rate"] == 1.0
    assert result.cost_cache_stats["hit_rate"] == 1.0
    assert recommendations(result) == \
        (GOLDEN / "recommendations.json").read_text()


def test_the_golden_directory_sweeps_warm_and_stays_as_it_was(
    cache_dir, monkeypatch
):
    _assert_warm(sweep(cache_dir))
    # The golden directory holds no cost memo and no selection: the
    # first warm sweep selects and searches anew and writes both, and
    # the next reads its selection and its search there.
    (memo,) = cache_dir.glob("costmemo-*.json")
    (selection,) = cache_dir.glob("selection-*.json")
    written = memo.read_bytes(), selection.read_bytes()
    asked = _count_costings(monkeypatch)
    evaluations = _count_evaluations(monkeypatch)
    again = sweep(cache_dir)
    _assert_warm(again)
    assert asked[0] == again.delta_stats["cost_memo_hits"] > 0
    assert evaluations[0] == 0
    assert (memo.read_bytes(), selection.read_bytes()) == written
    for name in (CACHE_FILE, COST_CACHE_FILE):
        assert (cache_dir / name).read_bytes() == \
            (GOLDEN / name).read_bytes()


def test_a_new_seed_appends_after_the_golden_bytes(cache_dir):
    cold = sweep(cache_dir, "--seeds", "7")
    for name, stats in ((CACHE_FILE, cold.estimation_cache_stats),
                        (COST_CACHE_FILE, cold.cost_cache_stats)):
        golden = (GOLDEN / name).read_bytes()
        grown = (cache_dir / name).read_bytes()
        assert grown.startswith(golden)
        # The golden file ends without a newline; the append starts
        # with one, then writes one line per entry the sweep stored.
        appended = grown[len(golden):].split(b"\n")
        assert appended[0] == appended[-1] == b""
        assert stats["stores"] > 0
        assert len({json.loads(line)[0] for line in appended[1:-1]}) \
            == len(appended) - 2 == stats["stores"]
    # Both seeds now replay from the one directory.
    _assert_warm(sweep(cache_dir))
    again = sweep(cache_dir, "--seeds", "7")
    assert again.estimation_cache_stats["hit_rate"] == 1.0
    assert again.cost_cache_stats["hit_rate"] == 1.0


def test_two_cold_sweeps_write_the_same_bytes(run_with_hashseed, tmp_path):
    """Every file a cold sweep leaves is a function of its flags: two
    interpreters under one hash seed write the same bytes.  The seed
    alone does not pin set order — an ``IndexDef`` hashes ``None``,
    whose hash is its address on CPython 3.11 — so nothing written may
    follow a frozenset's iteration."""
    dirs = [tmp_path / "one", tmp_path / "two"]
    for directory in dirs:
        run_with_hashseed(
            "from tests.test_cache_golden import sweep; "
            f"sweep({str(directory)!r})", "0",
        )
    names = sorted(path.name for path in dirs[0].iterdir())
    assert names == sorted(path.name for path in dirs[1].iterdir())
    assert {name.split("-")[0] for name in names} >= \
        {CACHE_FILE, COST_CACHE_FILE, "costmemo", "selection"}
    for name in names:
        assert (dirs[0] / name).read_bytes() == \
            (dirs[1] / name).read_bytes(), name
