"""A prepared stage's per-query selection on disk: the pool before
merging, persisted per stage namespace by
:class:`repro.parallel.cache.SelectionFile`.

First the codec: a pool round-trips as positions, a namespace holds one
line, and a line that is not a pool of distinct in-range positions
loads nothing (the append log's rules over every store are
``tests/test_append_log.py``'s).  Then the namespace through real
advisor runs: another (e, q), another ``top_k``, one statement fewer or
one candidate sized otherwise loads nothing; reweighted statements load
the selection; and a preparation that distrusted a statement writes
none.
"""

import json

import pytest

from repro.advisor import advisor
from repro.api import Session
from repro.datasets.sales import sales_database, sales_workload
from repro.parallel.cache import SelectionFile
from repro.workload.query import Workload

STATEMENTS = ("select;q0", "select;q1", "insert;q2")
CANDIDATES = [f"c{n}@bytes={8192.0 * n!r}" for n in range(8)]


def _selection(directory, candidates=CANDIDATES) -> SelectionFile:
    return SelectionFile(directory, "ctx", STATEMENTS, (True, 2),
                         candidates)


# ----------------------------------------------------------------------
# the codec
# ----------------------------------------------------------------------
def test_a_pool_loads_as_saved_and_a_namespace_holds_one_line(tmp_path):
    selection = _selection(tmp_path)
    assert selection.load() is None
    selection.save([5, 0, 7])
    assert _selection(tmp_path).load() == [5, 0, 7]
    head, line = selection.file.read_bytes().splitlines()
    assert json.loads(head) == {"version": 1,
                                "namespace": selection.namespace}
    assert json.loads(line) == {"pool": [5, 0, 7]}
    # A selection that found the line, and one that saved it, write
    # nothing more.
    found = _selection(tmp_path)
    assert found.load() == [5, 0, 7]
    for again in (found, selection):
        again.save([1])
    assert selection.file.read_bytes().splitlines() == [head, line]


@pytest.mark.parametrize("pool", [
    [8], [-1], [2, 2], [True], [1.0], "12", None,
], ids=repr)
def test_a_line_that_is_no_pool_loads_nothing(tmp_path, pool):
    selection = _selection(tmp_path)
    selection.save([0])
    head = selection.file.read_bytes().splitlines()[0]
    selection.file.write_bytes(
        head + b"\n" + json.dumps({"pool": pool}).encode() + b"\n"
    )
    assert _selection(tmp_path).load() is None
    # The first pool on file loads, whatever precedes it.
    with open(selection.file, "ab") as fh:
        fh.write(b'{"pool": [3]}\n')
    assert _selection(tmp_path).load() == [3]


def test_every_input_is_in_the_namespace(tmp_path):
    namespace = _selection(tmp_path).namespace
    others = [
        SelectionFile(tmp_path, "ctx2", STATEMENTS, (True, 2), CANDIDATES),
        SelectionFile(tmp_path, "ctx", STATEMENTS[:2], (True, 2),
                      CANDIDATES),
        SelectionFile(tmp_path, "ctx", STATEMENTS, (True, 3), CANDIDATES),
        _selection(tmp_path, CANDIDATES[::-1]),
        _selection(tmp_path, [*CANDIDATES[:-1], "c7@bytes=1.0"]),
    ]
    assert len({namespace, *(other.namespace for other in others)}) == 6


# ----------------------------------------------------------------------
# the namespace, through advisor runs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def inputs():
    db = sales_database(scale=0.02)
    return db, sales_workload(db)


def _loads(monkeypatch) -> list:
    """Record what every :meth:`SelectionFile.load` returned."""
    loads = []
    load = SelectionFile.load

    def recorded(selection):
        loads.append(load(selection))
        return loads[-1]

    monkeypatch.setattr(SelectionFile, "load", recorded)
    return loads


def _tune(inputs, cache_dir, workload=None, **extra):
    db, wl = inputs
    session = Session(db, workload or wl, variant="dtac-both",
                      budget_fraction=0.15, cache_dir=str(cache_dir),
                      **extra)
    return session, session.tune()


def _files(cache_dir) -> list:
    return sorted(cache_dir.glob("selection-*.json"))


def test_the_namespace_admits_only_the_same_selection(
    inputs, tmp_path, monkeypatch
):
    wl = inputs[1]
    loads = _loads(monkeypatch)
    cold_session, cold = _tune(inputs, tmp_path)
    assert loads == [None]
    (written,) = _files(tmp_path)
    _session, warm = _tune(inputs, tmp_path)
    assert loads[-1] is not None
    assert warm.configuration == cold.configuration

    shorter = Workload(list(wl)[:-1])
    for label, workload, extra in (
        ("e", None, {"e": 0.25}),
        ("top_k", None, {"top_k": 3}),
        ("statements", shorter, {}),
    ):
        _tune(inputs, tmp_path, workload, **extra)
        assert loads[-1] is None, label
    assert len(_files(tmp_path)) == 4

    _tune(inputs, tmp_path, wl.reweighted(1.0, 25.0))
    assert loads[-1] is not None
    assert len(_files(tmp_path)) == 4

    # One per-query candidate (the pool's first member) sized otherwise,
    # as a partially warm estimate cache can steer deduction: another
    # namespace.
    first = cold_session.stage.pool[0]
    index_size = advisor.TuningAdvisor._index_size

    def resized(self, ix):
        return index_size(self, ix) + 8192.0 * (ix == first)

    monkeypatch.setattr(advisor.TuningAdvisor, "_index_size", resized)
    _tune(inputs, tmp_path)
    assert loads[-1] is None
    assert len(_files(tmp_path)) == 5
    assert written in _files(tmp_path)


def test_a_preparation_that_distrusted_a_statement_writes_none(
    inputs, tmp_path, monkeypatch
):
    evaluate = advisor.evaluate_candidates_batch

    def distrusting(queries, candidates, base, query_cost, index_size):
        out = evaluate(queries, candidates, base, query_cost, index_size)
        query_cost.__self__.delta.tables.distrust(0)
        return out

    monkeypatch.setattr(advisor, "evaluate_candidates_batch", distrusting)
    _tune(inputs, tmp_path)
    assert _files(tmp_path) == []
    assert (tmp_path / "costs.json").exists()
