"""The cost memo's file: the raw layer of a prepared stage's cost memo
(:attr:`repro.optimizer.delta.PlanTables.cost_memo`), persisted per
stage namespace by :class:`repro.parallel.cache.CostMemoFile`.

First the codec over a synthetic memo: floats round-trip bit for bit,
a block writes each shared set and totals tuple once, an entry naming an
unsized structure is never written, a save appends only what is new and
a torn line loses only itself, and a distrust keeps every earlier entry
from loading again (the append log's rules over every store, disk
pressure among them, are ``tests/test_append_log.py``'s).  Then the namespace through real
advisor runs: a new session over the same stage reads its whole search
from the file; another seed, another (e, q) or another statement list
loads nothing, reweighted statements load everything; and forked sweep
workers writing one namespace both land.
"""

import json
import math
from types import SimpleNamespace

import pytest

from repro.api import Session
from repro.compression.base import CompressionMethod
from repro.datasets.sales import sales_database, sales_workload
from repro.parallel.cache import CostMemoFile
from repro.parallel.engine import fork_available
from repro.physical.index_def import IndexDef
from repro.storage.index_build import IndexKind
from repro.workload.query import Workload
from tests.test_run_identity import _count_costings

HEAP = IndexDef("sales", (), kind=IndexKind.HEAP)
PAGE_HEAP = HEAP.with_method(CompressionMethod.PAGE)
A = IndexDef("sales", ("sa_date",))
B = IndexDef("sales", ("sa_total",), ("sa_status",))
C = IndexDef("sales", ("sa_status",))
#: not in the sized set of the files below.
UNSIZED = IndexDef("sales", ("sa_promo",))
STRUCTURES = (HEAP, PAGE_HEAP, A, B, C)
STATEMENTS = ("select;q0", "select;q1", "insert;q2")


def _memo_file(directory, structures=STRUCTURES, context="ctx",
               statements=STATEMENTS) -> CostMemoFile:
    """A memo file whose sized signatures are the structures' reprs
    (any injective naming will do for the file discipline)."""
    return CostMemoFile(directory, context, statements,
                        {repr(ix): ix for ix in structures})


def _tables(memo=None, distrusted=()):
    """The three fields of :class:`PlanTables` a memo file reads."""
    return SimpleNamespace(cost_memo=dict(memo or {}),
                           distrusted=set(distrusted),
                           stmts=list(STATEMENTS))


#: totals no decimal rendering shorter than ``repr`` reproduces, both
#: zeros (equal, with other bits) and an infinity.
REF = (0.1 + 0.2, -0.0, 1e308 * 10)
OTHER_REF = (1 / 3, 2.5e-300, 0.0)
BASE = frozenset({HEAP})
SWEEP_REF = frozenset({HEAP, A})


def _memo() -> dict:
    """Sweep-shaped keys sharing one reference set, member keys, and
    entries sharing one totals tuple — two of them name an unsized
    structure."""
    return {
        (SWEEP_REF, B): (REF, 0, 123.456789012345678),
        (SWEEP_REF, C): (REF,),
        (SWEEP_REF, UNSIZED): (REF, 1, 5.0),
        frozenset({PAGE_HEAP, A, B}): (OTHER_REF, 0, 1e-7, 2, 3.25),
        frozenset({HEAP, UNSIZED}): (OTHER_REF, 1, 9.0),
        BASE | {C}: (REF, 2, math.pi),
    }


def _bits(raw: tuple) -> list[str]:
    """A raw entry float for float: ``repr`` tells -0.0 from 0.0 and
    an int from a float."""
    return [*map(repr, raw[0]), *map(repr, raw[1:])]


def _blocks(memo_file) -> list[dict]:
    head, *blocks = memo_file.file.read_bytes().splitlines()
    assert json.loads(head) == {"version": 1,
                                "namespace": memo_file.namespace}
    return [json.loads(block) for block in blocks]


def _sized_entries() -> dict:
    return {key: raw for key, raw in _memo().items()
            if UNSIZED not in _members(key)}


def _members(key) -> frozenset:
    return key[0] | {key[1]} if isinstance(key, tuple) else key


def _fresh(ix: IndexDef) -> IndexDef:
    """An equal structure that is another object."""
    return IndexDef(ix.table, ix.key_columns, ix.included_columns,
                    ix.kind, ix.method)


# ----------------------------------------------------------------------
# the file discipline
# ----------------------------------------------------------------------
def test_a_saved_memo_loads_bit_for_bit_over_other_objects(tmp_path):
    memo = _memo()
    _memo_file(tmp_path).save(_tables(memo))
    (block,) = _blocks(_memo_file(tmp_path))
    # One set per distinct member set, one totals tuple per reference.
    assert len(block["sets"]) == 3
    assert len(block["refs"]) == 2
    assert len(block["entries"]) == 4

    loaded = _tables()
    fresh = _memo_file(tmp_path, [_fresh(ix) for ix in STRUCTURES])
    assert fresh.load(loaded) == 4
    expected = _sized_entries()
    assert loaded.cost_memo.keys() == expected.keys()
    for key, raw in loaded.cost_memo.items():
        assert _bits(raw) == _bits(expected[key])
        # Keys are built over the loading stage's own structures.
        members = _members(key)
        assert all(any(ix is own for own in fresh.structures)
                   for ix in members)
    # Entries that shared a totals tuple share the loaded one.
    refs = {id(raw[0]) for raw in loaded.cost_memo.values()}
    assert len(refs) == 2


def test_an_entry_naming_an_unsized_structure_is_never_written(tmp_path):
    only_unsized = {(SWEEP_REF, UNSIZED): (REF, 1, 5.0)}
    memo_file = _memo_file(tmp_path)
    memo_file.save(_tables(only_unsized))
    assert not memo_file.file.exists()
    memo_file.save(_tables({**only_unsized, **_memo()}))
    (block,) = _blocks(memo_file)
    assert len(block["entries"]) == 4


def test_a_save_appends_only_what_is_new_and_nothing_twice(tmp_path):
    memo_file = _memo_file(tmp_path)
    tables = _tables()
    assert memo_file.load(tables) == 0
    first = dict(list(_memo().items())[:3])
    tables.cost_memo.update(first)
    memo_file.save(tables)
    size = memo_file.file.stat().st_size
    memo_file.save(tables)                 # nothing new: no write
    assert memo_file.file.stat().st_size == size
    tables.cost_memo.update(_memo())
    memo_file.save(tables)
    assert [len(block["entries"]) for block in _blocks(memo_file)] == \
        [2, 2]
    # A loading stage appends only what it costed after the load, and
    # equal reference totals of two blocks load as one tuple.
    again = _tables()
    other = _memo_file(tmp_path)
    assert other.load(again) == 4
    assert again.cost_memo[(SWEEP_REF, B)][0] is \
        again.cost_memo[BASE | {C}][0]
    other.save(again)
    assert len(_blocks(memo_file)) == 2


def test_a_torn_last_line_loses_only_itself(tmp_path):
    memo_file = _memo_file(tmp_path)
    items = list(_memo().items())
    tables = _tables(items[:2])
    memo_file.save(tables)
    tables.cost_memo.update(items[2:])
    memo_file.save(tables)
    data = memo_file.file.read_bytes()
    memo_file.file.write_bytes(data[:-20])  # a writer died mid-append
    torn = _tables()
    assert _memo_file(tmp_path).load(torn) == 2
    assert torn.cost_memo.keys() == dict(items[:2]).keys()
    # The next save starts a line of its own after the torn one.
    torn.cost_memo[frozenset({HEAP, B})] = (REF, 0, 2.0)
    _memo_file(tmp_path).save(_tables(torn.cost_memo))
    reread = _tables()
    assert _memo_file(tmp_path).load(reread) == 3
    assert reread.cost_memo[frozenset({HEAP, B})] == (REF, 0, 2.0)


def test_entries_saved_before_a_distrust_never_load_again(tmp_path):
    memo_file = _memo_file(tmp_path)
    tables = _tables(_memo())
    memo_file.save(tables)
    # A statement is distrusted: the memo empties, and costing goes on.
    tables.distrusted.add(1)
    tables.cost_memo.clear()
    memo_file.save(tables)
    assert _blocks(memo_file) == []
    after = {frozenset({HEAP, B}): (REF, 1, 4.0)}
    tables.cost_memo.update(after)
    memo_file.save(tables)
    loaded = _tables()
    assert _memo_file(tmp_path).load(loaded) == 1
    assert loaded.cost_memo == after
    # A stage that distrusted a statement loads nothing, and its first
    # save starts the file over.
    wary = _tables(distrusted={0})
    wary_file = _memo_file(tmp_path)
    assert wary_file.load(wary) == 0
    wary_file.save(wary)
    assert _blocks(memo_file) == []


def test_a_structure_sized_otherwise_is_another_namespace(tmp_path):
    """Same context and statements, one structure's sized signature
    another (a partially warm estimate cache can steer deduction onto
    other sizes): nothing loads."""
    memo_file = _memo_file(tmp_path)
    memo_file.save(_tables(_memo()))
    resized = {repr(ix): ix for ix in STRUCTURES}
    resized[repr(A) + "@bytes=8192.0"] = resized.pop(repr(A))
    other = CostMemoFile(tmp_path, "ctx", STATEMENTS, resized)
    assert other.namespace != memo_file.namespace
    assert other.load(_tables()) == 0
    reordered = _memo_file(tmp_path, STRUCTURES[::-1])
    assert reordered.namespace == memo_file.namespace
    assert reordered.load(_tables()) == 4


# ----------------------------------------------------------------------
# the namespace, through advisor runs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def inputs():
    db = sales_database(scale=0.02)
    return db, sales_workload(db)


def _loads(monkeypatch) -> list:
    """Record how many entries every :meth:`CostMemoFile.load` put in
    a stage's memo."""
    loads = []
    load = CostMemoFile.load

    def recorded(memo_file, tables):
        loads.append(load(memo_file, tables))
        return loads[-1]

    monkeypatch.setattr(CostMemoFile, "load", recorded)
    return loads


def _tune(inputs, cache_dir, workload=None, **extra):
    db, wl = inputs
    session = Session(db, workload or wl, variant="dtac-both",
                      budget_fraction=0.15, cache_dir=str(cache_dir),
                      **extra)
    return session, session.tune()


def _memo_files(cache_dir) -> list:
    return sorted(cache_dir.glob("costmemo-*.json"))


def test_the_namespace_admits_only_a_bit_identical_stage(
    inputs, tmp_path, monkeypatch
):
    """The cold run writes its memo; a new session over the same stage
    loads all of it and reads its whole search from it.  Another seed,
    another (e, q) or another statement list is another namespace and
    loads nothing; reweighted statements are the same stage and load
    everything."""
    db, wl = inputs
    loads = _loads(monkeypatch)
    cold_session, cold = _tune(inputs, tmp_path)
    written = len(cold_session.stage.tables.cost_memo)
    assert loads == [0] and written > 0
    assert len(_memo_files(tmp_path)) == 1

    asked = _count_costings(monkeypatch)
    warm_session, warm = _tune(inputs, tmp_path)
    assert loads[-1] == written
    assert asked[0] == warm.delta_stats["cost_memo_hits"] > 0
    assert warm.configuration == cold.configuration
    assert warm.final_cost == cold.final_cost
    assert warm_session.stage.memo_file.namespace == \
        cold_session.stage.memo_file.namespace
    assert len(warm_session.stage.tables.cost_memo) == written

    shorter = Workload(list(wl)[:-1])
    for label, workload, extra in (
        ("seed", None, {"seed": 7}),
        ("e", None, {"e": 0.25}),
        ("statements", shorter, {}),
    ):
        session, _result = _tune(inputs, tmp_path, workload, **extra)
        assert loads[-1] == 0, label
        assert session.stage.memo_file.namespace != \
            cold_session.stage.memo_file.namespace, label
    assert len(_memo_files(tmp_path)) == 4

    session, _result = _tune(inputs, tmp_path, wl.reweighted(1.0, 25.0))
    assert loads[-1] == written
    assert session.stage.memo_file.namespace == \
        cold_session.stage.memo_file.namespace
    assert len(_memo_files(tmp_path)) == 4


def test_without_a_cache_directory_there_is_no_file(inputs):
    db, wl = inputs
    session = Session(db, wl, budget_fraction=0.15)
    session.tune()
    assert session.stage.memo_file is None


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_two_sweep_workers_on_one_namespace_both_land(
    inputs, tmp_path, two_cpus, monkeypatch
):
    """One seed, two budgets, two workers: each worker prepares the
    same stage and appends its own block to the one file under the
    lock; a warm sweep then finds every configuration both searches
    costed."""
    db, wl = inputs
    total = db.total_data_bytes()
    budgets = [0.1 * total, 0.3 * total]

    def sweep(workers):
        return Session(db, wl, variant="dtac-none",
                       cache_dir=str(tmp_path)).sweep(budgets,
                                                      workers=workers)

    cold = sweep(2)
    assert cold.engine_stats["parallel_maps"] == 1
    (path,) = _memo_files(tmp_path)
    head, *blocks = path.read_bytes().splitlines()
    assert len(blocks) == 2
    asked = _count_costings(monkeypatch)
    warm = sweep(1)
    assert [run.result.configuration for run in warm.runs] == \
        [run.result.configuration for run in cold.runs]
    # Neither search runs a costing body: the file holds both.
    assert asked[0] == warm.delta_stats["cost_memo_hits"] > 0
    assert path.read_bytes().splitlines() == [head, *blocks]
