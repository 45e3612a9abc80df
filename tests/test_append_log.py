"""The append log under every persisted store
(:class:`repro.parallel.cache._AppendLog`), one rule at a time, over
each of its four codecs: the size-estimate cache, the what-if cost
cache, one cost memo namespace and one selection namespace.

* a save appends only what is new, and a save with nothing new leaves
  the file alone (a selection namespace holds one line: once it is on
  file, nothing is new);
* a torn last line loses only itself;
* a corrupt, older or foreign head loads nothing, and the next save
  starts the file over;
* disk pressure (``ENOSPC``) degrades the store, and the next save
  recovers;
* a save waits for its store's lock, and two forked writers saving at
  once both land.

What each codec writes on a line is its own test's business
(``tests/test_estimation_cache.py``, ``tests/test_cost_memo_file.py``,
``tests/test_selection_file.py``).
"""

import itertools
import json
import multiprocessing
import threading
from types import SimpleNamespace

import pytest

from repro.parallel.cache import (
    CostCache,
    CostMemoFile,
    EstimationCache,
    SelectionFile,
)
from repro.physical.index_def import IndexDef
from repro.service import faults
from repro.service.faults import FaultPlan

STATEMENTS = ("select;q0", "select;q1", "insert;q2")
STRUCTURES = [IndexDef("t", (f"c{n}",)) for n in range(30)]
#: a memo key per entry number: a distinct pair of sized structures.
PAIRS = list(itertools.combinations(STRUCTURES, 2))
REF = (0.1 + 0.2, -0.0, 2.5)


class CacheStore:
    """An estimate or cost cache, its entries numbered."""

    #: whether the file holds one line, written once (a selection).
    once = False

    def __init__(self, cls, directory):
        self.cache = cls(directory)
        self.log = self.cache.log
        self.file = directory / cls.FILE
        self.lock = directory / f".{cls.FILE}.lock"
        self.head = json.dumps({"version": 2, "entries": {}}).encode()
        #: a head no cache writes: a memo file's.
        self.foreign = json.dumps({"version": 2, "namespace": "n"}).encode()

    @staticmethod
    def entry(n):
        return f"k{n}", {"v": n, "total": n / 7}

    @staticmethod
    def lines_per_save(entries):
        return entries

    def put(self, n):
        self.cache._store(*self.entry(n))

    def save(self):
        self.cache.save()

    def loaded(self) -> dict:
        """What a new store over the same file loads."""
        return type(self.cache)(self.file.parent)._entries


class MemoStore:
    """One cost memo namespace and the memo of the stage it serves."""

    once = False

    def __init__(self, directory):
        self.memo_file = CostMemoFile(directory, "ctx", STATEMENTS,
                                      {repr(ix): ix for ix in STRUCTURES})
        self.tables = SimpleNamespace(cost_memo={}, distrusted=set(),
                                      stmts=list(STATEMENTS))
        self.memo_file.load(self.tables)
        self.log = self.memo_file.log
        self.file = self.memo_file.file
        self.lock = self.file.parent / ".costmemo.lock"
        self.head = json.dumps({
            "version": 1, "namespace": self.memo_file.namespace,
        }).encode()
        #: another namespace's head.
        self.foreign = json.dumps({
            "version": 1, "namespace": "another",
        }).encode()

    @staticmethod
    def entry(n):
        return frozenset(PAIRS[n]), (REF, n % 3, n / 7)

    @staticmethod
    def lines_per_save(entries):
        return 1

    def put(self, n):
        key, raw = self.entry(n)
        self.tables.cost_memo[key] = raw

    def save(self):
        self.memo_file.save(self.tables)

    def loaded(self) -> dict:
        return MemoStore(self.file.parent).tables.cost_memo


class SelectionStore:
    """One selection namespace: its entries are the positions of the
    pool the next save writes, and the file holds the first pool saved.
    """

    once = True

    def __init__(self, directory):
        self.selection = SelectionFile(
            directory, "ctx", STATEMENTS, (True, 2),
            [f"c{n}@bytes={n * 8192.0!r}" for n in range(400)],
        )
        self.selection.load()
        self.pool = []
        self.log = self.selection.log
        self.file = self.selection.file
        self.lock = self.file.parent / ".selection.lock"
        self.head = json.dumps({
            "version": 1, "namespace": self.selection.namespace,
        }).encode()
        #: another namespace's head.
        self.foreign = json.dumps({
            "version": 1, "namespace": "another",
        }).encode()

    @staticmethod
    def entry(n):
        return n, n

    @staticmethod
    def lines_per_save(entries):
        return 1

    def put(self, n):
        self.pool.append(n)

    def save(self):
        self.selection.save(self.pool)

    def loaded(self) -> dict:
        pool = SelectionStore(self.file.parent).selection.load()
        return dict(map(self.entry, pool or ()))


@pytest.fixture(params=["estimates", "costs", "memo", "selection"])
def open_store(request):
    """A function opening the parametrized store over a directory."""
    return {
        "estimates": lambda directory: CacheStore(EstimationCache, directory),
        "costs": lambda directory: CacheStore(CostCache, directory),
        "memo": MemoStore,
        "selection": SelectionStore,
    }[request.param]


def _expected(store, numbers) -> dict:
    return dict(store.entry(n) for n in numbers)


def _saved(store, numbers):
    for n in numbers:
        store.put(n)
    store.save()


def _lines(data: bytes) -> int:
    """How many complete lines ``data`` holds, all of them whole."""
    assert data.endswith(b"\n")
    return data.count(b"\n")


def test_a_save_appends_only_what_is_new(open_store, tmp_path):
    store = open_store(tmp_path)
    _saved(store, range(3))
    first = store.file.read_bytes()
    assert first.split(b"\n", 1)[0] == store.head
    # The head, then the saved entries: a cache writes a line per
    # entry, a memo file one block per save, a selection file its pool.
    assert _lines(first) == 1 + store.lines_per_save(3)
    _saved(store, range(3, 5))
    grown = store.file.read_bytes()
    if store.once:
        # A namespace that holds its line has nothing new to write.
        assert grown == first
        assert store.loaded() == _expected(store, range(3))
    else:
        assert grown.startswith(first)
        assert _lines(grown[len(first):]) == store.lines_per_save(2)
        assert store.loaded() == _expected(store, range(5))
    # A save with nothing new, one by a store that loaded the file and
    # stored nothing since, and one by a cache's fork view that stored
    # nothing, leave the file alone.
    before = store.file.stat()
    store.save()
    again = open_store(tmp_path)
    again.save()
    if isinstance(store, CacheStore):
        store.cache.fork_view().save()
    after = store.file.stat()
    assert (after.st_size, after.st_mtime_ns) == \
        (before.st_size, before.st_mtime_ns)
    if store.once:
        return
    # A store that loaded the file appends only what it stored since.
    _saved(again, [5])
    assert _lines(store.file.read_bytes()[len(grown):]) == \
        store.lines_per_save(1)
    assert store.loaded() == _expected(store, range(6))
    # The second save wrote the two new entries and nothing else.
    store.file.write_bytes(store.head + b"\n" + grown[len(first):])
    assert store.loaded() == _expected(store, range(3, 5))


def test_a_torn_last_line_loses_only_itself(open_store, tmp_path):
    store = open_store(tmp_path)
    _saved(store, range(3))
    # The last line holds entry 3 alone — or, in a selection file,
    # the only line holds the pool.
    _saved(store, [3])
    torn = store.file.read_bytes()[:-6]  # a writer died mid-append
    store.file.write_bytes(torn)
    reloaded = open_store(tmp_path)
    kept = [] if store.once else range(3)
    assert reloaded.loaded() == _expected(store, kept)
    # The next save starts a line of its own after the torn one, and
    # writes only entry 4.
    _saved(reloaded, [4])
    data = reloaded.file.read_bytes()
    assert data.startswith(torn + b"\n")
    assert _lines(data[len(torn) + 1:]) == store.lines_per_save(1)
    assert reloaded.loaded() == _expected(store, [*kept, 4])


@pytest.mark.parametrize("kind", ["corrupt", "older", "foreign"])
def test_an_unreadable_head_loads_nothing_and_the_next_save_starts_over(
    open_store, tmp_path, kind
):
    written = open_store(tmp_path / "written")
    _saved(written, range(3))
    body = written.file.read_bytes().split(b"\n", 1)[1]
    store = open_store(tmp_path / "store")
    ours = json.loads(store.head)
    head = {
        "corrupt": b"{not json",
        "older": json.dumps({**ours, "version": ours["version"] - 1})
        .encode(),
        "foreign": store.foreign,
    }[kind]
    store.file.parent.mkdir()
    store.file.write_bytes(head + b"\n" + body)
    store = open_store(tmp_path / "store")
    assert store.loaded() == {}
    _saved(store, [3])
    data = store.file.read_bytes()
    assert data.startswith(store.head + b"\n")
    assert head not in data and body not in data
    # The head, then the one save's lines: nothing of the old file.
    assert _lines(data) == 1 + store.lines_per_save(1)
    assert store.loaded() == _expected(store, [3])


def test_disk_pressure_degrades_and_the_next_save_recovers(
    open_store, tmp_path
):
    faults.clear()
    store = open_store(tmp_path / "cache")
    for n in range(4):
        store.put(n)
    faults.install(FaultPlan.parse("cache.save:enospcx1"))
    try:
        store.save()                      # injected ENOSPC: swallowed
        assert not store.file.exists()    # fired before any byte
        assert store.log.degraded is True
        assert store.log.save_errors == 1
        store.save()                      # probe-and-recover
    finally:
        faults.clear()
    assert store.log.degraded is False
    assert store.loaded() == _expected(store, range(4))


def test_an_append_waits_for_the_lock(open_store, tmp_path):
    """Two writers that both find the file missing or unreadable would
    each start it over: a save holds its store's lock file while it
    looks at the head and appends, so a second one waits."""
    fcntl = pytest.importorskip("fcntl")
    store = open_store(tmp_path)
    store.put(0)
    with open(store.lock, "a") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        saver = threading.Thread(target=store.save)
        saver.start()
        saver.join(timeout=0.2)
        assert saver.is_alive()
        assert not store.file.exists()
    saver.join(timeout=30)
    assert not saver.is_alive()
    assert store.loaded() == _expected(store, [0])


def test_two_forked_writers_both_land(open_store, tmp_path):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)

    def writer(numbers) -> None:
        store = open_store(tmp_path)
        for n in numbers:
            store.put(n)
        barrier.wait(timeout=30)
        store.save()

    halves = (range(0, 200), range(200, 400))
    procs = [ctx.Process(target=writer, args=(half,)) for half in halves]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert not proc.is_alive()
        assert proc.exitcode == 0
    store = open_store(tmp_path)
    if store.once:
        # Neither found a line, so both wrote one; the first loads.
        assert store.loaded() in [_expected(store, half) for half in halves]
        assert len(store.file.read_bytes().splitlines()) == 3
    else:
        assert store.loaded() == _expected(store, range(400))
        # The head, then each writer's save: nothing written twice.
        assert _lines(store.file.read_bytes()) == \
            1 + 2 * store.lines_per_save(200)
    # One head line: neither writer started the file over.
    assert store.file.read_bytes().splitlines().count(store.head) == 1
