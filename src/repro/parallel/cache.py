"""Persistent state for the advisor's four replayable computations:
size estimates, what-if costs, and a prepared stage's per-query
selection and cost memo.

Size estimation is the advisor's dominant cost on estimation-heavy
workloads; what-if costing dominates enumeration-heavy ones (budget
sweeps re-cost the same statement x configuration pairs run after run).
Both computations are pure functions of explicitly enumerable inputs, so
both can be persisted and replayed across processes and runs:

* :class:`EstimationCache` keys each :class:`SizeEstimate` on

      index signature x compression method x sample fingerprint x (e, q)

  (the method is part of the index signature and is *also* stored as an
  explicit field, so an entry can never alias two structures that differ
  only in compression).  Semantics: a hit replays the estimate that an
  identical earlier request produced.  A fully warm cache therefore
  reproduces the earlier run's recommendations exactly; a partially warm
  cache may shrink later estimation batches, which can steer deduction
  planning differently than a cold run — still a valid estimate, just
  not bit-for-bit the cold one.

* :class:`CostCache` keys each what-if :class:`CostBreakdown` on

      statement signature x relevant structures *with their estimated
      sizes* x context fingerprint (data + accuracy + cost constants)

  Because the estimated bytes/rows of every relevant structure are part
  of the key, a hit is always consistent with the sizes the current run
  would feed the cost model: costing is per-(statement, configuration)
  pure, so — unlike size estimates — a cost-cache hit can *never* steer
  a run onto a different result, warm or cold.

* :class:`CostMemoFile` persists the raw layer of one prepared stage's
  cost memo (configuration -> per-statement totals, see
  :mod:`repro.optimizer.delta`): the costings a whole search asked for,
  not single statements.  Its keys name structures without sizes, so
  the file is a *namespace*: one file per digest of the cost context,
  the statements and the sized signature of every structure the stage
  sized.  An entry can only load into a stage whose sizes are
  bit-identical to the writer's — a partially warm estimate cache that
  steered deduction elsewhere is another namespace — and a new process
  over the same stage reads its search instead of recosting it.

* :class:`SelectionFile` persists one stage's per-query candidate
  selection (the pool before merging) as positions among its per-query
  candidates, one file per digest of the cost context, the statements,
  the pool-shaping options and every candidate's size, so a new process
  over the same stage skips costing every candidate of every query.

Every file in the cache directory is written and read through one
append log (:class:`_AppendLog`), which owns the file discipline — the
lock, the head line, torn lines, the one parse, the ``cache.save``
fault hook, disk pressure — and the health of the saves; the four
stores above are codecs that only encode and decode lines.  Both caches
write a head line ``{"version": 2, "entries": {...}}``, then one ``[key,
record]`` line per entry, so a save costs its new entries, never the
whole file; a file the single-object layout wrote is a valid head line:
it loads, and later saves append to it.  :meth:`fork_view` hands each
run in a sweep its own overlay of the pre-sweep snapshot, which keeps
sharded and sequential sweeps byte-identical (a run never observes a
sibling's fresh entries).  A memo file writes one block line per save,
a selection file one line per namespace.
"""

from __future__ import annotations

import collections
import errno
import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.checks import check_path
from repro.errors import ReproError
from repro.parallel.signature import (
    index_signature,
    sized_index_signature,
    statement_signature,
)
from repro.physical.index_def import IndexDef

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: unlocked appends
    fcntl = None

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.sizeest
    from repro.optimizer.statement_cost import CostBreakdown
    from repro.sizeest.samplecf import SizeEstimate
    from repro.workload.query import Statement

CACHE_FILE = "estimates.json"
COST_CACHE_FILE = "costs.json"
#: bumped whenever the *meaning* of a key changes, so files written
#: under the old scheme are dropped on load instead of being merged
#: forward as entries that can never hit.  2: the sample fingerprint
#: became column-wise (Table.content_digest); 1: row-wise fingerprint.
_FORMAT_VERSION = 2
#: the head line a cache's save starts a new (or unreadable) file with.
_HEAD = json.dumps({"version": _FORMAT_VERSION, "entries": {}}).encode()

#: fault-injection hook (see :mod:`repro.service.faults`): rebound to
#: that module's ``fire`` when a plan is installed, None otherwise.
#: Declared here (instead of importing the service package) so cache
#: saves stay import-cycle-free and cost one ``is None`` check.
FAULT_HOOK = None

#: write errors treated as disk pressure (see :class:`_AppendLog`).
_DEGRADED_ERRNOS = frozenset({errno.ENOSPC, errno.EIO})


class _AppendLog:
    """The one file discipline under every persisted store: append-only
    JSON-lines files in one cache directory, and the health of the
    saves made through it.

    A file's first line is a head that names its format; what follows
    is the store's own.  The rules:

    * An append is one write under an exclusive ``flock`` on the lock
      file its store names, so concurrent writers (forked sweep
      workers) never interleave or lose each other's lines.  Under the
      lock it re-reads the first line only: one that fails the store's
      head predicate (missing, corrupt, older or foreign) starts the
      file over with the store's head, and a file that does not end in
      a newline (a torn last line, or the single-object layout) gets
      one before the new lines.
    * A read parses every complete line in one C-level ``json.loads``,
      and only when a line is torn (a writer died mid-append) line by
      line, skipping it.  A first line that fails the predicate loads
      nothing.  The log keeps no copy of what it reads.
    * An append fires the ``cache.save`` fault hook first, then creates
      the directory.  Disk pressure (``ENOSPC``/``EIO``) does not
      raise: the append is dropped, ``degraded`` flips and
      ``save_errors`` counts it, and the next append that lands clears
      it (the store keeps what it could not write for that one).  The
      stores are pure replay state, so a lost save costs recomputation,
      never correctness.

    Health has one owner: a cache's fork views share its log, and a
    stage's memo file writes through the log of the cost cache it is
    opened from, so the ``degraded`` flag of the caches a holder keeps
    (the tuning service's ``/healthz``) sees every save made below them.

    Args:
        directory: the cache directory, created by the first append;
            an empty path or an existing non-directory is an error.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.path = Path(check_path("cache path", directory))
        if self.path.exists() and not self.path.is_dir():
            # Fail at construction, not at the first save deep inside a
            # tuning run.
            raise ReproError(
                f"cache path {self.path} exists and is not a directory"
            )
        self.degraded = False
        self.save_errors = 0

    def read(self, name: str, head_ok) -> list:
        """The JSON values of file ``name``'s complete lines, its head
        first; empty when the file is missing or its first line fails
        ``head_ok``."""
        try:
            data = (self.path / name).read_bytes()
        except OSError:
            return []
        if not head_ok(data.partition(b"\n")[0]):
            return []
        lines = [line for line in data.split(b"\n") if line]
        try:
            return json.loads(b"[" + b",".join(lines) + b"]")
        except ValueError:
            values = []
            for line in lines:
                try:
                    values.append(json.loads(line))
                except ValueError:
                    pass
            return values

    def append(self, name: str, lock: str, lines: bytes, head: bytes,
               head_ok) -> bool:
        """Append ``lines`` (complete lines) to file ``name`` under the
        lock file ``lock``, starting the file over with the line
        ``head`` when its first line fails ``head_ok``.  False when
        disk pressure dropped the append."""
        try:
            if FAULT_HOOK is not None:
                FAULT_HOOK("cache.save", file=name)
            self.path.mkdir(parents=True, exist_ok=True)
            with open(self.path / lock, "a") as lock_fh:
                if fcntl is not None:
                    fcntl.flock(lock_fh, fcntl.LOCK_EX)
                with open(self.path / name, "a+b") as fh:
                    fh.seek(0)
                    if not head_ok(fh.readline().rstrip(b"\n")):
                        fh.truncate(0)
                        lines = head + b"\n" + lines
                    else:
                        fh.seek(-1, os.SEEK_END)
                        if fh.read(1) != b"\n":
                            lines = b"\n" + lines
                    fh.write(lines)
        except OSError as exc:
            if exc.errno not in _DEGRADED_ERRNOS:
                raise
            self.degraded = True
            self.save_errors += 1
            return False
        self.degraded = False
        return True


def _head_ok(line: bytes) -> bool:
    """Whether ``line`` is a cache head in the current format."""
    try:
        head = json.loads(line)
    except ValueError:
        return False
    return isinstance(head, dict) \
        and head.get("version") == _FORMAT_VERSION \
        and isinstance(head.get("entries"), dict)


class _PersistentJsonCache:
    """Shared machinery of the persistent caches: a string-keyed dict of
    JSON records that a save appends to its file, hit/miss accounting,
    and per-run snapshot views.

    Args:
        path: directory to persist into (created on first save); None
            keeps the cache in memory only.
    """

    #: file name inside the cache directory; set by subclasses.
    FILE = "cache.json"

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        #: the cache directory's log (None: in memory only), shared by
        #: every fork view of this cache.
        self.log = _AppendLog(path) if path is not None else None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: serializes fork_view/absorb/save against each other — the
        #: tuning service's per-context lanes snapshot and re-absorb
        #: the *shared* caches from different threads concurrently.
        #: (Per-entry get/put stay unlocked: runs only ever touch their
        #: own fork views, never a shared instance, on hot paths.)
        self._mutate_lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        #: entries stored since the last save: what the next one appends.
        self._unsaved: dict[str, dict] = {}
        if self.log is not None:
            self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        values = self.log.read(self.FILE, _head_ok)
        if not values:
            return
        self._entries = values[0]["entries"]
        try:
            self._entries.update(itertools.islice(values, 1, None))
        except (ValueError, TypeError):
            # A line that is not a [key, record] pair loads nothing.
            for line in itertools.islice(values, 1, None):
                if isinstance(line, list) and len(line) == 2 \
                        and isinstance(line[0], str):
                    self._entries[line[0]] = line[1]

    @property
    def degraded(self) -> bool:
        """Whether the last save through this cache's log (its own, a
        fork view's or a memo file's) met disk pressure."""
        return self.log is not None and self.log.degraded

    # ------------------------------------------------------------------
    def _lookup(self, key: str) -> dict | None:
        record = self._entries.get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def _store(self, key: str, record: dict) -> None:
        self._entries[key] = record
        self._unsaved[key] = record
        self.stores += 1

    # ------------------------------------------------------------------
    def fork_view(self) -> "_PersistentJsonCache":
        """A per-run overlay of this cache's current in-memory snapshot.

        The view starts from exactly the entries this cache holds *now*
        (no file re-read, so entries persisted by concurrent runs stay
        invisible), accumulates its own puts, and saves them — with the
        ones this cache has not saved yet — through the same log.
        Sweep orchestration hands one view to every run: each run then
        sees the identical pre-sweep state whether it executes in the
        parent or in a forked worker, which is what keeps sharded and
        sequential sweeps byte-identical.
        """
        with self._mutate_lock:
            view = type(self)(None)
            view.log = self.log
            view._entries = dict(self._entries)
            view._unsaved = dict(self._unsaved)
            return view

    def absorb(self, view: "_PersistentJsonCache") -> int:
        """Merge a view's entries back into this cache (the reverse of
        :meth:`fork_view`), returning how many were new.

        Entries are immutable (same key -> same value), so absorption
        only ever *adds* keys; the tuning service uses this to let a
        completed run warm the next one where that is provably safe
        (what-if cost entries — a cost hit can never steer a run)."""
        added = 0
        with self._mutate_lock:
            for key, record in view._entries.items():
                if key not in self._entries:
                    self._entries[key] = record
                    added += 1
        return added

    # ------------------------------------------------------------------
    def save(self) -> None:
        """Append the entries stored since the last save to the file,
        one ``[key, record]`` line each, through the log (a no-op when
        nothing was stored since).  Entries are immutable (same key ->
        same value), so a key on two lines loads once; entries an
        append could not write stay for the next save."""
        if self.log is None:
            return
        with self._mutate_lock:
            if not self._unsaved:
                return
            pending, self._unsaved = self._unsaved, {}
            saved = False
            try:
                saved = self.log.append(
                    self.FILE, f".{self.FILE}.lock", "".join(
                        json.dumps([key, record]) + "\n"
                        for key, record in pending.items()
                    ).encode(), _HEAD, _head_ok,
                )
            finally:
                if not saved:
                    self._unsaved = {**pending, **self._unsaved}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self, since: "dict | None" = None) -> dict:
        """Counters and gauges of this cache; with ``since`` (an earlier
        :meth:`stats` of the same object) the lookups and stores made
        after it, the gauges as they stand now."""
        since = since or {}
        hits = self.hits - since.get("hits", 0)
        misses = self.misses - since.get("misses", 0)
        return {
            "entries": len(self._entries),
            "hits": hits,
            "misses": misses,
            "stores": self.stores - since.get("stores", 0),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "degraded": self.degraded,
            "save_errors": self.log.save_errors if self.log is not None else 0,
        }


class EstimationCache(_PersistentJsonCache):
    """Content-addressed cache of :class:`SizeEstimate` records."""

    FILE = CACHE_FILE

    # ------------------------------------------------------------------
    @staticmethod
    def key(index: IndexDef, fingerprint: str, e: float, q: float) -> str:
        return f"{index_signature(index)}|fp={fingerprint}|e={e!r}|q={q!r}"

    def get(
        self, index: IndexDef, fingerprint: str, e: float, q: float
    ) -> "SizeEstimate | None":
        """The cached estimate for an identical earlier request, or None."""
        from repro.sizeest.error_model import ErrorRV
        from repro.sizeest.samplecf import SizeEstimate

        record = self._lookup(self.key(index, fingerprint, e, q))
        if record is None:
            return None
        return SizeEstimate(
            index=index,
            est_bytes=record["est_bytes"],
            compression_fraction=record["compression_fraction"],
            source=record["source"],
            error=ErrorRV(mean=record["error_mean"], var=record["error_var"]),
            cost=record["cost"],
            fraction=record.get("fraction", 0.0),
        )

    def put(
        self,
        index: IndexDef,
        fingerprint: str,
        e: float,
        q: float,
        estimate: "SizeEstimate",
    ) -> None:
        self._store(self.key(index, fingerprint, e, q), {
            "method": index.method.value,
            "est_bytes": estimate.est_bytes,
            "compression_fraction": estimate.compression_fraction,
            "source": estimate.source,
            "error_mean": estimate.error.mean,
            "error_var": estimate.error.var,
            "cost": estimate.cost,
            "fraction": estimate.fraction,
        })


class CostCache(_PersistentJsonCache):
    """Content-addressed cache of what-if :class:`CostBreakdown` records.

    The key spells out everything the cost model can observe: the
    statement, each relevant structure's method-inclusive signature
    *with its estimated (bytes, rows)*, and a context fingerprint that
    digests the data, the accuracy constraint behind the sizes, and the
    cost constants.  Two hypothetical configurations that differ only in
    compression method therefore can never alias one entry, and an entry
    computed against one set of size estimates can never be replayed
    against another.

    Persisted records keep ``total``/``io``/``cpu``/``used_mv``; access
    ``plans`` are not persisted (a replayed breakdown carries an empty
    plan tuple — the advisor consumes totals only).
    """

    FILE = COST_CACHE_FILE

    # ------------------------------------------------------------------
    @staticmethod
    def key(
        statement: "Statement",
        sized_indexes: Iterable[tuple[IndexDef, float, float]],
        context: str,
    ) -> str:
        """Digest of ``statement x sorted sized-structure signatures x
        context`` (hashed: a sweep persists tens of thousands of cost
        entries, and the spelled-out material runs ~half a KiB each).

        Args:
            statement: the statement being costed.
            sized_indexes: ``(index, est_bytes, est_rows)`` for every
                structure the statement's cost can depend on.
            context: fingerprint of run-level cost inputs (sampled data,
                accuracy constraint, cost constants).
        """
        return CostCache.key_from_signatures(
            statement,
            [
                sized_index_signature(ix, est_bytes, est_rows)
                for ix, est_bytes, est_rows in sized_indexes
            ],
            context,
        )

    @staticmethod
    def key_from_signatures(
        statement: "Statement",
        sized_signatures: Iterable[str],
        context: str,
    ) -> str:
        """Same key, from precomputed :func:`sized_index_signature`
        strings (the optimizer memoizes them per structure)."""
        material = (
            statement_signature(statement)
            + "||" + "|".join(sorted(sized_signatures))
            + "||ctx=" + context
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def get(self, key: str) -> "CostBreakdown | None":
        """The replayed breakdown for an identical earlier costing, or
        None (``plans`` is empty on a replay)."""
        replayed = self.get_with_plans(key)
        return replayed[0] if replayed is not None else None

    def get_with_plans(
        self, key: str
    ) -> "tuple[CostBreakdown, tuple[float, ...] | None] | None":
        """Replayed (breakdown, chosen per-table plan costs) — the plan
        costs feed the delta coster's access-path probes; None plan
        costs mean an entry persisted before they were recorded (or a
        statement that has none), which only disables probe reuse, not
        the replay itself."""
        from repro.optimizer.statement_cost import CostBreakdown

        record = self._lookup(key)
        if record is None:
            return None
        breakdown = CostBreakdown(
            total=record["total"],
            io=record["io"],
            cpu=record["cpu"],
            used_mv=record.get("used_mv", False),
        )
        plan_costs = record.get("plan_costs")
        return breakdown, (
            tuple(plan_costs) if plan_costs is not None else None
        )

    def put(self, key: str, breakdown: "CostBreakdown") -> None:
        record = {
            "total": breakdown.total,
            "io": breakdown.io,
            "cpu": breakdown.cpu,
            "used_mv": breakdown.used_mv,
        }
        if breakdown.plans:
            # JSON round-trips Python floats exactly (repr-based), so a
            # replayed plan cost compares bit-identically in probes.
            record["plan_costs"] = [plan.cost for plan in breakdown.plans]
        self._store(key, record)


#: bumped whenever a memo entry's meaning or encoding changes; part of
#: every namespace, so files of another format are never opened.
_MEMO_FORMAT_VERSION = 1
#: errors a block that parses as JSON but is not one this format wrote
#: raises while it decodes: the block loads nothing.
_BAD_BLOCK = (IndexError, KeyError, TypeError, ValueError)


class CostMemoFile:
    """The raw layer of one prepared stage's cost memo
    (:attr:`repro.optimizer.delta.PlanTables.cost_memo`), persisted: a
    raw entry is a pure function of (configuration, stage), so it may
    outlive its process wherever the stage is rebuilt with bit-identical
    sizes.

    One append-only JSON-lines file per namespace,
    ``costmemo-<namespace>.json`` in the cache directory: a head line
    ``{"version": 1, "namespace": ...}``, then one line per save, a
    *block*::

        {"totals": [total, ...], "sets": [[n, ...], ...],
         "refs": [[t, ...], ...],
         "entries": [[set, n | null, ref, si, t, si, t, ...], ...]}

    A structure is its number ``n``, its position among the stage's
    sized structures in signature order; a total is its position ``t``
    in ``totals``, which holds each distinct total of the block once
    (a sales search repeats each about ten times); ``sets`` holds each
    member frozenset of the block once and ``refs`` each
    reference-totals tuple once.  An entry is its key — a set, or (a
    set, the added secondary ``n``) for the sweep shape — then the raw
    tuple: its reference's totals and the flat (statement, total)
    pairs.  JSON writes a float as its ``repr``, so every total
    round-trips bit for bit, and the loaded entries share one float
    object per distinct total.  An entry that names a structure
    outside the sized set is never written: its size is not in the
    namespace.

    :meth:`load` fills a stage's memo from the file (keys rebuilt over
    the stage's own :class:`IndexDef` objects, equal reference totals
    shared) and keeps no copy of it; :meth:`save` appends the entries
    stored since the last save as one block, through the log under the
    directory's ``.costmemo.lock``.  A stage that distrusted a
    statement loads nothing, and its next save starts the file over, so
    entries built before a distrust never load again.

    Args:
        directory: the cache directory, or the log of the cost cache
            the stage costs through (then a failed save reports into
            that cache's health).
        context: the stage's cost context (sample fingerprint, accuracy
            constraint, estimator settings, cost constants).
        statements: the stage's statement signatures, in order.
        sized: :func:`sized_index_signature` -> structure, for every
            structure the stage sized.
    """

    def __init__(self, directory: "str | os.PathLike | _AppendLog",
                 context: str, statements: Iterable[str],
                 sized: "dict[str, IndexDef]") -> None:
        signatures = sorted(sized)
        #: the namespace: a digest of the format version, the context,
        #: the statements and the sized signatures, so an entry only
        #: ever loads into a stage whose sizes are bit-identical.
        self.namespace = hashlib.sha256("\n".join([
            f"costmemo v{_MEMO_FORMAT_VERSION}", context, *statements, "",
            *signatures,
        ]).encode()).hexdigest()
        self.log = directory if isinstance(directory, _AppendLog) \
            else _AppendLog(directory)
        self.file = self.log.path / f"costmemo-{self.namespace}.json"
        self.structures = [sized[sig] for sig in signatures]
        self._numbers = {ix: n for n, ix in enumerate(self.structures)}
        self._head = json.dumps({
            "version": _MEMO_FORMAT_VERSION, "namespace": self.namespace,
        }).encode()
        #: memo entries, in insertion order, that are on file already.
        self._saved = 0
        #: distrusted statements at the last save or load.
        self._distrusted = 0

    # ------------------------------------------------------------------
    def load(self, tables) -> int:
        """Put every entry on file into ``tables.cost_memo`` (the memo of
        a stage that has costed nothing yet) and return how many the
        memo now holds; nothing when a statement is distrusted."""
        memo = tables.cost_memo
        if not tables.distrusted:
            shared: dict = {}
            blocks = self.log.read(self.file.name, self._head.__eq__)
            for block in itertools.islice(blocks, 1, None):
                try:
                    memo.update(self._decode(
                        block, len(tables.stmts), shared
                    ))
                except _BAD_BLOCK:
                    pass
        self._saved = len(memo)
        return self._saved

    def _decode(self, block: dict, statements: int, shared: dict) -> dict:
        """One block's entries, keyed over this stage's structures;
        ``shared`` interns equal reference totals across blocks."""
        structures = self.structures
        values = block["totals"]
        if not all(type(value) is float for value in values):
            raise ValueError("a total that is not a float")
        sets = []
        for row in block["sets"]:
            if row and min(row) < 0:
                raise ValueError("structure number out of range")
            sets.append(frozenset([structures[n] for n in row]))
        refs = []
        for row in block["refs"]:
            if len(row) != statements or row and min(row) < 0:
                raise ValueError("totals of another statement count")
            totals = tuple([values[v] for v in row])
            refs.append(shared.setdefault(totals, totals))
        total_at = values.__getitem__
        entries = {}
        for s, n, r, *pairs in block["entries"]:
            changed, totals = pairs[::2], pairs[1::2]
            if min(s, r, n or 0, *changed, *totals, 0) < 0 \
                    or len(changed) != len(totals) \
                    or changed and max(changed) >= statements:
                raise ValueError("number out of range")
            key = sets[s] if n is None else (sets[s], structures[n])
            entries[key] = (refs[r], *itertools.chain.from_iterable(
                zip(changed, map(total_at, totals))
            ))
        return entries

    # ------------------------------------------------------------------
    def save(self, tables) -> None:
        """Append the entries ``tables.cost_memo`` stored since the last
        save or load as one block (a no-op when there are none); after
        a distrust, start the file over with the memo as it stands."""
        memo = tables.cost_memo
        distrusted = len(tables.distrusted)
        restart = distrusted != self._distrusted
        if not restart and len(memo) <= self._saved:
            return
        block = self._encode(itertools.islice(
            memo.items(), 0 if restart else self._saved, None
        ))
        # A missing or foreign head, or a restart, starts the file over;
        # an append that disk pressure dropped leaves everything for the
        # next save (an entry on two lines loads once).
        if (block or restart) and not self.log.append(
            self.file.name, ".costmemo.lock", block, self._head,
            lambda head: not restart and head == self._head,
        ):
            return
        self._saved = len(memo)
        self._distrusted = distrusted

    def _encode(self, items) -> bytes:
        """The block line of ``items`` (memo ``(key, raw)`` pairs), or
        nothing when every entry names an unsized structure."""
        # A structure's number by object first: equal structures are
        # often other objects, and IndexDef equality runs in Python.
        numbers: dict = {}

        def number(ix: IndexDef) -> "int | None":
            n = numbers.get(id(ix), -1)
            if n == -1:
                n = numbers[id(ix)] = self._numbers.get(ix)
            return n

        # Distinct total -> its position, in order; a zero is keyed by
        # its repr, since -0.0 == 0.0 but their bits differ.
        position = collections.defaultdict(itertools.count().__next__)
        sets: dict = {}  # id(frozenset) -> its position, or None: unsized
        set_rows: list = []
        refs: dict = {}  # id(totals tuple) -> its position
        ref_rows: list = []
        entries: list = []
        for key, raw in items:
            if type(key) is tuple:
                members, added = key
                n = number(added)
                if n is None:
                    continue
            else:
                members, n = key, None
            s = sets.get(id(members), -1)
            if s == -1:
                row = [number(ix) for ix in members]
                s = None if None in row else len(set_rows)
                if s is not None:
                    set_rows.append(sorted(row))
                sets[id(members)] = s
            if s is None:
                continue
            ref = raw[0]
            r = refs.get(id(ref))
            if r is None:
                r = refs[id(ref)] = len(ref_rows)
                ref_rows.append([position[t if t else repr(t)] for t in ref])
            row = [s, n, r]
            row += itertools.chain.from_iterable(zip(raw[1::2], [
                position[t if t else repr(t)] for t in raw[2::2]
            ]))
            entries.append(row)
        if not entries:
            return b""
        totals = [float(t) if type(t) is str else t for t in position]
        return json.dumps(
            {"totals": totals, "sets": set_rows, "refs": ref_rows,
             "entries": entries},
            separators=(",", ":"),
        ).encode() + b"\n"


#: bumped whenever a selection line's meaning or encoding changes; part
#: of every namespace, so files of another format are never opened.
_SELECTION_FORMAT_VERSION = 1


class SelectionFile:
    """One prepared stage's per-query candidate selection, persisted:
    the top-k or skyline picks of every query (Section 6.1), merged
    into the pool that merging starts from.  The selection is a pure
    function of the stage's per-query candidates, their sizes and the
    cost model, so it may outlive its process wherever the stage is
    rebuilt over the same candidates with bit-identical sizes.

    One append-only JSON-lines file per namespace,
    ``selection-<namespace>.json`` in the cache directory: a head line
    ``{"version": 1, "namespace": ...}``, then one line
    ``{"pool": [n, ...]}``, the pool as positions among the stage's
    unique per-query candidates in pool order.  The namespace digests
    every input the selection depends on, so the line of a namespace
    never changes: :meth:`load` reads the first valid one, and
    :meth:`save` writes nothing over a namespace it found a line in.
    Two writers that both found none (forked sweep workers on one
    stage) each append an equal line.

    Args:
        directory: the cache directory, or the log of the cost cache
            the stage costs through (then a failed save reports into
            that cache's health).
        context: the stage's cost context (sample fingerprint, accuracy
            constraint, estimator settings, cost constants).
        statements: the stage's statement signatures, in order.
        options: the stage's pool-shaping option values, in one fixed
            order.
        candidates: each unique per-query candidate's signature with
            its size, in candidate order.
    """

    def __init__(self, directory: "str | os.PathLike | _AppendLog",
                 context: str, statements: Iterable[str],
                 options: Iterable, candidates: Iterable[str]) -> None:
        candidates = list(candidates)
        self.namespace = hashlib.sha256("\n".join([
            f"selection v{_SELECTION_FORMAT_VERSION}", context,
            *statements, "", repr(tuple(options)), "", *candidates,
        ]).encode()).hexdigest()
        self.log = directory if isinstance(directory, _AppendLog) \
            else _AppendLog(directory)
        self.file = self.log.path / f"selection-{self.namespace}.json"
        self._count = len(candidates)
        self._head = json.dumps({
            "version": _SELECTION_FORMAT_VERSION,
            "namespace": self.namespace,
        }).encode()
        #: whether the file holds this namespace's line (found or saved).
        self._on_file = False

    def load(self) -> "list[int] | None":
        """The pool on file — distinct positions among the candidates —
        or None when no line holds one."""
        lines = self.log.read(self.file.name, self._head.__eq__)
        for line in itertools.islice(lines, 1, None):
            pool = line.get("pool") if isinstance(line, dict) else None
            if isinstance(pool, list) \
                    and all(type(n) is int and 0 <= n < self._count
                            for n in pool) \
                    and len(set(pool)) == len(pool):
                self._on_file = True
                return pool
        return None

    def save(self, pool: "list[int]") -> None:
        """Append ``pool`` as the namespace's line, through the log
        under the directory's ``.selection.lock`` (a no-op once the file
        holds one; an append disk pressure dropped writes nothing)."""
        if self._on_file:
            return
        self._on_file = self.log.append(
            self.file.name, ".selection.lock",
            json.dumps({"pool": pool}, separators=(",", ":")).encode()
            + b"\n",
            self._head, self._head.__eq__,
        )
