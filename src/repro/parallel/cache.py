"""Persistent, content-addressed caches for the advisor's two replayable
computations: size estimates and what-if costs.

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

Both caches persist as JSON in the same cache directory and merge
concurrently-written entries on save, so forked sweep workers can share
one directory.  :meth:`fork_view` hands each run in a sweep its own
overlay of the pre-sweep snapshot, which keeps sharded and sequential
sweeps byte-identical (a run never observes a sibling's fresh entries).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.errors import ReproError
from repro.parallel.signature import (
    index_signature,
    sized_index_signature,
    statement_signature,
)
from repro.physical.index_def import IndexDef

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

#: fault-injection hook (see :mod:`repro.service.faults`): rebound to
#: that module's ``fire`` when a plan is installed, None otherwise.
#: Declared here (instead of importing the service package) so cache
#: saves stay import-cycle-free and cost one ``is None`` check.
FAULT_HOOK = None

#: write errors treated as disk pressure: the save is skipped, the
#: cache flips its ``degraded`` flag (the service surfaces it via
#: ``/healthz``), and the next save retries — the caches are pure
#: replay state, so losing a save costs recomputation, never
#: correctness.
_DEGRADED_ERRNOS = frozenset({errno.ENOSPC, errno.EIO})


class _PersistentJsonCache:
    """Shared machinery of the persistent caches: a string-keyed dict of
    JSON records with atomic merge-on-save, hit/miss accounting, and
    per-run snapshot views.

    Args:
        path: directory to persist into (created on first save); None
            keeps the cache in memory only.
    """

    #: file name inside the cache directory; set by subclasses.
    FILE = "cache.json"

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists() \
                and not self.path.is_dir():
            # Fail at construction, not at the first save deep inside a
            # tuning run.
            raise ReproError(
                f"cache path {self.path} exists and is not a directory"
            )
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: disk-pressure degradation: True after a save failed with
        #: ``ENOSPC``/``EIO``; cleared by the next save that succeeds.
        self.degraded = False
        self.save_errors = 0
        #: serializes fork_view/absorb/save against each other — the
        #: tuning service's per-context lanes snapshot and re-absorb
        #: the *shared* caches from different threads concurrently.
        #: (Per-entry get/put stay unlocked: runs only ever touch their
        #: own fork views, never a shared instance, on hot paths.)
        self._mutate_lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._loaded_entries: dict[str, dict] = {}
        if self.path is not None:
            self._loaded_entries = self._read_file()
            self._entries.update(self._loaded_entries)

    # ------------------------------------------------------------------
    @property
    def file(self) -> Path | None:
        return self.path / type(self).FILE if self.path is not None else None

    def _read_file(self) -> dict[str, dict]:
        file = self.file
        if file is None or not file.exists():
            return {}
        try:
            payload = json.loads(file.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        if payload.get("version") != _FORMAT_VERSION:
            return {}
        entries = payload.get("entries")
        return entries if isinstance(entries, dict) else {}

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
        self.stores += 1

    # ------------------------------------------------------------------
    def fork_view(self) -> "_PersistentJsonCache":
        """A per-run overlay of this cache's current in-memory snapshot.

        The view starts from exactly the entries this cache holds *now*
        (no file re-read, so entries persisted by concurrent runs stay
        invisible), accumulates its own puts, and saves them to the same
        directory.  Sweep orchestration hands one view to every run:
        each run then sees the identical pre-sweep state whether it
        executes in the parent or in a forked worker, which is what
        keeps sharded and sequential sweeps byte-identical.
        """
        with self._mutate_lock:
            view = type(self)(None)
            view.path = self.path
            view._entries = dict(self._entries)
            view._loaded_entries = dict(self._loaded_entries)
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
        """Persist atomically, merging with concurrent writers.

        Entries are immutable (same key -> same value), so merge order
        does not matter; the re-read + atomic replace only prevents one
        process from dropping another's fresh entries, and an exclusive
        advisory lock serializes the read-merge-replace so two sweep
        workers saving simultaneously cannot lose each other's updates
        (on platforms without ``fcntl`` the lock degrades to the
        unlocked merge).  A no-op when every entry is already on disk,
        so per-batch save calls against a large warm cache don't redo
        O(entries) JSON work.

        Disk pressure (``ENOSPC``/``EIO``) does not raise: the save is
        skipped, ``degraded`` flips (probe-and-recover — the next save
        retries and clears it), and the run continues on memory alone;
        cache entries are pure replay state, so the cost is
        recomputation, never correctness.
        """
        if self.path is None:
            return
        with self._mutate_lock:
            if all(key in self._loaded_entries for key in self._entries):
                return
            try:
                if FAULT_HOOK is not None:
                    FAULT_HOOK("cache.save", file=type(self).FILE)
                self.path.mkdir(parents=True, exist_ok=True)
                lock_fh = self._acquire_lock()
                try:
                    merged = self._read_file()
                    merged.update(self._entries)
                    payload = {
                        "version": _FORMAT_VERSION, "entries": merged
                    }
                    fd, tmp = tempfile.mkstemp(
                        dir=self.path, prefix=f".{type(self).FILE}-",
                        suffix=".tmp"
                    )
                    try:
                        with os.fdopen(fd, "w") as fh:
                            json.dump(payload, fh)
                        os.replace(tmp, self.file)
                    except BaseException:
                        try:
                            os.unlink(tmp)
                        except OSError:
                            pass
                        raise
                finally:
                    if lock_fh is not None:
                        lock_fh.close()
            except OSError as exc:
                if exc.errno not in _DEGRADED_ERRNOS:
                    raise
                self.degraded = True
                self.save_errors += 1
                return
            self._loaded_entries = dict(merged)
            self.degraded = False

    def _acquire_lock(self):
        """Exclusive advisory lock on ``<FILE>.lock`` (held until the
        returned handle is closed), or None when unavailable."""
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX
            return None
        try:
            lock_fh = open(self.path / f".{type(self).FILE}.lock", "a")
        except OSError:  # pragma: no cover - exotic filesystems
            return None
        try:
            fcntl.flock(lock_fh, fcntl.LOCK_EX)
        except OSError:  # pragma: no cover - exotic filesystems
            lock_fh.close()
            return None
        return lock_fh

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
            "save_errors": self.save_errors,
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
