"""Append-only job journal: the durable half of the job tier, and the
one place a job's state is decided.

A job is one :class:`JobImage` — the durable fields, declared once —
and everything that ever happens to it is a **journal record**: a
``submit``, a ``state`` transition, a seq-numbered ``event``, a
``result``.  Each record kind is built by exactly one constructor
(:func:`submit_record`, :func:`state_record`, :func:`event_record`,
:func:`result_record`), appended through the matching
``JobJournal.append_*``, and folded into an image by
:meth:`JobJournal.apply` — the only code in the service that assigns a
job's durable fields.  A coordinator's own transitions, a worker's, a
boot-time :meth:`JobJournal.replay` and the live tail of other
writers' segments (:meth:`JobJournal.refresh`) all go through that one
fold, so a live view and a restart over the same records cannot
disagree.  The fold is commutative and idempotent — any delivery
order, any number of re-deliveries, same image (one bound: two writers
contesting the *same* event ``seq`` resolve first-delivered-wins, see
:meth:`JobJournal.apply`)::

    queued ──► running ──► done | failed | cancelled      (one attempt)
    running | failed attempt ──► queued @ attempt + 1      (retry requeue)

    attempt:  a record of a higher attempt supersedes everything the
              earlier attempt wrote; a lower attempt's record is stale
    rank:     within an attempt   terminal > running > queued
    tie:      same attempt and rank: the earliest ``ts`` wins

Who writes what: the coordinator writes ``submit`` and every record of
a job it executes itself; a worker writes the ``state``/``event``/
``result`` records of a job *while it holds that job's lease*; the
coordinator's watchdog and cancel paths write for a worker-run job only
once its lease is gone or dead.

Layout::

    <cache_dir>/jobs-journal/
        segment-<writer>.jsonl        one append-only file per writer
        segment-<writer>.rNNNN.jsonl  rotated (sealed) segments
        writers/<writer>.json         writer presence (pid + heartbeat)
        leases/<job_id>.json          claim records (O_EXCL create)
        cancel/<job_id>               cancel-request markers
        quarantine/<writer>           watchdog-benched workers

* **Segments.**  Every process that writes the journal — the
  coordinator and each ``repro serve --worker`` — appends to its *own*
  segment file, so concurrent writers never interleave partial lines.
  A reader merges all segments: :meth:`JobJournal.replay` rebuilds the
  full per-job picture at boot, :meth:`JobJournal.refresh` tails the
  *other* writers' segments incrementally (offset-tracked, complete
  lines only) so a live coordinator sees worker progress.

* **Leases.**  Workers claim a queued job by atomically creating
  ``leases/<job_id>.json`` (``O_CREAT | O_EXCL`` — exactly one winner)
  carrying their pid and a heartbeat timestamp.  A lease is *live*
  while its owner process exists or its heartbeat is fresher than the
  TTL; :meth:`JobJournal.lease_live` is how recovery tells "a worker is
  still running this" apart from "this job died with its process", and
  :meth:`JobJournal.dead_leases` is the watchdog's sweep input.

* **Cancel markers.**  Cancellation must reach a job running in a
  *different process*: :meth:`request_cancel` drops a marker file the
  executing side polls from its progress hook (the same one-greedy-step
  latency bound as in-process cancel).

* **Writer presence.**  A lease only exists while a worker *executes* a
  job, so it cannot tell "worker alive but idle" from "no worker".
  Every writer therefore keeps a ``writers/<writer>.json`` presence
  file (pid + heartbeat, same liveness rule as leases) — announced on
  first append or explicitly via :meth:`announce_writer`, refreshed by
  :meth:`heartbeat_writer`, removed by :meth:`close`.

* **Compaction.**  :meth:`compact` rewrites the journal keeping only a
  retained job set — called at coordinator boot, after replay applies
  the bounded-history eviction rule, and only when no *other live
  writer* exists (presence file or live lease): a live worker appends
  to its open segment file and tails ours by byte offset, so a rewrite
  under it would lose its appends to an unlinked inode and wedge its
  read offsets.  Readers additionally self-heal (:meth:`refresh`
  resets an offset that no longer lands on a record boundary) and
  writers reopen their segment if its inode changed, so even a
  mis-timed compaction degrades to a re-read, not silent loss.

Durability model: every appended line is flushed to the OS immediately,
so a ``kill -9`` of the process loses nothing already appended (the
page cache survives process death); ``fsync=True`` additionally forces
each line to stable storage for machine-crash durability.
"""

from __future__ import annotations

import json
import os
import time

from repro.errors import ServiceError
from repro.service.faults import fire

#: journal format version, embedded in every line for forward safety.
_FORMAT_VERSION = 1

#: lease heartbeats older than this are stale unless the owner pid is
#: demonstrably alive.
DEFAULT_LEASE_TTL = 30.0

#: every job state with its rank in the fold's precedence rule.
STATE_RANK = {"queued": 0, "running": 1,
              "done": 2, "failed": 2, "cancelled": 2}
JOB_STATES = tuple(STATE_RANK)
TERMINAL_STATES = frozenset(
    state for state, rank in STATE_RANK.items() if rank == 2
)

#: retry backoff base (seconds) when a submission asks for retries
#: without naming one.
DEFAULT_RETRY_BACKOFF = 0.5


class JobImage:
    """One job's durable fields — everything the journal records about
    it.  Only :meth:`JobJournal.apply` assigns them."""

    def __init__(self, job_id: str) -> None:
        self.id = job_id
        #: submit fields (first ``submit`` record wins; ``kind`` stays
        #: None while only later records of the job have been seen).
        self.kind: str | None = None
        self.context: str | None = None
        self.payload: dict = {}
        self.tenant: str = "default"
        self.priority: str = "normal"
        self.created: float | None = None
        #: guardrail routing: wall-clock budget from submission across
        #: all attempts (None = no deadline) and the transient-failure
        #: retry allowance, carried so workers enforce/consume them too.
        self.deadline_s: float | None = None
        self.retries: int = 0
        self.retry_backoff: float = DEFAULT_RETRY_BACKOFF
        #: the state machine: current attempt (0 = first run), its
        #: state, when that attempt started running and when it ended.
        self.state: str = "queued"
        self.attempt: int = 0
        self.started: float | None = None
        self.finished: float | None = None
        self.error: str | None = None
        #: the terminal failure was a deadline expiry / an interrupted
        #: run found at restart (a restart, not a tuning error).
        self.timeout: bool = False
        self.recovered: bool = False
        #: earliest start of a backoff-parked retry.
        self.not_before: float | None = None
        self.result: dict | None = None
        #: the visible event log: the gapless prefix ``seq`` 1..N, so
        #: ``events[after:]`` is everything past ``seq == after``.
        self.events: list[dict] = []
        #: seq -> event that arrived ahead of a gap, held until it fills.
        self._early: dict[int, dict] = {}
        #: order key of the state record currently deciding ``state``.
        self._won: tuple = (0, 0, float("-inf"), "")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def max_seq(self) -> int:
        """Highest event seq seen, visible or held — a writer's next
        event is ``max_seq + 1``."""
        return max(self._early, default=len(self.events))

    def seq_gapless(self) -> bool:
        """Whether every event seen is visible (the log is 1..N with no
        holes) — the crash-recovery acceptance criterion."""
        return not self._early


def submit_record(job_id: str, kind: str, context: str, payload: dict,
                  tenant: str, priority: str, created: float,
                  deadline_s: float | None = None, retries: int = 0,
                  retry_backoff: float | None = None) -> dict:
    record = {
        "rec": "submit", "job": job_id, "kind": kind,
        "context": context, "payload": payload, "tenant": tenant,
        "priority": priority, "created": created,
    }
    if deadline_s is not None:
        record["deadline_s"] = deadline_s
    if retries:
        record["retries"] = retries
    if retry_backoff is not None:
        record["retry_backoff"] = retry_backoff
    return record


def state_record(job_id: str, state: str, ts: float,
                 error: str | None = None, recovered: bool = False,
                 attempt: int = 0, timeout: bool = False,
                 not_before: float | None = None) -> dict:
    record = {"rec": "state", "job": job_id, "state": state, "ts": ts}
    if error is not None:
        record["error"] = error
    if recovered:
        record["recovered"] = True
    if attempt:
        record["attempt"] = attempt
    if timeout:
        record["timeout"] = True
    if not_before is not None:
        record["not_before"] = not_before
    return record


def event_record(job_id: str, event: dict) -> dict:
    """One seq-numbered progress event (the event carries its own
    ``seq``; the fold dedups and orders on it)."""
    return {"rec": "event", "job": job_id, "event": event}


def result_record(job_id: str, result: dict) -> dict:
    return {"rec": "result", "job": job_id, "result": result}


#: record kind -> its one constructor (``JobJournal.append_<kind>``
#: takes the same arguments).
RECORDS = {"submit": submit_record, "state": state_record,
           "event": event_record, "result": result_record}


class JournalError(ServiceError):
    """Journal directory, segment, or lease problem."""


class JobJournal:
    """One process's handle on the shared job journal.

    Args:
        root: the journal directory (created if missing).
        writer_id: this process's segment name — ``coordinator`` for
            the serving process, a unique ``worker-*`` per worker.
        fsync: force every appended line to stable storage (machine-
            crash durability); off by default — process-crash
            durability only needs the flush.
        lease_ttl: heartbeat age beyond which a lease whose owner pid
            is gone counts as dead.
        max_segment_bytes: rotate this writer's segment once it grows
            past this size (None = never): the full segment is renamed
            to ``segment-<writer>.rNNNN.jsonl`` — still matched by
            every reader's segment glob, still merged by compaction —
            and appends continue in a fresh file, so a long-lived
            coordinator never rewrites one ever-growing file.
    """

    def __init__(self, root: str, writer_id: str = "coordinator",
                 *, fsync: bool = False,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 max_segment_bytes: int | None = None) -> None:
        if not writer_id or any(c in writer_id for c in "/\\. "):
            raise JournalError(
                f"writer_id must be a simple name, got {writer_id!r}"
            )
        if max_segment_bytes is not None and max_segment_bytes < 1:
            raise JournalError(
                f"max_segment_bytes must be >= 1, got {max_segment_bytes}"
            )
        self.root = root
        self.writer_id = writer_id
        self.fsync = fsync
        self.lease_ttl = lease_ttl
        self.max_segment_bytes = max_segment_bytes
        self.leases_dir = os.path.join(root, "leases")
        self.cancel_dir = os.path.join(root, "cancel")
        self.writers_dir = os.path.join(root, "writers")
        self.quarantine_dir = os.path.join(root, "quarantine")
        for path in (root, self.leases_dir, self.cancel_dir,
                     self.writers_dir, self.quarantine_dir):
            os.makedirs(path, exist_ok=True)
        self._segment_path = os.path.join(
            root, f"segment-{writer_id}.jsonl"
        )
        #: basename prefix of every segment this writer owns (live and
        #: rotated) — refresh() must never tail its own appends.
        self._own_prefix = f"segment-{writer_id}."
        self._segment = None
        self._announced = False
        #: per-foreign-segment read offsets (refresh() tail state).
        self._offsets: dict[str, int] = {}
        #: appended-line counters (stats/tests).
        self.appended = 0
        #: completed segment rotations (also the rotated-name cursor).
        self.rotations = 0

    # ------------------------------------------------------------------
    # appending (this writer's segment)
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> dict:
        """Write one record to this writer's segment; returns it, so
        the caller folds the very dict that went to disk."""
        record["v"] = _FORMAT_VERSION
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        # Injection point *before* any byte is written: a journaling
        # layer that failed here has durably recorded nothing, which is
        # exactly what the manager's degraded-mode buffer assumes.
        fire("journal.append", writer=self.writer_id,
             job=record.get("job"))
        if not self._announced:
            self.announce_writer()
        if self._segment is not None:
            # A compaction (ours or a mis-timed foreign one) replaces
            # the segment file; appending to the old inode would write
            # into the void, so reopen by path when it changed.
            try:
                same = os.stat(self._segment_path).st_ino == \
                    os.fstat(self._segment.fileno()).st_ino
            except OSError:
                same = False
            if not same:
                self._segment.close()
                self._segment = None
        if self._segment is None:
            self._segment = open(self._segment_path, "a",
                                 encoding="utf-8")
        if self.max_segment_bytes is not None and \
                self._segment.tell() >= self.max_segment_bytes:
            self._rotate()
            self._segment = open(self._segment_path, "a",
                                 encoding="utf-8")
        self._segment.write(line)
        self._segment.flush()
        if self.fsync:
            fire("journal.fsync", writer=self.writer_id)
            os.fsync(self._segment.fileno())
        self.appended += 1
        return record

    def _rotate(self) -> None:
        """Seal the current segment under a rotated name (readers keep
        matching it; compaction keeps merging it) and leave the live
        path free for a fresh file."""
        self._close_segment()
        n = self.rotations + 1
        while True:
            target = os.path.join(
                self.root, f"segment-{self.writer_id}.r{n:04d}.jsonl"
            )
            if not os.path.exists(target):
                break
            n += 1  # pragma: no cover - survivor from a prior process
        fire("journal.rotate", writer=self.writer_id)
        os.replace(self._segment_path, target)
        self.rotations = n

    def append_submit(self, *fields, **marks) -> dict:
        """Append one ``submit`` record; arguments as
        :func:`submit_record`."""
        return self._append(submit_record(*fields, **marks))

    def append_state(self, *fields, **marks) -> dict:
        """Append one ``state`` record; arguments as
        :func:`state_record`."""
        return self._append(state_record(*fields, **marks))

    def append_event(self, *fields) -> dict:
        """Append one ``event`` record; arguments as
        :func:`event_record`."""
        return self._append(event_record(*fields))

    def append_result(self, *fields) -> dict:
        """Append one ``result`` record; arguments as
        :func:`result_record`."""
        return self._append(result_record(*fields))

    def append_mode(self, mode: str, ts: float,
                    reason: str | None = None) -> None:
        """Journal a tier-mode transition (``degraded``/``healthy``) so
        the degradation window is visible in the durable history.  Mode
        records carry no ``job`` key, so :meth:`apply` ignores them."""
        record = {"rec": "mode", "mode": mode, "ts": ts,
                  "writer": self.writer_id}
        if reason:
            record["reason"] = reason
        self._append(record)

    def _close_segment(self) -> None:
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def close(self) -> None:
        """Clean shutdown of this writer: close the segment and retire
        the presence file, so compaction elsewhere no longer waits on
        us."""
        self._close_segment()
        self.retire_writer()

    # ------------------------------------------------------------------
    # reading (all segments)
    # ------------------------------------------------------------------
    def _segment_paths(self) -> list[str]:
        try:
            names = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return []
        return [
            os.path.join(self.root, name) for name in names
            if name.startswith("segment-") and name.endswith(".jsonl")
        ]

    @staticmethod
    def _read_lines(
        path: str, start: int = 0
    ) -> tuple[list[dict], int, bool]:
        """Complete newline-terminated JSON lines from ``start``; the
        returned offset stops before any partial trailing line, so an
        in-progress append from another process is re-read whole on the
        next call.  The third element is False when a *terminated* line
        failed to parse — either a torn write, or ``start`` no longer
        lands on a record boundary (the file was rewritten under us)."""
        try:
            with open(path, "rb") as fh:
                fh.seek(start)
                blob = fh.read()
        except FileNotFoundError:
            return [], start, True
        records = []
        offset = start
        clean = True
        lines = blob.split(b"\n")
        # split()'s last element is the unterminated tail (b"" when the
        # blob ends on a newline) — never a committed record.
        for raw in lines[:-1]:
            if not raw.strip():
                offset += len(raw) + 1
                continue
            try:
                obj = json.loads(raw)
            except ValueError:
                obj = None
            if not isinstance(obj, dict):
                # A torn line means the writer died mid-append; appends
                # are sequential, so nothing after it is complete.  (A
                # parsed non-dict is a line fragment that happened to
                # be valid JSON — same misalignment case.)
                clean = False
                break
            records.append(obj)
            offset += len(raw) + 1
        return records, offset, clean

    def replay(self, new=JobImage) -> dict:
        """Merge every segment into per-job images (boot-time full
        read) — :meth:`apply` over every record; the fold does not
        depend on the order segments are read in.  ``new`` builds the
        image of a job first seen (the coordinator restores its
        ``JobRecord`` subclass straight from here)."""
        images: dict = {}
        for path in self._segment_paths():
            records, _, _ = self._read_lines(path)
            for record in records:
                self.apply(images, record, new)
        return images

    def refresh(self) -> list[dict]:
        """New complete records appended to *other* writers' segments
        since the last call (the coordinator's live tail of worker
        progress).

        Self-healing: a segment rewritten under us (compaction racing
        this reader) invalidates our byte offset — either the file is
        now shorter than the offset, or it regrew and the offset lands
        mid-line so the first terminated read fails to parse.  Both
        reset the offset to 0 and re-read the whole segment; re-applied
        records are harmless because :meth:`apply` is idempotent.
        """
        out: list[dict] = []
        for path in self._segment_paths():
            # Skip every segment this writer owns — the live one AND
            # its rotated predecessors (rotation renames the live file,
            # and re-tailing our own appends as "foreign" would be
            # wasted re-folds at best).
            if os.path.basename(path).startswith(self._own_prefix):
                continue
            start = self._offsets.get(path, 0)
            if start:
                try:
                    if os.path.getsize(path) < start:
                        start = 0
                except OSError:
                    start = 0
            records, offset, clean = self._read_lines(path, start)
            if start and not clean and not records:
                # Parse failure at a previously-valid offset: the file
                # was rewritten, not torn — restart from the top.
                records, offset, clean = self._read_lines(path, 0)
            self._offsets[path] = offset
            out.extend(records)
        return out

    @staticmethod
    def apply(images: dict, record: dict, new=JobImage) -> None:
        """Fold one journal record into a per-job image map — the one
        fold behind a boot-time :meth:`replay`, a worker's and the
        coordinator's :meth:`refresh` tails, and every writer's own
        transitions.  Commutative and idempotent: the image depends on
        the *set* of records folded, not on their order or repetition.

        * ``submit``: first write wins.
        * ``state``: a record of a higher ``attempt`` opens that
          attempt and supersedes the earlier one; a lower attempt's
          record is stale and ignored.  Within the current attempt the
          deciding record is the highest-ranked (terminal > running >
          queued), the earliest ``ts`` among equals (then state name) —
          so of **two terminal records of one attempt the earlier
          decision wins**, whichever segment it sits in.  ``error``,
          ``timeout``, ``recovered`` and ``not_before`` are the
          deciding record's; ``finished`` is its ``ts`` when terminal
          and **None on a job a later attempt has revived**;
          ``started`` is when the **current attempt** started running
          (its earliest ``running`` record; None until it runs).
        * ``event``: the first write of a seq wins — a streamer may
          already have been sent it, so this is the one rule that sees
          delivery order, and only when two writers stamp the same seq
          (a takeover of a stalled, not dead, worker); an event ahead
          of a gap is held and becomes visible once the gap fills, so
          ``image.events`` is always 1..N.
        * ``result``: last write (an attempt that completes writes the
          same bytes as any other, by the determinism contract).
        """
        job_id = record.get("job")
        if not isinstance(job_id, str):
            return
        image = images.get(job_id)
        if image is None:
            image = images[job_id] = new(job_id)
        rec = record.get("rec")
        if rec == "submit" and image.kind is None:
            image.kind = record.get("kind")
            image.context = record.get("context")
            image.payload = dict(record.get("payload") or {})
            image.tenant = record.get("tenant", "default")
            image.priority = record.get("priority", "normal")
            image.created = record.get("created")
            image.deadline_s = record.get("deadline_s")
            image.retries = int(record.get("retries", 0))
            image.retry_backoff = float(
                record.get("retry_backoff", DEFAULT_RETRY_BACKOFF)
            )
        elif rec == "state":
            state = record.get("state")
            attempt = int(record.get("attempt") or 0)
            if state not in STATE_RANK or attempt < image.attempt:
                return
            if attempt > image.attempt:
                image.attempt, image.started = attempt, None
            ts = record.get("ts")
            if state == "running" and ts is not None and (
                    image.started is None or ts < image.started):
                image.started = ts
            won = (attempt, STATE_RANK[state], -(ts or 0.0), state)
            if won > image._won:
                image._won = won
                image.state = state
                image.error = record.get("error")
                image.recovered = bool(record.get("recovered"))
                image.timeout = bool(record.get("timeout"))
                image.not_before = (
                    record.get("not_before") if state == "queued"
                    else None
                )
                image.finished = ts if state in TERMINAL_STATES else None
        elif rec == "event":
            event = record.get("event")
            seq = event.get("seq") if isinstance(event, dict) else None
            if isinstance(seq, int) and seq > len(image.events):
                image._early.setdefault(seq, event)
                while len(image.events) + 1 in image._early:
                    image.events.append(
                        image._early.pop(len(image.events) + 1)
                    )
        elif rec == "result":
            image.result = record.get("result")

    # ------------------------------------------------------------------
    # leases
    # ------------------------------------------------------------------
    def _lease_path(self, job_id: str) -> str:
        return os.path.join(self.leases_dir, f"{job_id}.json")

    def claim(self, job_id: str) -> bool:
        """Atomically claim a job for this writer; False if any lease
        exists (live or stale — takeover goes through
        :meth:`break_lease` so it stays an explicit decision)."""
        payload = json.dumps({
            "job": job_id, "writer": self.writer_id,
            "pid": os.getpid(), "heartbeat": time.time(),
        }, sort_keys=True)
        try:
            fd = os.open(self._lease_path(job_id),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        return True

    def heartbeat(self, job_id: str) -> None:
        """Refresh this writer's lease timestamp (atomic replace)."""
        path = self._lease_path(job_id)
        tmp = f"{path}.{self.writer_id}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "job": job_id, "writer": self.writer_id,
                "pid": os.getpid(), "heartbeat": time.time(),
            }, sort_keys=True))
        os.replace(tmp, path)

    def release(self, job_id: str) -> None:
        try:
            os.remove(self._lease_path(job_id))
        except FileNotFoundError:
            pass

    def lease_info(self, job_id: str) -> dict | None:
        try:
            with open(self._lease_path(job_id),
                      encoding="utf-8") as fh:
                return json.load(fh)
        except (FileNotFoundError, ValueError):
            return None

    def _owner_live(self, info: dict) -> bool:
        """Shared liveness rule for leases and writer presence: the
        owning pid is alive, or — when pid liveness cannot decide (pid
        reuse, remote filesystems) — the heartbeat is fresher than the
        TTL."""
        pid = info.get("pid")
        if isinstance(pid, int):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return False
            except PermissionError:  # pragma: no cover - exists, not ours
                return True
            else:
                return True
        heartbeat = info.get("heartbeat", 0.0)
        return (time.time() - heartbeat) < self.lease_ttl

    def lease_live(self, job_id: str) -> bool:
        """Whether a lease exists whose owner is still working."""
        info = self.lease_info(job_id)
        return info is not None and self._owner_live(info)

    def break_lease(self, job_id: str) -> bool:
        """Remove a dead lease (owner gone); False if it is live."""
        if self.lease_live(job_id):
            return False
        self.release(job_id)
        return True

    def live_leases(self) -> list[dict]:
        return [info for _, info in self.leases()
                if self._owner_live(info)]

    def dead_leases(self) -> list[tuple[str, dict]]:
        """``(job_id, info)`` of every lease whose owner is gone — the
        watchdog's sweep input (the claim path refuses takeover, so
        somebody must break these)."""
        return [(job_id, info) for job_id, info in self.leases()
                if not self._owner_live(info)]

    def leases(self) -> list[tuple[str, dict]]:
        """Every lease on disk, live or dead, as ``(job_id, info)``."""
        out = []
        try:
            names = sorted(os.listdir(self.leases_dir))
        except FileNotFoundError:
            return out
        for name in names:
            if not name.endswith(".json"):
                continue
            job_id = name[:-len(".json")]
            info = self.lease_info(job_id)
            if info is not None:
                out.append((job_id, info))
        return out

    # ------------------------------------------------------------------
    # cancel markers
    # ------------------------------------------------------------------
    def request_cancel(self, job_id: str) -> None:
        path = os.path.join(self.cancel_dir, job_id)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(str(time.time()))

    def cancel_requested(self, job_id: str) -> bool:
        return os.path.exists(os.path.join(self.cancel_dir, job_id))

    def clear_cancel(self, job_id: str) -> None:
        try:
            os.remove(os.path.join(self.cancel_dir, job_id))
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # worker quarantine
    # ------------------------------------------------------------------
    def _quarantine_path(self, writer_id: str) -> str:
        return os.path.join(self.quarantine_dir, writer_id)

    def quarantine_writer(self, writer_id: str,
                          reason: str = "") -> None:
        """Mark a writer as untrusted: its claim loop must stop taking
        jobs.  Dropped by the coordinator's watchdog after repeated
        lease breaks; persists across restarts until explicitly
        cleared (a crash-looping worker binary stays benched)."""
        with open(self._quarantine_path(writer_id), "w",
                  encoding="utf-8") as fh:
            fh.write(json.dumps({
                "writer": writer_id, "reason": reason,
                "ts": time.time(),
            }, sort_keys=True))

    def writer_quarantined(self, writer_id: str) -> bool:
        return os.path.exists(self._quarantine_path(writer_id))

    def clear_quarantine(self, writer_id: str) -> None:
        try:
            os.remove(self._quarantine_path(writer_id))
        except FileNotFoundError:
            pass

    def quarantined_writers(self) -> list[str]:
        try:
            return sorted(os.listdir(self.quarantine_dir))
        except FileNotFoundError:
            return []

    # ------------------------------------------------------------------
    # writer presence
    # ------------------------------------------------------------------
    def _writer_path(self, writer_id: str) -> str:
        return os.path.join(self.writers_dir, f"{writer_id}.json")

    def announce_writer(self) -> None:
        """Register this process as a live writer (atomic replace).
        Called implicitly on first append; workers call it eagerly at
        startup so compaction elsewhere sees them even while idle —
        leases only exist while a job executes, so without presence an
        alive-but-idle worker would be invisible."""
        path = self._writer_path(self.writer_id)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "writer": self.writer_id, "pid": os.getpid(),
                "heartbeat": time.time(),
            }, sort_keys=True))
        os.replace(tmp, path)
        self._announced = True

    def heartbeat_writer(self) -> None:
        """Refresh this writer's presence timestamp."""
        self.announce_writer()

    def retire_writer(self) -> None:
        try:
            os.remove(self._writer_path(self.writer_id))
        except FileNotFoundError:
            pass
        self._announced = False

    def writer_info(self, writer_id: str) -> dict | None:
        try:
            with open(self._writer_path(writer_id),
                      encoding="utf-8") as fh:
                return json.load(fh)
        except (FileNotFoundError, ValueError):
            return None

    def writer_live(self, writer_id: str) -> bool:
        """Same liveness rule as :meth:`lease_live`."""
        info = self.writer_info(writer_id)
        return info is not None and self._owner_live(info)

    def live_writers(self) -> list[dict]:
        out = []
        try:
            names = sorted(os.listdir(self.writers_dir))
        except FileNotFoundError:
            return out
        for name in names:
            if not name.endswith(".json"):
                continue
            writer_id = name[:-len(".json")]
            if self.writer_live(writer_id):
                info = self.writer_info(writer_id)
                if info is not None:
                    out.append(info)
        return out

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, keep_ids: "set[str] | frozenset[str]") -> bool:
        """Rewrite the journal so only ``keep_ids`` survive, merging
        every segment into this writer's own.

        Boot-time only: refuses (returns False) while any other *live
        writer* exists — a presence file with a live owner, or a live
        lease (belt and braces for writers that never announced).  A
        live worker appends to its open segment file and tails ours by
        byte offset; rewriting either under it would lose appends to an
        unlinked inode and wedge its offsets.  Dead writers' presence
        files are swept instead.  The caller re-derives ``keep_ids``
        from the same replay it restores state from, which keeps
        on-disk history exactly consistent with the in-memory
        bounded-history eviction."""
        for info in self.live_writers():
            if info.get("writer") != self.writer_id:
                return False
        for info in self.live_leases():
            if info.get("writer") != self.writer_id:
                return False
        kept: list[dict] = []
        for path in self._segment_paths():
            records, _, _ = self._read_lines(path)
            kept.extend(
                record for record in records
                if record.get("job") in keep_ids
            )
        self._close_segment()
        tmp = self._segment_path + ".compact"
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in kept:
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._segment_path)
        for path in self._segment_paths():
            if path != self._segment_path:
                os.remove(path)
                self._offsets.pop(path, None)
        # Stale leases and cancel markers of dropped jobs go with them.
        for directory in (self.leases_dir, self.cancel_dir):
            for name in os.listdir(directory):
                job_id = name[:-len(".json")] \
                    if name.endswith(".json") else name
                if job_id not in keep_ids:
                    try:
                        os.remove(os.path.join(directory, name))
                    except FileNotFoundError:  # pragma: no cover
                        pass
        # Dead writers' presence files: their segments were just merged
        # away, so retire the corpses too.
        for name in os.listdir(self.writers_dir):
            if not name.endswith(".json"):
                continue
            writer_id = name[:-len(".json")]
            if writer_id != self.writer_id and \
                    not self.writer_live(writer_id):
                try:
                    os.remove(os.path.join(self.writers_dir, name))
                except FileNotFoundError:  # pragma: no cover
                    pass
        return True

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "root": self.root,
            "writer": self.writer_id,
            "appended": self.appended,
            "segments": len(self._segment_paths()),
            "rotations": self.rotations,
            "live_leases": len(self.live_leases()),
            "live_writers": len(self.live_writers()),
            "quarantined": self.quarantined_writers(),
        }
