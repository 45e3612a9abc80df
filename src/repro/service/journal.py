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
job's durable fields.  The serving process's own transitions and a
boot-time :meth:`JobJournal.replay` go through that one fold, so a live
view and a restart over the same records cannot disagree.  The fold is
commutative and idempotent — any delivery order, any number of
re-deliveries, same image::

    queued ──► running ──► done | failed | cancelled      (one attempt)
    running | failed attempt ──► queued @ attempt + 1      (retry requeue)

    attempt:  a record of a higher attempt supersedes everything the
              earlier attempt wrote; a lower attempt's record is stale
    rank:     within an attempt   terminal > running > queued
    tie:      same attempt and rank: the earliest ``ts`` wins

The serving process is the journal's only writer.  Layout::

    <cache_dir>/jobs-journal/
        segment-coordinator.jsonl        the live, append-only segment

* **Replay** merges every ``segment-*.jsonl`` in the directory, so a
  journal written by an older version — which sealed rotated
  ``segment-coordinator.rNNNN.jsonl`` segments, and whose worker
  processes each kept a ``segment-<worker>.jsonl`` beside directories
  of claim, cancel-marker and presence files — still boots; nothing
  but the segments is ever read.
* **Compaction** (:meth:`JobJournal.compact`) rewrites the journal at
  boot, keeping only the retained job set, into one segment (fsynced
  before it replaces the old ones).  It is what bounds the journal on
  disk.

Durability model: every appended line is flushed to the OS immediately,
so a ``kill -9`` of the process loses nothing already appended (the
page cache survives process death); a machine crash may lose the lines
the OS had not written back yet.  A line torn by a crash mid-append
ends its segment's replay, and the boot-time compaction drops it before
anything is appended after it.
"""

from __future__ import annotations

import json
import os

from repro.service.faults import fire

#: journal format version, embedded in every line for forward safety.
_FORMAT_VERSION = 1

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
        #: retry allowance.
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


#: the live segment's file name.
SEGMENT = "segment-coordinator.jsonl"


class JobJournal:
    """The serving process's handle on its job journal.

    Args:
        root: the journal directory (created if missing).
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._segment_path = os.path.join(root, SEGMENT)
        self._segment = None
        #: appended-line counters (stats/tests).
        self.appended = 0

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> dict:
        """Write one record to the live segment; returns it, so the
        caller folds the very dict that went to disk."""
        record["v"] = _FORMAT_VERSION
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        # Injection point *before* any byte is written: a journaling
        # layer that failed here has durably recorded nothing, which is
        # exactly what the manager's degraded-mode buffer assumes.
        fire("journal.append", job=record.get("job"))
        if self._segment is None:
            self._segment = open(self._segment_path, "a",
                                 encoding="utf-8")
        self._segment.write(line)
        self._segment.flush()
        self.appended += 1
        return record

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
        record = {"rec": "mode", "mode": mode, "ts": ts}
        if reason:
            record["reason"] = reason
        self._append(record)

    def close(self) -> None:
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    # ------------------------------------------------------------------
    # reading
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
    def _read_records(path: str) -> list[dict]:
        """One segment's complete newline-terminated JSON records, up
        to the first torn line: the writer died mid-append, and appends
        are sequential, so nothing after it is complete."""
        with open(path, "rb") as fh:
            blob = fh.read()
        records = []
        # split()'s last element is the unterminated tail (b"" when the
        # blob ends on a newline) — never a committed record.
        for raw in blob.split(b"\n")[:-1]:
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except ValueError:
                break
            if not isinstance(obj, dict):
                break  # a line fragment that happens to be valid JSON
            records.append(obj)
        return records

    def replay(self, new=JobImage) -> dict:
        """Merge every segment into per-job images (boot-time full
        read) — :meth:`apply` over every record; the fold does not
        depend on the order segments are read in.  ``new`` builds the
        image of a job first seen (the manager restores its
        ``JobRecord`` subclass straight from here)."""
        images: dict = {}
        for path in self._segment_paths():
            for record in self._read_records(path):
                self.apply(images, record, new)
        return images

    @staticmethod
    def apply(images: dict, record: dict, new=JobImage) -> None:
        """Fold one journal record into a per-job image map — the one
        fold behind a boot-time :meth:`replay` and the serving
        process's own transitions.  Commutative and idempotent: the
        image depends on the *set* of records folded, not on their
        order or repetition (a journal written by an older version holds
        rotated segments, which replay reads out of write order, and
        worker segments, which it merges).

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
          delivery order, and only when two records carry the same seq
          (one writer never stamps a seq twice); an event ahead of a
          gap is held and becomes visible once the gap fills, so
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
    # compaction
    # ------------------------------------------------------------------
    def compact(self, keep_ids: "set[str] | frozenset[str]") -> None:
        """Rewrite the journal so only ``keep_ids`` survive, merging
        every segment into the live one.  Boot-time only: the caller
        re-derives ``keep_ids`` from the same replay it restores state
        from, which keeps on-disk history exactly consistent with the
        in-memory bounded-history eviction."""
        kept = [
            record
            for path in self._segment_paths()
            for record in self._read_records(path)
            if record.get("job") in keep_ids
        ]
        self.close()
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

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "root": self.root,
            "appended": self.appended,
            "segments": len(self._segment_paths()),
        }
