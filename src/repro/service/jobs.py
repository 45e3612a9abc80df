"""Job-based serving: durable tuning jobs with streaming progress.

``tune``, ``sweep`` and ``retune`` requests run as **jobs**: records a
client submits, polls, streams and cancels.  A job is one
:class:`JobRecord` — the journal's :class:`~repro.service.journal.
JobImage` (every durable field, declared there once) plus the handles
only a serving process has — and its state is whatever
:meth:`JobJournal.apply <repro.service.journal.JobJournal.apply>` folds
out of the records written about it::

    queued ──► running ──► done | failed | cancelled      (one attempt)
    running | failed attempt ──► queued @ attempt + 1      (retry requeue)

Nothing here assigns a job's state.  Every transition is a *write*:
the functions below (:func:`start`, :func:`emit`, :func:`finish`,
:func:`requeue`, …) turn a transition into journal records and hand them
to the caller's ``write(kind, *fields)`` sink, which appends each
record and folds it.  :func:`run_attempt` is the one place that decides
how an attempt ended.  The serving process is the only place jobs
execute and the journal's only writer.

* **Submit** (:meth:`JobManager.submit`) writes the ``submit`` record
  and hands the job to the per-context scheduler lane; same-context
  jobs at the same priority and tenant execute strictly in submission
  order (the determinism contract), jobs on different contexts overlap.
* **Progress** rides the advisor's progress hook: every phase
  transition and every accepted greedy step lands in the job's ordered
  event log (``seq``-numbered), written loop-side via
  ``call_soon_threadsafe`` so lane threads never touch asyncio state.
  :meth:`JobManager.stream` is the tail -f view: an async iterator
  that yields events as they arrive and ends when the job reaches a
  terminal state.
* **Cancel** (:meth:`JobManager.cancel`) resolves queued jobs
  immediately; running jobs carry a cancel flag the progress hook
  checks, so the run unwinds (:class:`~repro.errors.JobCancelled`) at
  the next event — cancellation latency is bounded by one greedy step.
  A cancelled or failed run gives its scheduler lane back.
* **Write-through journal.**  With a ``cache_dir``, every record is
  appended (and flushed, so a killed process loses none of it) to the
  :class:`~repro.service.journal.JobJournal` before clients can observe
  it.  :meth:`JobManager.recover` replays the journal at boot:
  terminal jobs come back poll-able with their full event logs
  (``GET /v1/jobs/<id>/events?after=N`` survives restarts), ``queued``
  jobs re-enqueue and run, and interrupted ``running`` jobs are
  finished ``failed`` with a ``recovered`` marker.  New events continue
  the restored ``seq`` series, so logs stay gap-free across the restart
  boundary.  The boot compaction that follows is what bounds the
  journal on disk.
* **Priority lanes + tenant fairness.**  Submissions carry a
  ``priority`` (``high``/``normal``/``low``) and a ``tenant`` tag.
  Inside each context, the next job to run is picked high-first, and
  *within* a priority by round-robin across tenants
  (:class:`FairQueue`), so one heavy client cannot starve a context.
  Per-tenant admission quotas bound how many non-terminal jobs a
  tenant may hold (:class:`~repro.errors.QuotaExceededError` → HTTP
  429), separate from the global queue bound (503).

Runtime guardrails (chaos-tested via :mod:`repro.service.faults`):

* **Deadlines.**  ``deadline_s`` on submit bounds a job's wall time
  from submission across all attempts; enforced through the same
  progress-hook guard as cancel (one-greedy-step latency), journaled
  terminal ``failed`` with a ``timeout`` marker, never retried.
* **Retries.**  ``retries``/``retry_backoff`` give transient failures
  a budget: a failed attempt re-enqueues attempt-stamped behind a
  deterministic jittered exponential backoff (:func:`retry_delay`),
  and a retry that succeeds returns a result byte-identical to the
  sequential run (same lane, same isolation — the determinism
  contract holds per attempt).
* **Disk-pressure degradation.**  Journal writes hitting ``ENOSPC``/
  ``EIO`` flip the manager into ``degraded`` mode: ops buffer in
  memory (bounded), jobs keep running, ``/healthz`` reports it, and
  :meth:`JobManager.journal_probe` (poll task) replays the buffer and
  clears the flag once the disk recovers.
* **Queued-deadline sweep.**  :meth:`JobManager.watchdog_sweep` (poll
  task) fails queued jobs past their deadline without running them.

Results are byte-identical to the synchronous endpoints: a job executes
through exactly the same :meth:`ServiceContext.run_tune`/``run_sweep``
path, on the same lane, with the same per-run isolation — and a
recovered job re-runs byte-identical to its cold submission.
"""

from __future__ import annotations

import asyncio
import errno
import functools
import threading
import time
import zlib

from repro.advisor.advisor import check_budget
from repro.errors import (
    AdvisorError,
    BackpressureError,
    JobCancelled,
    JobDeadlineExceeded,
    JobError,
    QuotaExceededError,
)
from repro.service.journal import (
    DEFAULT_RETRY_BACKOFF,
    JOB_STATES,
    RECORDS,
    TERMINAL_STATES,
    JobImage,
    JobJournal,
)
from repro.service.scheduler import PRIORITIES, FairQueue

JOB_KINDS = ("tune", "sweep", "retune")

#: write errors that flip the tier into degraded mode instead of
#: failing the operation: disk pressure and transient device errors.
#: Anything else (permissions, bad paths) is a real bug and raises.
_DEGRADED_ERRNOS = frozenset({errno.ENOSPC, errno.EIO})

#: degraded-mode replay buffer bound — beyond it the *oldest* buffered
#: journal writes drop (counted), because an unbounded buffer under a
#: disk that never recovers is its own outage.
DEGRADED_BUFFER_LIMIT = 10_000

#: the error of a job cancelled before it ever ran.
CANCELLED_QUEUED = "cancelled while queued"


def retry_delay(job_id: str, attempt: int, backoff: float) -> float:
    """Backoff before retry ``attempt`` (1-based): exponential in the
    attempt, scaled by a *deterministic* jitter factor in [0.5, 1.5)
    derived from the job id — spreads a thundering herd of same-moment
    failures without making schedules (or tests) timing-dependent."""
    base = backoff * (2 ** (attempt - 1))
    jitter = 0.5 + (
        zlib.crc32(f"{job_id}:{attempt}".encode()) % 1000
    ) / 1000.0
    return base * jitter


def deadline_expired(created: float, deadline_s: float | None,
                     now: float | None = None) -> bool:
    """Whether a job submitted at ``created`` has overrun its budget
    (deadlines measure wall time from submission, across attempts)."""
    if deadline_s is None:
        return False
    return (now if now is not None else time.time()) - created > deadline_s


def check_routing_number(name: str, value, positive: bool) -> float:
    """``value`` as a job routing number — :func:`check_budget`'s rule
    (a real number, not a bool, finite), and > 0 when ``positive``,
    else >= 0 — or :class:`JobError` naming ``name``.  NaN and the
    infinities would otherwise be journaled and served as non-standard
    JSON."""
    try:
        number = check_budget(name, value)
    except AdvisorError as exc:
        raise JobError(str(exc)) from None
    if positive and number == 0:
        raise JobError(f"{name} must be > 0, got {value!r}")
    return number


# ----------------------------------------------------------------------
# transitions: each turns one step of the state machine into journal
# records and hands them to ``write(kind, *fields, **marks)`` — the
# caller's sink, which appends the record, folds it into ``image`` and
# returns it.  They run on the manager's event loop.
# ----------------------------------------------------------------------
def emit(write, image: JobImage, event: dict) -> None:
    """Append one event to the job's log under the next free seq."""
    event["seq"] = image.max_seq + 1
    write("event", image.id, event)


def announce(write, image: JobImage, state: str, **marks) -> None:
    """The ``state`` event that tells the log's readers a transition
    happened."""
    emit(write, image, {"event": "state", "state": state,
                        "job": image.id, **marks})


def transition(write, image: JobImage, state: str, **marks) -> None:
    """One state record, then its ``state`` event carrying the marks
    the record kept."""
    raw = write("state", image.id, state, time.time(), **marks)
    announce(write, image, state, **{
        mark: raw[mark]
        for mark in ("error", "timeout", "recovered", "attempt")
        if mark in raw
    })


def start(write, image: JobImage) -> None:
    """The current attempt begins to run."""
    if not image.terminal:  # cancelled in the submission race window
        transition(write, image, "running", attempt=image.attempt)


def finish(write, image: JobImage, state: str,
           result: dict | None = None, **marks) -> None:
    """The one finish path: the result (when there is one), the
    terminal state record, its event.  ``marks`` are ``error``,
    ``timeout``, ``recovered``.  A job already terminal stays as it
    is."""
    if image.terminal:
        return
    if result is not None:
        write("result", image.id, result)
    transition(write, image, state, attempt=image.attempt, **marks)


def requeue(write, image: JobImage, error: str) -> None:
    """The one requeue of a transiently failed attempt: an
    attempt-stamped ``queued`` record
    (so the fold supersedes the failed run) parked behind the jittered
    exponential backoff, announced by a ``retry`` event.  Never a
    terminal state — a retried job was never failed."""
    attempt = image.attempt + 1
    now = time.time()
    not_before = now + retry_delay(image.id, attempt, image.retry_backoff)
    write("state", image.id, "queued", now, attempt=attempt,
          not_before=not_before)
    emit(write, image, {
        "event": "retry", "job": image.id, "attempt": attempt,
        "error": error, "not_before": not_before,
    })


def run_attempt(image: JobImage, execute, cancelled, may_retry,
                apply) -> str:
    """One attempt of one job, from the pre-run guard to its outcome —
    the only place that decides done / cancelled / failed+timeout /
    retry / failed.  Touches nothing but its arguments:

    * ``execute(progress)`` runs the job and returns its result;
    * ``cancelled()`` is the caller's cancel predicate;
    * ``may_retry()`` is asked once, after a transient failure;
    * ``apply(step, *args, **marks)`` is the caller's record sink: it
      runs ``step(write, image, *args, **marks)`` — one of the
      transitions above — on the event loop that owns the image.

    Returns ``"done"``, ``"cancelled"``, ``"failed"`` or
    ``"retried"``."""

    def guard(why: str) -> None:
        # Deadlines ride the same hook as cancel, so either unwinds
        # the run within one greedy step.
        if cancelled():
            raise JobCancelled(why)
        if deadline_expired(image.created, image.deadline_s):
            raise JobDeadlineExceeded(
                f"job {image.id} exceeded deadline_s={image.deadline_s}"
            )

    def progress(event: dict) -> None:
        guard("cancel requested")
        apply(emit, dict(event))

    try:
        # A cancel or an expiry that landed while the job waited its
        # turn resolves here, before any tuning work.
        guard(CANCELLED_QUEUED)
        apply(start)
        result = execute(progress)
    except JobDeadlineExceeded as exc:
        # Never retried: the deadline budgets *all* attempts.
        apply(finish, "failed", error=str(exc), timeout=True)
    except JobCancelled as exc:
        apply(finish, "cancelled", error=str(exc))
        return "cancelled"
    except Exception as exc:  # noqa: BLE001 - recorded on the job
        if may_retry():
            apply(requeue, str(exc))
            return "retried"
        apply(finish, "failed", error=str(exc))
    else:
        apply(finish, "done", result=result)
        return "done"
    return "failed"


class JobRecord(JobImage):
    """A :class:`JobImage` as one process serves it: the journal's
    durable fields plus the handles only this process has."""

    def __init__(self, job_id: str) -> None:
        super().__init__(job_id)
        #: cross-thread cancel flag (the lane thread's progress hook
        #: polls it; the loop side sets it).
        self.cancel = threading.Event()
        #: pulsed (loop-side) on every fold so streamers wake without
        #: polling.
        self.changed = asyncio.Event()
        #: turnstile future while parked behind same-context jobs.
        self._turn: asyncio.Future | None = None

    def snapshot(self, include_result: bool = True) -> dict:
        """The JSON wire form of this job right now."""
        out = {
            "id": self.id,
            "kind": self.kind,
            "context": self.context,
            "state": self.state,
            "tenant": self.tenant,
            "priority": self.priority,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "events": len(self.events),
            "payload": dict(self.payload),
        }
        if self.recovered:
            out["recovered"] = True
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        if self.retries:
            out["retries"] = self.retries
            out["retry_backoff"] = self.retry_backoff
        if self.attempt:
            out["attempt"] = self.attempt
        if self.timeout:
            out["timeout"] = True
        if self.error is not None:
            out["error"] = self.error
        if include_result and self.result is not None:
            out["result"] = self.result
        return out


class JobManager:
    """Owns every job of one :class:`AdvisorService` instance.

    Lives on the service's event loop; lane threads only ever reach it
    through ``call_soon_threadsafe``.  History is bounded: terminal
    jobs beyond ``max_history`` are evicted oldest-first (ids of
    evicted jobs 404 afterwards — clients stream or poll results out
    before they scroll away); boot-time journal compaction applies the
    same rule to disk.

    Args:
        service: the owning :class:`AdvisorService`.
        max_history: retained-job bound (terminal jobs evict beyond).
        journal: write-through :class:`JobJournal` (None = in-memory
            only: same records, folded but never appended).
        tenant_quota: per-tenant cap on non-terminal jobs (None = no
            per-tenant cap; the global ``max_pending`` bound always
            applies).
    """

    def __init__(self, service, max_history: int = 256,
                 journal=None, tenant_quota: int | None = None) -> None:
        self.service = service
        self.max_history = max_history
        self.journal = journal
        self.tenant_quota = tenant_quota
        self.jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._counter = 1
        self._tasks: set[asyncio.Task] = set()
        self._queues: dict[str, FairQueue] = {}
        #: lifecycle counters, per kind.
        self.submitted = {kind: 0 for kind in JOB_KINDS}
        self.finished = {state: 0 for state in TERMINAL_STATES}
        self.recovered_jobs = 0
        self.retried = 0
        #: disk-pressure degradation: while True, journal writes buffer
        #: in memory instead of touching the failing disk; the poll
        #: task's :meth:`journal_probe` drains the buffer and clears
        #: the flag once writes succeed again.
        self.degraded = False
        self.degraded_since: float | None = None
        self.degraded_reason: str | None = None
        self._journal_buffer: list[tuple] = []
        self.degraded_events = 0
        self.degraded_dropped = 0
        #: cumulative queued-deadline sweep counters.
        self.watchdog = {"sweeps": 0, "deadline_expired": 0}

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, kind: str, context: str, payload: dict,
               tenant: str = "default", priority: str = "normal",
               deadline_s: float | None = None, retries: int = 0,
               retry_backoff: float | None = None) -> JobRecord:
        """Create a job and schedule it on its context's lane.  The
        payload is journaled as given: :meth:`AdvisorService.submit_job`
        validates and resolves it first."""
        if deadline_s is not None:
            deadline_s = check_routing_number("deadline_s", deadline_s,
                                              positive=True)
        if not isinstance(retries, int) or isinstance(retries, bool) \
                or retries < 0:
            raise JobError(
                f"retries must be a non-negative integer, got {retries!r}"
            )
        if retry_backoff is not None:
            retry_backoff = check_routing_number(
                "retry_backoff", retry_backoff, positive=False
            )
        if kind not in JOB_KINDS:
            raise JobError(
                f"unknown job kind {kind!r}; one of {JOB_KINDS}"
            )
        if context not in self.service.contexts:
            raise JobError(
                f"unknown context {context!r}; registered: "
                f"{sorted(self.service.contexts)}"
            )
        if priority not in PRIORITIES:
            raise JobError(
                f"unknown priority {priority!r}; one of {PRIORITIES}"
            )
        if not isinstance(tenant, str) or not tenant:
            raise JobError("tenant must be a non-empty string")
        if not self.service.started or self.service._closing:
            raise JobError("service is not running")
        queued = sum(
            1 for record in self.jobs.values() if record.state == "queued"
        )
        if queued >= self.service.max_pending:
            raise BackpressureError(
                f"job queue full ({self.service.max_pending} queued); "
                "retry later"
            )
        if self.tenant_quota is not None:
            held = sum(
                1 for record in self.jobs.values()
                if record.tenant == tenant and not record.terminal
            )
            if held >= self.tenant_quota:
                raise QuotaExceededError(
                    f"tenant {tenant!r} at quota "
                    f"({self.tenant_quota} active jobs); retry later"
                )
        record = JobRecord(f"job-{self._counter:06d}")
        self._counter += 1
        self.jobs[record.id] = record
        self._order.append(record.id)
        self.submitted[kind] += 1
        self._write(
            "submit", record.id, kind, context, dict(payload), tenant,
            priority, time.time(), deadline_s=deadline_s,
            retries=retries,
            retry_backoff=(DEFAULT_RETRY_BACKOFF if retry_backoff is None
                           else retry_backoff),
        )
        announce(self._write, record, "queued")
        self._start_task(record)
        self._evict()
        return record

    def carried_configuration(self, context: str):
        """``(index_specs, generation)`` from the most recent completed
        tune/retune job in ``context``, or ``None`` for a cold start."""
        for job_id in reversed(self._order):
            record = self.jobs.get(job_id)
            if record is None or record.context != context:
                continue
            if record.kind not in ("tune", "retune"):
                continue
            if record.state != "done" or not isinstance(record.result, dict):
                continue
            body = record.result.get("result")
            if not isinstance(body, dict):
                continue
            specs = body.get("indexes")
            if specs is None:
                continue
            generation = 1
            retune = record.result.get("retune")
            if isinstance(retune, dict):
                generation = int(retune.get("generation", 1))
            return list(specs), generation
        return None

    def _start_task(self, record: JobRecord) -> None:
        task = asyncio.get_running_loop().create_task(
            self._run_job(record)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # journaling with disk-pressure degradation
    # ------------------------------------------------------------------
    def _journal(self, op: str, *args, **kwargs):
        """Every journal *write* goes through here: on ``ENOSPC``/
        ``EIO`` the tier flips to **degraded** — the op (and every one
        after it) buffers in memory, jobs keep running, and the poll
        task's :meth:`journal_probe` replays the buffer in order once
        the disk recovers.  Any other ``OSError`` is a real bug and
        still raises.  Returns what the journal op returned — None
        when there is no journal or the op was buffered."""
        if self.journal is None:
            return None
        if not self.degraded:
            try:
                return getattr(self.journal, op)(*args, **kwargs)
            except OSError as exc:
                if exc.errno not in _DEGRADED_ERRNOS:
                    raise
                self._enter_degraded(str(exc))
        self._buffer_op(op, args, kwargs)
        return None

    def _write(self, kind: str, *fields, **marks) -> dict:
        """The manager's record sink (loop-side only): append one
        record — buffered while degraded — and fold the dict that went
        to disk, or the one that will."""
        raw = self._journal("append_" + kind, *fields, **marks) \
            or RECORDS[kind](*fields, **marks)
        self._fold(raw)
        return raw

    def _fold(self, raw: dict) -> None:
        """Fold one record of a tracked job, then do what the observed
        change implies: lifecycle counters, the parked task of a job
        that just ended, waiting streamers."""
        record = self.jobs[raw["job"]]
        attempt, state = record.attempt, record.state
        JobJournal.apply(self.jobs, raw)
        if (record.attempt, record.state) != (attempt, state):
            if state in TERMINAL_STATES:
                # Revived by a later attempt, or an earlier terminal
                # decision of the same attempt arrived late.
                self.finished[state] -= 1
            if record.terminal:
                self.finished[record.state] += 1
                self._resolve_parked(record)
            elif record.state == "queued":
                self.retried += 1  # only a requeue moves a job back
        record.changed.set()

    def _buffer_op(self, op: str, args: tuple, kwargs: dict) -> None:
        self._journal_buffer.append((op, args, kwargs))
        self.degraded_events += 1
        if len(self._journal_buffer) > DEGRADED_BUFFER_LIMIT:
            self._journal_buffer.pop(0)
            self.degraded_dropped += 1

    def _enter_degraded(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.degraded_since = time.time()
        self.degraded_reason = reason
        # First thing the recovered journal will see: when and why the
        # window opened (mode records carry no job id; replay ignores
        # them).
        self._journal_buffer.insert(0, (
            "append_mode", ("degraded", self.degraded_since),
            {"reason": reason},
        ))

    def journal_probe(self) -> bool:
        """Probe-and-recover: replay the degraded-mode buffer in order;
        on full drain journal a ``healthy`` mode record and clear the
        flag.  Returns True when the tier is healthy after the call.
        Called from the service's poll task every tick."""
        if self.journal is None or not self.degraded:
            return True
        while self._journal_buffer:
            op, args, kwargs = self._journal_buffer[0]
            try:
                getattr(self.journal, op)(*args, **kwargs)
            except OSError as exc:
                if exc.errno not in _DEGRADED_ERRNOS:
                    raise
                return False  # disk still unwell; keep buffering
            self._journal_buffer.pop(0)
        self.degraded = False
        reason = self.degraded_reason
        self.degraded_reason = None
        try:
            self.journal.append_mode(
                "healthy", time.time(),
                reason=f"recovered from: {reason}" if reason else None,
            )
        except OSError as exc:
            if exc.errno not in _DEGRADED_ERRNOS:
                raise
            self._enter_degraded(str(exc))
            return False
        return True

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Rebuild state from the journal at boot (no-op without one).

        * terminal jobs: restored with their full event logs;
        * ``queued`` jobs: re-enqueued (bypassing backpressure/quota —
          they were already admitted once) and re-run;
        * ``running`` jobs: the run died with its process, so the job
          is marked ``failed`` with a ``recovered`` marker (clients
          resubmit; a re-run is byte-identical to the cold submission
          by the determinism contract).

        Afterwards the journal is compacted to exactly the retained
        set, so on-disk history matches the in-memory eviction bound.
        """
        if self.journal is None:
            return {"restored": 0, "requeued": 0, "recovered": 0}
        restored = self.journal.replay(JobRecord)
        requeued = recovered = 0
        # Journal ids are zero-padded and assigned at submission, so
        # sorted order is submission order.
        for job_id in sorted(restored):
            record = restored[job_id]
            if record.kind is None:
                continue  # events for a job whose submit never landed
            self.jobs[job_id] = record
            self._order.append(job_id)
            suffix = job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                self._counter = max(self._counter, int(suffix) + 1)
            if record.terminal:
                continue
            if record.state == "running":
                finish(
                    self._write, record, "failed", recovered=True,
                    error="interrupted by service restart; "
                          "resubmit to re-run",
                )
                self.recovered_jobs += 1
                recovered += 1
                continue
            requeued += 1  # queued: run it again
            self._start_task(record)
        self._evict()
        self.journal.compact(frozenset(self._order))
        return {
            "restored": len(self.jobs),
            "requeued": requeued,
            "recovered": recovered,
        }

    # ------------------------------------------------------------------
    # queued-job deadlines
    # ------------------------------------------------------------------
    def watchdog_sweep(self) -> dict:
        """Fail every queued job past its deadline without running it
        (running jobs enforce their own deadline through the progress
        hook); called from the service's poll task.  Returns this
        sweep's count (cumulative totals live in
        ``stats()['watchdog']``)."""
        self.watchdog["sweeps"] += 1
        expired = 0
        now = time.time()
        for record in list(self.jobs.values()):
            if record.state == "queued" and deadline_expired(
                    record.created, record.deadline_s, now):
                finish(
                    self._write, record, "failed",
                    error=f"deadline_s={record.deadline_s} exceeded "
                          "before completion",
                    timeout=True,
                )
                expired += 1
        self.watchdog["deadline_expired"] += expired
        return {"deadline_expired": expired}

    # ------------------------------------------------------------------
    # turn-taking (priority + tenant fairness per context)
    # ------------------------------------------------------------------
    def _queue_for(self, context: str) -> FairQueue:
        queue = self._queues.get(context)
        if queue is None:
            queue = self._queues[context] = FairQueue()
        return queue

    async def _acquire_turn(self, record: JobRecord) -> bool:
        """Wait for the record's turn on its context; True when the
        turn is actually granted (False: resolved while parked —
        cancelled/finished, no turn to give back)."""
        if record.terminal:
            # Cancelled before this task first ran: nothing to wait
            # for, and parking a terminal record would leave it
            # unresolvable (the pick loop skips terminal entries).
            return False
        queue = self._queue_for(record.context)
        if queue.active is None:
            queue.active = record
            return True
        future = asyncio.get_running_loop().create_future()
        record._turn = future
        queue.park(record)
        try:
            return await future
        finally:
            record._turn = None

    def _pass_turn(self, record: JobRecord) -> None:
        """Give the context's turn to the next parked record (priority
        order, tenant-fair)."""
        queue = self._queues.get(record.context)
        if queue is None or queue.active is not record:
            return
        queue.active = None
        while True:
            nxt = queue.pick()
            if nxt is None:
                return
            future = nxt._turn
            if nxt.terminal or future is None or future.done():
                if future is not None and not future.done():
                    # Terminal while parked: wake its task (no turn
                    # granted) so it can unwind instead of waiting
                    # forever on a turn that will never come.
                    future.set_result(False)
                continue  # resolved while parked; skip it
            queue.active = nxt
            future.set_result(True)
            return

    def _resolve_parked(self, record: JobRecord) -> None:
        """Wake a record parked at the turnstile without granting the
        turn (cancel path)."""
        future = record._turn
        if future is not None and not future.done():
            future.set_result(False)

    # ------------------------------------------------------------------
    async def _run_job(self, record: JobRecord) -> None:
        # Backoff park (retry requeues and recovered requeues both set
        # not_before): sleep out the delay before even asking for the
        # lane turn, so a backing-off job never blocks its context.
        delay = (record.not_before or 0) - time.time()
        if delay > 0:
            await asyncio.sleep(delay)
        granted = await self._acquire_turn(record)
        if record.terminal:  # cancelled while parked / in the gap
            if granted:
                self._pass_turn(record)
            return
        lane = self.service.scheduler.lane_for(record.context)
        loop = asyncio.get_running_loop()

        def apply(step, *args, **marks) -> None:
            # The attempt runs on the lane thread, strictly after every
            # earlier same-lane submission; its transitions hop back so
            # records are written and folded loop-side only.
            loop.call_soon_threadsafe(functools.partial(
                step, self._write, record, *args, **marks
            ))

        def execute(progress):
            return self.service._execute(
                record.kind, record.context, dict(record.payload),
                lane=lane, progress=progress,
            )

        outcome = None
        try:
            outcome = await lane.run(
                run_attempt, record, execute, record.cancel.is_set,
                lambda: self._retryable(record), apply,
            )
        except asyncio.CancelledError:
            # Service loop torn down mid-await: the lane thread still
            # finishes (or cancels via the flag stop() sets); the
            # record must not stay non-terminal forever.
            record.cancel.set()
            finish(self._write, record, "cancelled",
                   error="service stopped")
            raise
        except Exception as exc:  # noqa: BLE001 - recorded on the job
            # The attempt never reached the lane (executor gone).
            finish(self._write, record, "failed", error=str(exc))
        finally:
            self._pass_turn(record)
        if outcome == "retried":
            self._start_task(record)

    def _retryable(self, record: JobRecord) -> bool:
        """Whether a just-failed attempt has retry budget left and
        retrying still makes sense: not cancelled, not past deadline,
        the service still running."""
        return (
            record.attempt < record.retries
            and not record.cancel.is_set()
            and not deadline_expired(record.created, record.deadline_s)
            and self.service.started
            and not self.service._closing
        )

    def _evict(self) -> None:
        while len(self._order) > self.max_history:
            for job_id in list(self._order):
                record = self.jobs.get(job_id)
                if record is None or record.terminal:
                    self._order.remove(job_id)
                    self.jobs.pop(job_id, None)
                    break
            else:
                return  # everything live — never evict a running job

    # ------------------------------------------------------------------
    # lookup / streaming / cancel
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:
            raise JobError(f"no such job {job_id!r}")
        return record

    def list_jobs(self, tenant: str | None = None) -> list[dict]:
        return [
            self.jobs[job_id].snapshot(include_result=False)
            for job_id in self._order if job_id in self.jobs
            and (tenant is None or self.jobs[job_id].tenant == tenant)
        ]

    def events_after(self, job_id: str, after: int = 0) -> list[dict]:
        """Every recorded event with ``seq > after`` (poll form).
        ``seq`` is gapless and 1-based, so this is a slice."""
        record = self.get(job_id)
        return record.events[max(after, 0):]

    async def stream(self, job_id: str, after: int = 0):
        """Async-iterate a job's events live, ending once the job is
        terminal and its log fully drained."""
        record = self.get(job_id)
        after = max(after, 0)
        while True:
            # seq == list index + 1 (gapless), so the unseen tail is a
            # slice — no rescan of the whole log per wake-up.
            for event in record.events[after:]:
                after = event["seq"]
                yield event
            # Terminal with nothing left to yield ends the stream — a
            # restored terminal record may legitimately have an empty
            # event log (its submit line survived a crash, its event
            # lines did not), and must not park forever.
            if record.terminal and len(record.events) <= after:
                return
            record.changed.clear()
            # Re-check before parking: an event appended between the
            # snapshot above and this point re-set the flag.
            if len(record.events) > after:
                continue
            await record.changed.wait()

    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation: queued jobs resolve before execution,
        running jobs unwind at their next progress event, terminal jobs
        are left untouched (cancel is idempotent)."""
        record = self.get(job_id)
        if record.terminal:
            return record
        record.cancel.set()
        if record.state == "queued":
            # Resolve eagerly so polls see it now; the lane-side guard
            # keeps the skipped execution honest.
            finish(self._write, record, "cancelled",
                   error=CANCELLED_QUEUED)
        return record

    def cancel_all(self) -> None:
        """Flag every non-terminal job for cancellation (service
        shutdown): running jobs unwind at their next progress event."""
        for record in self.jobs.values():
            if not record.terminal:
                record.cancel.set()
                if record.state == "queued":
                    finish(self._write, record, "cancelled",
                           error="service stopped")

    async def drain(self) -> None:
        """Wait until every submitted job's task has completed."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        states = {state: 0 for state in JOB_STATES}
        tenants: dict[str, int] = {}
        for record in self.jobs.values():
            states[record.state] += 1
            if not record.terminal:
                tenants[record.tenant] = tenants.get(record.tenant, 0) + 1
        out = {
            "submitted": dict(self.submitted),
            "finished": dict(self.finished),
            "states": states,
            "retained": len(self.jobs),
            "recovered": self.recovered_jobs,
            "retried": self.retried,
            "tenants_active": tenants,
            "tenant_quota": self.tenant_quota,
            "parked": sum(q.depth() for q in self._queues.values()),
            "degraded": {
                "active": self.degraded,
                "since": self.degraded_since if self.degraded else None,
                "reason": self.degraded_reason,
                "buffered": len(self._journal_buffer),
                "events": self.degraded_events,
                "dropped": self.degraded_dropped,
            },
            "watchdog": dict(self.watchdog),
        }
        if self.journal is not None:
            out["journal"] = self.journal.stats()
        return out
