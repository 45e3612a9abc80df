"""Worker mode: extra processes draining the shared job journal.

``repro serve --worker`` scales the tune/sweep fleet horizontally: a
coordinator (possibly ``--dispatch-only``) accepts submissions over
``/v1/jobs`` and journals them; any number of worker processes share
the same ``--cache-dir``, claim queued jobs through journal **leases**
(atomic ``O_EXCL`` create — exactly one winner per job), execute them
in their own process, and journal seq-numbered progress
events, results and terminal states.  The coordinator's poll task
folds those records into its in-memory job records, so HTTP
clients poll and stream worker-executed jobs exactly like local ones.

A worker owns no state machine of its own.  Its view of the tier is a
map of :class:`~repro.service.journal.JobImage` objects kept by the
one fold (:meth:`JobJournal.apply`), it may write a job's records only
while it holds that job's lease, and what it writes comes from the
same functions the in-process manager uses:
:func:`~repro.service.jobs.run_attempt` decides how the attempt ended,
:func:`~repro.service.jobs.finish` / :func:`~repro.service.jobs.
requeue` turn that into records.  The worker supplies only its cancel
predicate (the marker file) and its record sink (append to its own
segment, fold into its own view, heartbeat the lease).

The claim protocol:

1. tail the journal (:meth:`JobJournal.refresh`) and fold new records
   into this worker's merged view;
2. order the ``queued``, registered-context, unleased, uncancelled
   jobs by the same dispatch policy the coordinator's turnstile
   applies — strict priority first, weighted round-robin across
   tenants inside a priority (a persistent :class:`FairQueue` carries
   the rotation cursor between polls), submission (= sorted id) order
   within a tenant — and try to claim them in that order;
3. atomically create its lease; on success, re-tail and **verify** the
   job is still queued — a cancel that landed in the race window is
   resolved *by this worker* (terminal ``cancelled`` state journaled
   before the lease is released), because the coordinator's
   eager-cancel path defers to whoever holds the lease;
4. run the attempt through the exact :meth:`AdvisorService._execute`
   path (same per-run isolation, so the result is byte-identical to a
   sequential ``tune()``): ``running``, seq-continued events, then
   result + terminal state, or — on a transient failure with retry
   budget left — an attempt-stamped requeue any worker may re-claim
   once its backoff passes;
5. release the lease.

A worker killed mid-run leaves a lease whose pid is dead: the
coordinator's watchdog (or, across a restart, its boot-time
:meth:`JobManager.recover`) breaks it and re-dispatches or fails the
job, exactly like one of its own interrupted runs.

The persistent ``EstimationCache``/``CostCache`` in the shared
``--cache-dir`` are the fleet's shared state: workers warm them for
each other (last-writer-wins JSON merge on save), never for
correctness — every run is deterministic with or without warm caches.
"""

from __future__ import annotations

import time

from repro.service.faults import InjectedFault, fire
from repro.service.jobs import (
    CANCELLED_QUEUED,
    JOB_KINDS,
    TERMINAL_STATES,
    finish,
    retryable,
    run_attempt,
)
from repro.service.journal import JobImage
from repro.service.scheduler import FairQueue


class JobWorker:
    """One worker process's claim-execute loop over the shared journal.

    Args:
        service: an :class:`AdvisorService` built with the shared
            ``cache_dir`` and a unique ``journal_writer`` — the worker
            uses its contexts and caches but never starts its
            asyncio side.  Tenant weights for the claim rotation come
            from this service's own configuration (pass the
            coordinator's ``--tenant-weight`` flags to workers too).
        poll_interval: idle sleep between journal tails.

    While executing, the worker refreshes its lease every third of the
    journal's lease TTL.
    """

    def __init__(self, service, *, poll_interval: float = 0.5) -> None:
        if service.journal is None:
            raise ValueError(
                "worker mode needs a cache_dir-backed journal"
            )
        self.service = service
        self.journal = service.journal
        self.poll_interval = poll_interval
        self.heartbeat_interval = self.journal.lease_ttl / 3.0
        #: merged journal view (every writer, incl. our own appends).
        self._images: dict[str, JobImage] = self.journal.replay()
        # Our own segment is excluded from refresh(); prime the offsets
        # so the first refresh() only returns genuinely new records.
        self.journal.refresh()
        # Announce presence now, before any append: an alive-but-idle
        # worker holds no lease, and the presence file is what stops a
        # restarting coordinator from compacting our open segment and
        # read offsets out from under us.
        self.journal.announce_writer()
        #: claim-order policy: same strict-priority + deficit-weighted
        #: tenant rotation as the coordinator turnstile; the cursor
        #: persists across polls so fairness holds over time.
        self._fair = FairQueue(self.service.jobs.tenant_weights)
        #: jobs this worker executed (terminal), per outcome, plus
        #: attempts it re-enqueued under the retry policy.
        self.executed = {state: 0 for state in sorted(TERMINAL_STATES)}
        self.executed["retried"] = 0

    # ------------------------------------------------------------------
    def _fold(self, records: list[dict]) -> None:
        for record in records:
            self.journal.apply(self._images, record)

    def _refresh(self) -> None:
        self._fold(self.journal.refresh())

    def _write(self, kind: str, *fields, **marks) -> dict:
        """The worker's record sink: append one record to our segment
        and fold the dict that went to disk into our view."""
        raw = getattr(self.journal, "append_" + kind)(*fields, **marks)
        self._fold([raw])
        return raw

    def _claimable(self):
        """Queued, known-context, unleased, uncancelled job ids in the
        coordinator's dispatch order: strict priority, then weighted
        round-robin across tenants, then submission (= sorted id) order
        within a tenant.

        Lazily picked from a persistent :class:`FairQueue` re-parked
        with each poll's candidate set: the rotation cursor only
        advances for ids actually yielded, so when the caller claims
        the first yield (the common case) tenant fairness carries over
        between polls exactly like the coordinator's turnstile."""
        candidates = []
        for job_id in sorted(self._images):
            image = self._images[job_id]
            if image.state != "queued" or image.kind not in JOB_KINDS:
                continue
            if image.context not in self.service.contexts:
                continue
            if self.journal.cancel_requested(job_id):
                continue
            if self.journal.lease_info(job_id) is not None:
                continue
            if image.not_before is not None and \
                    image.not_before > time.time():
                continue  # retry still parked behind its backoff
            candidates.append(image)
        for lanes in self._fair.pending.values():
            lanes.clear()
        for image in candidates:
            self._fair.park(image)
        while True:
            image = self._fair.pick()
            if image is None:
                return
            yield image.id

    # ------------------------------------------------------------------
    def run_once(self) -> str | None:
        """Claim and execute at most one job; its id, or None when
        nothing was claimable (or this worker is quarantined)."""
        if self.journal.writer_quarantined(self.journal.writer_id):
            # Benched by the coordinator watchdog after repeated lease
            # breaks: stop taking jobs until the operator clears us.
            return None
        self._refresh()
        for job_id in self._claimable():
            if not self.journal.claim(job_id):
                continue  # another worker won the race
            # Death-mid-claim injection point: an InjectedFault here
            # propagates with the lease held — exactly the orphaned
            # claim the coordinator watchdog must break.
            fire("worker.claim", job=job_id,
                 writer=self.journal.writer_id)
            # Post-claim verify: the coordinator may have resolved the
            # job (eager cancel) between our tail and the claim.
            self._refresh()
            image = self._images[job_id]
            if image.state != "queued":
                self.journal.release(job_id)
                continue
            if self.journal.cancel_requested(job_id):
                # The cancel landed inside the claim window, so the
                # coordinator saw our lease and deferred to us: journal
                # the terminal state before letting go, or nothing ever
                # would (the claim scan skips cancel-marked jobs).
                self._resolve_cancelled(image)
                continue
            print(f"worker {self.journal.writer_id}: claimed {job_id}",
                  flush=True)
            self._execute(image)
            return job_id
        return None

    def run_forever(self, *, max_jobs: int | None = None,
                    idle_timeout: float | None = None) -> int:
        """Drain the journal until stopped: ``max_jobs`` bounds the
        number of executed jobs, ``idle_timeout`` exits after that many
        consecutive seconds with nothing claimable (both None = run
        until the process is killed).  Returns the executed-job count.
        """
        done = 0
        idle_since: float | None = None
        last_beat = time.time()
        while True:
            job_id = self.run_once()
            if job_id is not None:
                done += 1
                idle_since = None
                if max_jobs is not None and done >= max_jobs:
                    return done
                continue
            now = time.time()
            if idle_since is None:
                idle_since = now
            elif idle_timeout is not None and \
                    now - idle_since >= idle_timeout:
                return done
            if now - last_beat >= self.heartbeat_interval:
                # Keep the presence file fresh while idle, so a
                # restarting coordinator never compacts our segment
                # and offsets out from under us.
                self.journal.heartbeat_writer()
                last_beat = now
            time.sleep(self.poll_interval)

    # ------------------------------------------------------------------
    def _resolve_cancelled(self, image: JobImage) -> None:
        """Terminally resolve a claimed job whose cancel marker landed
        inside the claim window.  We hold the lease, so the
        coordinator's eager-cancel path skipped the job and the claim
        scan will keep skipping it — unless someone journals a terminal
        state it would stay ``queued`` (and count against its tenant's
        quota) forever."""
        finish(self._write, image, "cancelled", error=CANCELLED_QUEUED)
        self.executed["cancelled"] += 1
        self.journal.clear_cancel(image.id)
        self.journal.release(image.id)

    # ------------------------------------------------------------------
    def _execute(self, image: JobImage) -> None:
        """Run one attempt of a claimed job, journaling the same record
        sequence the in-process manager would."""
        journal = self.journal
        job_id = image.id
        last_beat = time.time()

        def cancelled() -> bool:
            return journal.cancel_requested(job_id)

        def apply(step, *args, **marks) -> None:
            nonlocal last_beat
            now = time.time()
            if now - last_beat >= self.heartbeat_interval:
                try:
                    # A `stall` fault here models a worker whose beats
                    # silently stop: the run continues, the lease goes
                    # stale, the coordinator watchdog takes over.
                    fire("worker.heartbeat", job=job_id,
                         writer=journal.writer_id)
                    journal.heartbeat(job_id)
                    journal.heartbeat_writer()
                except InjectedFault:
                    pass  # beat skipped
                last_beat = now
            step(self._write, image, *args, **marks)

        def execute(progress):
            return self.service._execute(
                image.kind, image.context, dict(image.payload),
                lane=None, progress=progress,
            )

        try:
            outcome = run_attempt(
                image, execute, cancelled,
                lambda: retryable(image, cancelled), apply,
            )
            self.executed[outcome] += 1
        finally:
            journal.clear_cancel(job_id)
            journal.release(job_id)
            # Persist what this run warmed for the rest of the fleet.
            self.service.save_caches()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "writer": self.journal.writer_id,
            "executed": dict(self.executed),
            "known_jobs": len(self._images),
        }
