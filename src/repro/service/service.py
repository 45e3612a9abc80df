"""The async tuning service: concurrent requests over one optimizer.

Commercial what-if tuners run as long-lived services multiplexing many
tuning sessions over a single optimizer instance.  This module is that
serving layer for the reproduction: an asyncio :class:`AdvisorService`
accepting concurrent ``tune`` / ``sweep`` / ``estimate_size`` /
``whatif_cost`` requests against registered schema+workload contexts,
backed by the existing batched APIs and the persistent
:class:`EstimationCache`/:class:`CostCache`.

Three properties the stress tests pin down:

* **Determinism.**  Requests execute strictly one at a time *per
  context* (each context's scheduler lane is a single worker thread),
  and every tuning run is one call on the context's
  :class:`~repro.advisor.retune.TuningSession` (see
  :mod:`repro.service.context`), so responses are byte-identical to
  sequential :meth:`TuningAdvisor.run` calls at any concurrency
  level — the answer a client gets can never depend on what other
  clients are doing, while runs on different contexts overlap.

* **In-flight coalescing.**  Identical concurrent requests (same kind,
  context and canonical payload) attach to a single future: the work
  runs once and every waiter gets the same response object.  Dedup
  counters are exposed per request kind (``stats()["coalesced"]``).

* **Backpressure.**  Requests flow through a bounded queue.
  ``request(..., wait=True)`` suspends the caller until a slot frees
  (asyncio-native backpressure); ``wait=False`` — what the HTTP layer
  uses — raises :class:`BackpressureError` immediately so clients get
  an honest 503 instead of an unbounded in-memory backlog.

Since PR 5 the execution side is a **per-context scheduler**
(:mod:`repro.service.scheduler`): one serial worker lane per
registered context (capped by ``max_context_workers``), so the
determinism contract holds per context while runs on *different*
contexts overlap on multi-core hosts.  A tune or retune runs in its
lane thread and never forks; only a ``sweep`` shards, over a pool that
lives for that sweep (``workers`` runs in flight).  Long-running work
is best submitted as a **job**
(:mod:`repro.service.jobs`): durable records with streamed per-greedy-
step progress and cancellation, served over ``/v1/jobs``.
"""

from __future__ import annotations

import asyncio
import copy
import json
import logging
import math
import numbers
import os
import sys

from repro.catalog.schema import Database
from repro.checks import check_count
from repro.errors import AdvisorError, BackpressureError, ServiceError
from repro.parallel.cache import CostCache, EstimationCache
from repro.service.context import ServiceContext
from repro.service.faults import (
    FaultPlan,
    describe_active,
    fire,
    install,
    install_from_env,
)
from repro.service.jobs import JobManager, JobRecord
from repro.service.journal import JobJournal
from repro.service.scheduler import ContextLane, ContextScheduler
from repro.service.wire import validate_job_payload, validate_request
from repro.stats.column_stats import DatabaseStats
from repro.workload.query import Workload

logger = logging.getLogger(__name__)

REQUEST_KINDS = ("tune", "sweep", "estimate_size", "whatif_cost")


def canonical_payload(payload: dict) -> str:
    """The canonical JSON form coalescing keys are built from: two
    payloads with the same content coalesce regardless of key order."""
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ServiceError(
            f"request payload is not JSON-serializable: {exc}"
        ) from exc


class AdvisorService:
    """Long-lived async tuning service over registered contexts.

    Args:
        workers: advisor runs in flight at once inside one ``sweep``
            (0 = one per CPU, 1 = sequential); tunes never fork.
        cache_dir: directory for the persistent size-estimate and
            what-if cost caches, shared by every context and request.
        max_pending: bound of the request queue (backpressure beyond).
        max_context_workers: scheduler lane cap — at most this many
            contexts execute concurrently; beyond it contexts share
            lanes (per-context runs always serialize on their lane).
        tenant_quota: per-tenant cap on active (non-terminal) jobs —
            submissions beyond it raise
            :class:`~repro.errors.QuotaExceededError` (HTTP 429).
        poll_interval: seconds between housekeeping ticks (only with a
            ``cache_dir``): the degraded-mode journal probe and the
            queued-deadline sweep.
        fault_plan: a :mod:`repro.service.faults` plan string to
            install at construction (chaos tests / ``repro serve
            --fault-plan``); the ``REPRO_FAULTS`` environment variable
            is honored either way.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache_dir: str | None = None,
        max_pending: int = 64,
        max_context_workers: int = 4,
        tenant_quota: int | None = None,
        poll_interval: float = 0.25,
        fault_plan: str | None = None,
    ) -> None:
        if isinstance(workers, bool) \
                or not isinstance(workers, numbers.Integral) or workers < 0:
            raise ServiceError(
                f"workers must be an integer >= 0, got {workers!r}"
            )
        try:
            max_pending = check_count("max_pending", max_pending)
            max_context_workers = check_count(
                "max_context_workers", max_context_workers
            )
            if tenant_quota is not None:
                tenant_quota = check_count("tenant_quota", tenant_quota)
        except AdvisorError as exc:
            raise ServiceError(str(exc)) from None
        if not 0 < poll_interval < math.inf:
            raise ServiceError(
                f"poll_interval must be a finite number > 0, "
                f"got {poll_interval}"
            )
        self.workers = int(workers)
        self.cache_dir = cache_dir
        self.estimation_cache = (
            EstimationCache(cache_dir) if cache_dir is not None else None
        )
        self.cost_cache = (
            CostCache(cache_dir) if cache_dir is not None else None
        )
        self.max_pending = max_pending
        self.max_context_workers = max_context_workers
        self.contexts: dict[str, ServiceContext] = {}
        self.scheduler = ContextScheduler(max_lanes=max_context_workers)
        #: the durable job journal (None without a cache_dir: the job
        #: tier degrades to the in-memory pre-durability behavior).
        # Fault injection activates before the first journal append so
        # a planned boot-time fault is not missed.
        install_from_env()
        if fault_plan:
            install(FaultPlan.parse(fault_plan))
        self.journal = (
            JobJournal(os.path.join(cache_dir, "jobs-journal"))
            if cache_dir is not None else None
        )
        self.poll_interval = poll_interval
        self._poll_task: asyncio.Task | None = None
        self.jobs = JobManager(
            self, journal=self.journal, tenant_quota=tenant_quota,
        )

        self._inflight: dict[tuple, asyncio.Future] = {}
        self._active: set[asyncio.Task] = set()
        self._running = False
        self._closing = False
        self._scheduler_spent = False
        #: admission gate: requests admitted but not yet executing on a
        #: lane.  A slot frees when a lane thread picks the request up
        #: — the same instant the old dispatch loop popped the bounded
        #: queue — so ``max_pending`` bounds exactly what it used to.
        self._waiting = 0
        self._gate_waiters: list[asyncio.Future] = []

        #: per-kind instrumentation.
        self.requests = {kind: 0 for kind in REQUEST_KINDS}
        self.coalesced = {kind: 0 for kind in REQUEST_KINDS}
        self.completed = {kind: 0 for kind in REQUEST_KINDS}
        self.failed = {kind: 0 for kind in REQUEST_KINDS}
        self.rejected = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        database: Database,
        workload: Workload,
        *,
        stats: DatabaseStats | None = None,
        e: float = 0.5,
        q: float = 0.9,
    ) -> ServiceContext:
        """Register a (database, workload) context clients can address.
        Registration is cheap; statistics and samples build lazily on
        the first request that needs them."""
        if name in self.contexts:
            raise ServiceError(f"context {name!r} already registered")
        context = ServiceContext(
            name, database, workload,
            stats=stats,
            estimation_cache=self.estimation_cache,
            cost_cache=self.cost_cache,
            cache_dir=self.cache_dir,
            e=e, q=q,
        )
        self.contexts[name] = context
        return context

    @property
    def started(self) -> bool:
        return self._running

    async def start(self) -> None:
        """Start serving (idempotent)."""
        if self.started:
            return
        self._closing = False
        self._waiting = 0
        self._gate_waiters = []
        if self._scheduler_spent:
            # A stopped scheduler's lane executors are terminally shut
            # down; a restarted service schedules on fresh lanes.
            self.scheduler = ContextScheduler(
                max_lanes=self.max_context_workers
            )
            self._scheduler_spent = False
        self._running = True
        # Durable job tier: restore journaled jobs (re-enqueue queued,
        # mark interrupted runs recovered) and start the housekeeping
        # tick.
        self.jobs.recover()
        if self.journal is not None and self._poll_task is None:
            self._poll_task = asyncio.get_running_loop().create_task(
                self._poll_journal()
            )

    async def _poll_journal(self) -> None:
        """The housekeeping that needs a steady heartbeat, on a fixed
        cadence: the queued-deadline sweep and the degraded-mode
        journal probe.  A transient failure must not kill the task, so
        each tick is guarded and the next one retries."""
        while True:
            await asyncio.sleep(self.poll_interval)
            try:
                self.jobs.watchdog_sweep()
                self.jobs.journal_probe()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - keep polling
                logger.warning("journal poll failed (will retry): %s",
                               exc)

    async def stop(self, drain: bool = True) -> None:
        """Stop the service: optionally drain admitted requests and
        jobs, then shut down every scheduler lane (executor threads) and
        persist the caches.  With ``drain=False``,
        admitted-but-unexecuted requests fail with
        :class:`ServiceError` and running jobs are flagged for
        cancellation — they unwind at their next progress event."""
        if not self._running:
            return
        self._closing = True
        if self._poll_task is not None:
            self._poll_task.cancel()
            try:
                await self._poll_task
            except asyncio.CancelledError:
                pass
            self._poll_task = None
        if drain:
            while self._active:
                await asyncio.gather(*list(self._active),
                                     return_exceptions=True)
            await self.jobs.drain()
        else:
            self.jobs.cancel_all()
        self._running = False
        # Stop in-flight request tasks (their executor threads finish
        # on their own; the caller must not hang on a future nobody
        # will resolve).
        for task in list(self._active):
            task.cancel()
        if self._active:
            await asyncio.gather(*list(self._active),
                                 return_exceptions=True)
        # Fail whatever never ran (stop(drain=False) under load).
        for fut in self._inflight.values():
            if not fut.done():
                fut.set_exception(ServiceError("service stopped"))
        self._inflight.clear()
        # Wake callers parked at the admission gate; they observe their
        # already-failed future instead of waiting on a gate nobody
        # will ever open again.
        self._wake_gate()
        # Cancelled jobs settle fast (their runs unwind at the next
        # progress event); wait so no lane thread outlives the service.
        await self.jobs.drain()
        # Waits for in-flight lane threads — a stopped service never
        # abandons a run halfway through shared cache state.
        self.scheduler.shutdown(wait=True)
        self._scheduler_spent = True
        if self.journal is not None:
            self.journal.close()
        self.save_caches()

    def save_caches(self) -> None:
        if self.estimation_cache is not None:
            self.estimation_cache.save()
        if self.cost_cache is not None:
            self.cost_cache.save()

    async def __aenter__(self) -> "AdvisorService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # admission gate (the bounded "queue": requests admitted but not
    # yet executing on a lane)
    # ------------------------------------------------------------------
    def _admit_nowait(self) -> None:
        if self._waiting >= self.max_pending:
            raise BackpressureError(
                f"request queue full ({self.max_pending} pending); "
                "retry later"
            )
        self._waiting += 1

    async def _admit(self) -> bool:
        """Park until a slot frees (FIFO); False when woken by a
        closing service — the caller's future is already failed."""
        while self._waiting >= self.max_pending and not self._closing:
            gate = asyncio.get_running_loop().create_future()
            self._gate_waiters.append(gate)
            try:
                await gate
            finally:
                if gate in self._gate_waiters:
                    self._gate_waiters.remove(gate)
        if self._closing:
            return False
        self._waiting += 1
        return True

    def _free_slot(self) -> None:
        """Free one admission slot and wake the next parked caller."""
        self._waiting -= 1
        for gate in self._gate_waiters:
            if not gate.done():
                gate.set_result(None)
                break

    def _wake_gate(self) -> None:
        for gate in self._gate_waiters:
            if not gate.done():
                gate.set_result(None)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    async def request(
        self, kind: str, context: str, payload: dict | None = None,
        *, wait: bool = True,
    ) -> dict:
        """Issue one request and await its response payload.

        Identical in-flight requests coalesce onto a single future.
        ``wait`` controls backpressure style: suspend until the bounded
        admission gate has room (True), or raise
        :class:`BackpressureError` immediately (False).
        """
        if kind not in REQUEST_KINDS:
            raise ServiceError(
                f"unknown request kind {kind!r}; one of {REQUEST_KINDS}"
            )
        if context not in self.contexts:
            raise ServiceError(
                f"unknown context {context!r}; registered: "
                f"{sorted(self.contexts)}"
            )
        if not self.started or self._closing:
            raise ServiceError("service is not running")
        payload = dict(payload or {})
        # The same closed envelope the HTTP layer enforces: in-process
        # callers must not smuggle routing (or any unknown) fields into
        # a coalescing key.
        validate_request(kind, payload)
        key = (kind, context, canonical_payload(payload))
        self.requests[kind] += 1
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced[kind] += 1
            # shield: one waiter's cancellation must not fail the rest;
            # deep copy: one waiter mutating its answer must not
            # corrupt the others' (or the cached sequential baseline).
            return copy.deepcopy(await asyncio.shield(existing))
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            if wait:
                # Await point: identical requests may coalesce onto
                # `future` while we are parked here, so any bail-out
                # below must resolve it — waiters hold a shield on it
                # and would otherwise hang forever.
                admitted = await self._admit()
            else:
                self._admit_nowait()
                admitted = True
        except BackpressureError:
            self._inflight.pop(key, None)
            future.cancel()
            self.rejected += 1
            raise
        except BaseException:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_exception(
                    ServiceError("request cancelled before execution")
                )
            raise
        if admitted:
            task = asyncio.get_running_loop().create_task(
                self._run_item(key, kind, context, payload)
            )
            self._active.add(task)
            task.add_done_callback(self._active.discard)
        return copy.deepcopy(await asyncio.shield(future))

    async def tune(self, context: str, **payload) -> dict:
        return await self.request("tune", context, payload)

    async def sweep(self, context: str, **payload) -> dict:
        return await self.request("sweep", context, payload)

    async def estimate_size(self, context: str, **payload) -> dict:
        return await self.request("estimate_size", context, payload)

    async def whatif_cost(self, context: str, **payload) -> dict:
        return await self.request("whatif_cost", context, payload)

    # ------------------------------------------------------------------
    async def _run_item(
        self, key: tuple, kind: str, context: str, payload: dict,
    ) -> None:
        """Execute one admitted request on its context's lane; resolve
        the coalesced future.

        Requests on the same lane serialize through the lane's request
        lock (FIFO), so the determinism contract holds exactly as under
        the old single executor — while requests on different contexts'
        lanes overlap.  The admission slot frees the moment a lane
        picks the request up, mirroring the old dispatch-loop pop."""
        future = self._inflight.get(key)
        lane = self.scheduler.lane_for(context)
        slot_held = True

        def free_slot() -> None:
            nonlocal slot_held
            if slot_held:
                slot_held = False
                self._free_slot()

        try:
            async with lane.request_lock:
                free_slot()
                result = await lane.run(
                    self._execute, kind, context, payload, lane
                )
        except asyncio.CancelledError:
            # Service stopped mid-request (stop(drain=False) under
            # load): the lane thread finishes the work on its own, but
            # the caller must not hang on a future nobody will ever
            # resolve.
            free_slot()
            if future is not None and not future.done():
                future.set_exception(ServiceError("service stopped"))
            self._inflight.pop(key, None)
            raise
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            free_slot()
            self.failed[kind] += 1
            if future is not None and not future.done():
                future.set_exception(exc)
        else:
            self.completed[kind] += 1
            if future is not None and not future.done():
                future.set_result(result)
        self._inflight.pop(key, None)

    def _execute(
        self, kind: str, context_name: str, payload: dict,
        lane: ContextLane | None = None, progress=None,
    ) -> dict:
        """Synchronous request execution (runs on a lane thread).

        ``lane`` is the lane thread this runs on (counted only);
        ``progress`` threads the job layer's event hook into the
        advisor."""
        fire("service.execute", kind=kind, context=context_name)
        context = self.contexts[context_name]
        if lane is not None:
            lane.executed += 1
        if kind == "tune":
            return context.run_tune(payload, progress=progress)
        if kind == "sweep":
            return context.run_sweep(payload, self.workers,
                                     progress=progress)
        if kind == "retune":
            return context.run_retune(payload, progress=progress)
        if kind == "estimate_size":
            return context.run_estimate_size(payload)
        if kind == "whatif_cost":
            return context.run_whatif_cost(payload)
        raise ServiceError(f"unknown request kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # jobs (see repro.service.jobs — thin delegation so the HTTP layer
    # and in-process callers share one entry point)
    # ------------------------------------------------------------------
    def submit_job(self, kind: str, context: str,
                   payload: dict | None = None, *,
                   tenant: str = "default",
                   priority: str = "normal",
                   deadline_s: float | None = None,
                   retries: int = 0,
                   retry_backoff: float | None = None) -> JobRecord:
        """Submit a ``tune``/``sweep``/``retune`` job; returns its
        record (poll
        via :meth:`job`, stream via :meth:`job_events`).  ``tenant``
        tags the submission for fairness/quota accounting; ``priority``
        picks its lane (``high``/``normal``/``low``); ``deadline_s``
        bounds its wall time from submission; ``retries``/
        ``retry_backoff`` give transient failures a budget."""
        # Same closed schema as POST /v1/jobs, minus the envelope: a
        # payload smuggling routing fields would skew journaled
        # re-runs, so it fails at submission.
        payload = dict(payload or {})
        validate_job_payload(kind, payload)
        target = self.contexts.get(context)
        if target is not None:
            # Validate the payload and resolve a retune's previous
            # configuration INTO it now, so a bad job is never
            # journaled and a journaled retune is self-contained: a
            # re-run after a restart, or a retried attempt, replays the
            # exact same run, whatever finished since.
            target.prepare_job(
                kind, payload,
                self.jobs.carried_configuration(context)
                if kind == "retune" else None,
            )
        return self.jobs.submit(kind, context, payload,
                                tenant=tenant, priority=priority,
                                deadline_s=deadline_s, retries=retries,
                                retry_backoff=retry_backoff)

    @property
    def degraded(self) -> bool:
        """True while any disk-pressure degradation is active: the job
        journal is buffering in memory, or the last save through a
        persistent cache's log — a job's fork views and its stage's
        selection and memo files write through the same log — failed with
        ``ENOSPC``/``EIO``."""
        if self.jobs.degraded:
            return True
        for cache in (self.estimation_cache, self.cost_cache):
            if cache is not None and getattr(cache, "degraded", False):
                return True
        return False

    def job(self, job_id: str) -> JobRecord:
        return self.jobs.get(job_id)

    def cancel_job(self, job_id: str) -> JobRecord:
        return self.jobs.cancel(job_id)

    def job_events(self, job_id: str, after: int = 0):
        """Async iterator over a job's progress events (live tail)."""
        return self.jobs.stream(job_id, after)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service counters: queue state, per-kind request/coalescing/
        completion counts, scheduler lanes, jobs and cache stats, plus
        the interpreter's thread switch interval (what every lane
        handoff can wait, see :data:`repro.service.http.SWITCH_INTERVAL_S`)."""
        return {
            "contexts": sorted(self.contexts),
            "running": self.started,
            "switch_interval_s": sys.getswitchinterval(),
            "max_pending": self.max_pending,
            "queue_depth": self._waiting,
            "in_flight": len(self._inflight),
            "requests": dict(self.requests),
            "coalesced": dict(self.coalesced),
            "completed": dict(self.completed),
            "failed": dict(self.failed),
            "rejected": self.rejected,
            "scheduler": self.scheduler.stats(),
            "degraded": self.degraded,
            "faults": describe_active(),
            "jobs": self.jobs.stats(),
            "estimation_cache": (
                self.estimation_cache.stats()
                if self.estimation_cache is not None else {}
            ),
            "cost_cache": (
                self.cost_cache.stats()
                if self.cost_cache is not None else {}
            ),
        }
