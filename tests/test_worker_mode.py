"""Worker scale-out over the shared job journal.

The contract under test (see ``repro.service.worker``): workers claim
queued jobs through ``O_EXCL`` lease files (exactly one winner), skip
leased and cancel-marked jobs, journal the same running/events/result/
terminal sequence the in-process manager would (seq numbers continuing
the coordinator's queued event), honor cross-process cancel markers at
the next progress event, and release their lease when done.  A
dispatch-only coordinator folds the workers' journaled records back
into its live records, so polling/streaming clients cannot tell a
worker-executed job from a local one — and the result is byte-identical
to a sequential ``tune()``.
"""

import asyncio

import pytest

from repro.api import tune
from repro.datasets.sales import sales_database, sales_workload
from repro.service import (
    AdvisorService,
    JobWorker,
    serialize_result,
)
from repro.service.jobs import JobManager
from repro.service.journal import JobJournal
from repro.service.scheduler import ContextScheduler


def run(coro):
    return asyncio.run(coro)


class StubService:
    """The worker-facing slice of AdvisorService: contexts, a journal,
    a synchronous ``_execute``, and cache persistence (a no-op here)."""

    def __init__(self, journal, fail=False, **manager_kwargs):
        self.contexts = {"alpha": object(), "beta": object()}
        self.started = True
        self._closing = False
        self.max_pending = 64
        self.scheduler = ContextScheduler(max_lanes=2)
        self.journal = journal
        self.fail = fail
        #: job id to drop a cancel marker for mid-execution, so the
        #: next progress event observes it (cross-process cancel).
        self.cancel_target = None
        self.executed = []
        self.saved = 0
        self.jobs = JobManager(self, journal=journal,
                               execute_jobs=False, **manager_kwargs)

    def _execute(self, kind, context, payload, lane=None, progress=None):
        if self.cancel_target is not None:
            self.journal.request_cancel(self.cancel_target)
        if progress is not None:
            progress({"event": "phase", "phase": "work"})
        if self.fail:
            raise ValueError("boom")
        self.executed.append(payload.get("job"))
        return {"ok": True, "payload": payload}

    def save_caches(self):
        self.saved += 1

    def shutdown(self):
        self.scheduler.shutdown()
        self.journal.close()


def make_coordinator(tmp_path):
    journal = JobJournal(str(tmp_path), "coordinator")
    return StubService(journal)


def make_worker(tmp_path, writer, **kwargs):
    journal = JobJournal(str(tmp_path), writer)
    service = StubService(journal, **kwargs)
    return service, JobWorker(service, poll_interval=0.01)


class TestClaimProtocol:
    def test_two_workers_claim_disjoint_jobs(self, tmp_path, capsys):
        async def scenario():
            coordinator = make_coordinator(tmp_path)
            svc_a, worker_a = make_worker(tmp_path, "worker-a")
            svc_b, worker_b = make_worker(tmp_path, "worker-b")
            try:
                records = [
                    coordinator.jobs.submit("tune", "alpha",
                                            {"job": f"j{i}"})
                    for i in range(4)
                ]
                assert all(r.external for r in records)
                claims = {"worker-a": [], "worker-b": []}
                for _ in range(2):
                    claims["worker-a"].append(worker_a.run_once())
                    claims["worker-b"].append(worker_b.run_once())
                # Nothing left to claim.
                assert worker_a.run_once() is None
                # The coordinator folds the workers' records.
                coordinator.jobs.apply_external(
                    coordinator.journal.refresh())
                return records, claims, \
                    worker_a.stats(), worker_b.stats()
            finally:
                coordinator.shutdown()
                svc_a.shutdown()
                svc_b.shutdown()

        records, claims, stats_a, stats_b = run(scenario())
        claimed = claims["worker-a"] + claims["worker-b"]
        assert sorted(claimed) == sorted(r.id for r in records)
        assert stats_a["executed"]["done"] == 2
        assert stats_b["executed"]["done"] == 2
        for record in records:
            assert record.state == "done"
            assert record.result["ok"] is True
            assert [e["seq"] for e in record.events] == \
                list(range(1, len(record.events) + 1))
            states = [e["state"] for e in record.events
                      if e["event"] == "state"]
            assert states == ["queued", "running", "done"]
        # The CI smoke greps this exact line.
        out = capsys.readouterr().out
        for worker_id in ("worker-a", "worker-b"):
            assert f"worker {worker_id}: claimed job-" in out

    def test_leased_and_cancelled_jobs_are_skipped(self, tmp_path):
        async def scenario():
            coordinator = make_coordinator(tmp_path)
            svc, worker = make_worker(tmp_path, "worker-a")
            try:
                held = coordinator.jobs.submit("tune", "alpha",
                                               {"job": "held"})
                cancelled = coordinator.jobs.submit(
                    "tune", "alpha", {"job": "cancelled"})
                free = coordinator.jobs.submit("tune", "alpha",
                                               {"job": "free"})
                # Another process holds a lease on the first job; the
                # coordinator cancels the second (marker + eager-resolve
                # is suppressed only once a lease exists, so this one
                # resolves eagerly and leaves a marker).
                other = JobJournal(str(tmp_path), "worker-z")
                assert other.claim(held.id)
                coordinator.jobs.cancel(cancelled.id)
                assert worker.run_once() == free.id
                assert worker.run_once() is None
                other.release(held.id)
                other.close()
                assert worker.run_once() == held.id
                return svc.executed
            finally:
                coordinator.shutdown()
                svc.shutdown()

        assert run(scenario()) == ["free", "held"]

    def test_worker_releases_lease_and_saves_caches(self, tmp_path):
        async def scenario():
            coordinator = make_coordinator(tmp_path)
            svc, worker = make_worker(tmp_path, "worker-a")
            try:
                record = coordinator.jobs.submit("tune", "alpha",
                                                 {"job": "j"})
                assert worker.run_once() == record.id
                return svc.journal.lease_info(record.id), svc.saved
            finally:
                coordinator.shutdown()
                svc.shutdown()

        lease, saved = run(scenario())
        assert lease is None
        assert saved == 1


class TestWorkerExecutionOutcomes:
    def test_failure_is_journaled_with_error(self, tmp_path):
        async def scenario():
            coordinator = make_coordinator(tmp_path)
            svc, worker = make_worker(tmp_path, "worker-a", fail=True)
            try:
                record = coordinator.jobs.submit("tune", "alpha",
                                                 {"job": "j"})
                worker.run_once()
                coordinator.jobs.apply_external(
                    coordinator.journal.refresh())
                return record.snapshot()
            finally:
                coordinator.shutdown()
                svc.shutdown()

        snapshot = run(scenario())
        assert snapshot["state"] == "failed"
        assert "boom" in snapshot["error"]

    def test_cancel_marker_unwinds_mid_run(self, tmp_path):
        """A cancel landing while the worker executes is observed at
        the next progress event — same one-step latency bound as the
        in-process path."""

        async def scenario():
            coordinator = make_coordinator(tmp_path)
            svc, worker = make_worker(tmp_path, "worker-a")
            try:
                record = coordinator.jobs.submit("tune", "alpha",
                                                 {"job": "j"})
                svc.cancel_target = record.id
                worker.run_once()
                coordinator.jobs.apply_external(
                    coordinator.journal.refresh())
                return record.snapshot(), svc.executed, \
                    svc.journal.cancel_requested(record.id)
            finally:
                coordinator.shutdown()
                svc.shutdown()

        snapshot, executed, marker = run(scenario())
        assert snapshot["state"] == "cancelled"
        assert executed == []  # unwound before completing
        assert marker is False  # marker cleaned up

    def test_cancel_landing_in_claim_window_resolves_terminally(
            self, tmp_path):
        """The cancel/claim race: the coordinator's cancel sees our
        fresh lease and defers (marker only, no eager resolve); the
        worker's post-claim verify must then journal the terminal state
        itself — abandoning silently would strand the job ``queued``
        forever, since the claim scan skips cancel-marked jobs."""

        async def scenario():
            coordinator = make_coordinator(tmp_path)
            svc, worker = make_worker(tmp_path, "worker-a")
            try:
                record = coordinator.jobs.submit("tune", "alpha",
                                                 {"job": "j"})
                real_claim = worker.journal.claim

                def claim_then_cancel(job_id):
                    won = real_claim(job_id)
                    if won:  # cancel lands inside the claim window
                        coordinator.jobs.cancel(record.id)
                    return won

                worker.journal.claim = claim_then_cancel
                assert worker.run_once() is None  # nothing executed
                coordinator.jobs.apply_external(
                    coordinator.journal.refresh())
                return (record.snapshot(), svc.executed,
                        coordinator.journal.cancel_requested(record.id),
                        coordinator.journal.lease_info(record.id),
                        worker.stats())
            finally:
                coordinator.shutdown()
                svc.shutdown()

        snapshot, executed, marker, lease, stats = run(scenario())
        assert snapshot["state"] == "cancelled"
        assert executed == []  # never ran
        assert marker is False  # marker cleaned up
        assert lease is None  # lease released
        assert stats["executed"]["cancelled"] == 1
        # A later journal replay agrees: terminal, gap-free events.
        replayed = JobJournal(str(tmp_path), "reader").replay()
        image = replayed[snapshot["id"]]
        assert image.state == "cancelled"
        assert image.seq_gapless()

    def test_run_forever_bounds(self, tmp_path):
        async def scenario():
            coordinator = make_coordinator(tmp_path)
            svc, worker = make_worker(tmp_path, "worker-a")
            try:
                for i in range(3):
                    coordinator.jobs.submit("tune", "alpha",
                                            {"job": f"j{i}"})
                done = worker.run_forever(max_jobs=2)
                drained = worker.run_forever(idle_timeout=0.05)
                return done, drained
            finally:
                coordinator.shutdown()
                svc.shutdown()

        done, drained = run(scenario())
        assert done == 2
        assert drained == 1


class TestClaimOrdering:
    """Workers apply the same dispatch policy as the coordinator's
    turnstile: strict priority lanes, weighted round-robin across
    tenants inside a lane, submission order within a tenant — not
    plain FIFO over job ids."""

    def test_priority_then_tenant_round_robin(self, tmp_path):
        async def scenario():
            coordinator = make_coordinator(tmp_path)
            svc, worker = make_worker(tmp_path, "worker-a")
            try:
                ids = {}
                for name, tenant, priority in (
                    ("a-norm-1", "a", "normal"),
                    ("a-norm-2", "a", "normal"),
                    ("b-high", "b", "high"),
                    ("a-low", "a", "low"),
                    ("b-norm", "b", "normal"),
                ):
                    ids[coordinator.jobs.submit(
                        "tune", "alpha", {"job": name},
                        tenant=tenant, priority=priority).id] = name
                claimed = []
                while True:
                    job_id = worker.run_once()
                    if job_id is None:
                        break
                    claimed.append(ids[job_id])
                return claimed
            finally:
                coordinator.shutdown()
                svc.shutdown()

        # high first; then the normal lane rotates a, b, a; low last.
        assert run(scenario()) == [
            "b-high", "a-norm-1", "b-norm", "a-norm-2", "a-low",
        ]

    def test_tenant_weights_grant_consecutive_claims(self, tmp_path):
        async def scenario():
            journal = JobJournal(str(tmp_path), "coordinator")
            coordinator = StubService(journal,
                                      tenant_weights={"a": 2})
            worker_journal = JobJournal(str(tmp_path), "worker-a")
            worker_svc = StubService(worker_journal,
                                     tenant_weights={"a": 2})
            worker = JobWorker(worker_svc, poll_interval=0.01)
            try:
                ids = {}
                for name, tenant in (("a1", "a"), ("a2", "a"),
                                     ("a3", "a"), ("b1", "b"),
                                     ("b2", "b")):
                    ids[coordinator.jobs.submit(
                        "tune", "alpha", {"job": name},
                        tenant=tenant).id] = name
                claimed = []
                while True:
                    job_id = worker.run_once()
                    if job_id is None:
                        break
                    claimed.append(ids[job_id])
                return claimed
            finally:
                coordinator.shutdown()
                worker_svc.shutdown()

        # Weight 2 gives tenant a two consecutive claims per visit.
        assert run(scenario()) == ["a1", "a2", "b1", "a3", "b2"]


class TestCoordinatorPollResilience:
    def test_poll_task_survives_transient_refresh_errors(
            self, tmp_path):
        """A transient OSError from the shared filesystem must not
        kill the poll task — it is the only thing folding worker
        progress into the coordinator's records."""

        async def scenario():
            service = AdvisorService(cache_dir=str(tmp_path / "cache"),
                                     poll_interval=0.01)
            await service.start()
            try:
                calls = {"n": 0}
                real = service.journal.refresh

                def flaky():
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise OSError("shared fs hiccup")
                    return real()

                service.journal.refresh = flaky
                await asyncio.sleep(0.2)
                return calls["n"], service._poll_task.done()
            finally:
                await service.stop()

        calls, poll_dead = run(scenario())
        assert calls >= 2  # kept polling past the failure
        assert poll_dead is False


@pytest.fixture(scope="module")
def worker_inputs():
    db = sales_database(scale=0.02)
    wl = sales_workload(db)
    return db, wl


class TestEndToEndByteIdentity:
    def test_dispatch_only_coordinator_plus_worker_matches_tune(
            self, worker_inputs, tmp_path):
        """Full path: a dispatch-only coordinator journals the job, a
        real worker claims and executes it, the coordinator's poll task
        folds the records, and the streamed job is byte-identical to a
        sequential ``tune()``."""
        db, wl = worker_inputs

        async def scenario():
            coordinator = AdvisorService(
                cache_dir=str(tmp_path / "shared"),
                execute_jobs=False, poll_interval=0.05,
            )
            coordinator.register("sales", db, wl)
            await coordinator.start()
            worker_service = AdvisorService(
                cache_dir=str(tmp_path / "shared"),
                journal_writer="worker-a",
            )
            worker_service.register("sales", db, wl)
            worker = JobWorker(worker_service, poll_interval=0.05)
            try:
                record = coordinator.submit_job(
                    "tune", "sales",
                    dict(budget_fraction=0.12, variant="dtac-none"),
                )
                assert record.external is True
                claimed = await asyncio.get_running_loop() \
                    .run_in_executor(None, worker.run_once)
                assert claimed == record.id
                events = []
                async for event in coordinator.job_events(record.id):
                    events.append(event)
                return record.snapshot(), events
            finally:
                worker_service.scheduler.shutdown()
                worker_service.journal.close()
                await coordinator.stop()

        snapshot, events = run(scenario())
        assert snapshot["state"] == "done"
        assert [e["seq"] for e in events] == \
            list(range(1, len(events) + 1))
        states = [e["state"] for e in events if e["event"] == "state"]
        assert states == ["queued", "running", "done"]
        assert any(e["event"] == "greedy_step" for e in events)
        direct = tune(db, wl, db.total_data_bytes() * 0.12,
                      variant="dtac-none")
        assert snapshot["result"]["result"] == \
            serialize_result(direct)["result"]
