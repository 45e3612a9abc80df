"""Chaos suite: the job tier's runtime guardrails under scheduled
faults (see ``repro.service.faults``).

The contract under test: whatever a :class:`FaultPlan` throws at the
tier — journal ``ENOSPC``, a worker dying mid-claim or mid-run, an
exploding cost batch, a blown deadline — every submitted job reaches a
journaled terminal state, event streams terminate, no lease outlives
its owner, and a job that succeeds on a retry returns a result
byte-identical to a sequential ``tune()``.

Fast scenarios run against a stub service (instant executions, the
same pattern as ``tests/test_journal.py``); one end-to-end test drives
a real :class:`AdvisorService` through a retry.  Every async scenario
is wrapped in ``asyncio.wait_for`` so a hung stream fails the test
instead of the suite (CI adds pytest-timeout on top; the suite must
not require it locally).

``REPRO_CHAOS_SEED`` selects the seeded schedule the randomized
scenario replays — the CI chaos matrix runs seeds 0..2; every seed
must converge to all-terminal.
"""

import asyncio
import errno
import json
import os
import time

import pytest

from repro.advisor import algorithms
from repro.api import Session, tune
from repro.datasets.sales import sales_database, sales_workload
from repro.errors import JobError
from repro.service import (
    AdvisorService,
    JobWorker,
    serialize_result,
)
from repro.service import faults
from repro.service.faults import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    SITES,
)
from repro.service.jobs import JobManager, retry_delay
from repro.service.journal import JobJournal
from repro.service.scheduler import ContextScheduler


CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def clean_faults():
    """No plan leaks across tests, whatever a scenario installed."""
    faults.clear()
    yield
    faults.clear()


def run(coro, timeout=30):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


class StubService:
    """Quacks like AdvisorService as far as JobManager/JobWorker care,
    with fault-site emulation: ``_execute`` fires the same injection
    sites the real service's execution path does, so seeded plans
    exercise the retry machinery without real tuning runs."""

    def __init__(self, journal=None, fail_times=0, **manager_kwargs):
        self.contexts = {"alpha": object(), "beta": object()}
        self.started = True
        self._closing = False
        self.max_pending = 64
        self.scheduler = ContextScheduler(max_lanes=2)
        self.journal = journal
        self.executed = []
        #: fail the first N executions with a transient error.
        self.fail_times = fail_times
        #: optional hook called with (payload, progress) per execution.
        self.on_execute = None
        self.jobs = JobManager(self, journal=journal, **manager_kwargs)

    def _execute(self, kind, context, payload, lane=None, progress=None):
        self.executed.append(payload.get("job"))
        # Emulate the real call graph's injection sites.
        faults.fire("service.execute", kind=kind, context=context)
        faults.fire("coster.batch", configs=1)
        faults.fire("estimator.estimate", indexes=1)
        if self.on_execute is not None:
            self.on_execute(payload, progress)
        if len(self.executed) <= self.fail_times:
            raise ValueError(f"transient boom #{len(self.executed)}")
        if progress is not None:
            progress({"event": "phase", "phase": "work"})
        return {"ok": True, "execution": len(self.executed)}

    def save_caches(self):
        pass

    def shutdown(self):
        self.scheduler.shutdown()
        if self.journal is not None:
            self.journal.close()


def doctor_lease_dead(journal, job_id):
    """Rewrite a lease as an unreachable owner: no pid (liveness falls
    back to the heartbeat) and a heartbeat far past the TTL — how a
    died-with-its-host worker looks from the coordinator."""
    path = journal._lease_path(job_id)
    with open(path, encoding="utf-8") as fh:
        info = json.load(fh)
    info["pid"] = None
    info["heartbeat"] = 0.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(info, fh)


class TestFaultPlanGrammar:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "journal.append:enospc@5x3;"
            "coster.batch:errorx1@2;"
            "estimator.estimate:delay=0.05;"
            "worker.heartbeat:stall~job-000007"
        )
        a, b, c, d = plan.specs
        assert (a.site, a.kind, a.after, a.times) == \
            ("journal.append", "enospc", 5, 3)
        # @ and x suffixes compose in either order.
        assert (b.site, b.kind, b.after, b.times) == \
            ("coster.batch", "error", 2, 1)
        assert (c.kind, c.delay, c.times) == ("delay", 0.05, None)
        assert (d.kind, d.match) == ("stall", "job-000007")

    def test_parse_rejects_unknowns(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("no.such.site:error")
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("journal.append:frobnicate")
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("journal.append")
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("estimator.estimate:delay=nope")

    def test_fire_honors_after_times_and_match(self):
        plan = FaultPlan([FaultSpec("coster.batch", "error",
                                    after=1, times=1)])
        plan.fire("coster.batch")  # skipped: after=1
        with pytest.raises(InjectedFault):
            plan.fire("coster.batch")
        plan.fire("coster.batch")  # exhausted: times=1
        assert plan.specs[0].calls == 3
        assert plan.specs[0].fired == 1

        scoped = FaultPlan([FaultSpec("scheduler.lane", "error",
                                      match="alpha")])
        scoped.fire("scheduler.lane", context="beta")  # no match
        with pytest.raises(InjectedFault):
            scoped.fire("scheduler.lane", context="alpha")

    def test_errno_kinds_raise_oserror(self):
        plan = FaultPlan([FaultSpec("journal.append", "enospc"),
                          FaultSpec("journal.fsync", "eio")])
        with pytest.raises(OSError) as err:
            plan.fire("journal.append")
        assert err.value.errno == errno.ENOSPC
        with pytest.raises(OSError) as err:
            plan.fire("journal.fsync")
        assert err.value.errno == errno.EIO

    def test_seeded_schedules_are_deterministic(self):
        for seed in range(3):
            first = FaultPlan.seeded(seed).describe()
            again = FaultPlan.seeded(seed).describe()
            assert first == again
            for spec in first:
                assert spec["site"] in SITES
                assert spec["kind"] in ("error", "enospc")
                assert 1 <= spec["times"] <= 2
        assert FaultPlan.seeded(0).describe() != \
            FaultPlan.seeded(1).describe()

    def test_install_rebinds_out_of_package_hooks(self):
        import repro.advisor.algorithms.base as search
        import repro.parallel.cache as cache
        import repro.sizeest.estimator as estimator

        plan = faults.install(FaultPlan.parse("coster.batch:errorx1"))
        assert search.FAULT_HOOK is faults.fire
        assert cache.FAULT_HOOK is faults.fire
        assert estimator.FAULT_HOOK is faults.fire
        assert faults.active() is plan
        assert faults.describe_active() == plan.describe()
        faults.clear()
        assert search.FAULT_HOOK is None
        assert faults.active() is None
        assert faults.describe_active() is None

    def test_install_from_env(self):
        assert faults.install_from_env({}) is None
        plan = faults.install_from_env(
            {"REPRO_FAULTS": "journal.append:enospcx1"}
        )
        assert plan is not None
        assert faults.active() is plan
        # Unset env leaves an installed plan alone.
        assert faults.install_from_env({}) is None
        assert faults.active() is plan


class TestRetryPolicy:
    def test_retry_delay_is_jittered_exponential_and_deterministic(self):
        d1 = retry_delay("job-000001", 1, 0.5)
        d2 = retry_delay("job-000001", 2, 0.5)
        assert 0.25 <= d1 < 0.75        # 0.5 * 2^0 * [0.5, 1.5)
        assert 0.5 <= d2 < 1.5          # 0.5 * 2^1 * [0.5, 1.5)
        assert d1 == retry_delay("job-000001", 1, 0.5)
        assert retry_delay("job-000001", 1, 0.0) == 0.0

    def test_submit_validates_guardrail_fields(self):
        service = StubService()
        try:
            for bad in (dict(deadline_s=0), dict(deadline_s="soon"),
                        dict(retries=-1), dict(retries=True),
                        dict(retries=1.5), dict(retry_backoff=-0.1),
                        dict(retry_backoff="fast")):
                with pytest.raises(JobError):
                    service.jobs.submit("tune", "alpha", {}, **bad)
        finally:
            service.shutdown()

    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        async def scenario():
            journal = JobJournal(str(tmp_path), "coordinator")
            service = StubService(journal=journal, fail_times=1)
            try:
                record = service.jobs.submit(
                    "tune", "alpha", {"job": "j"},
                    retries=2, retry_backoff=0.0,
                )
                await service.jobs.drain()
                return (record.snapshot(), list(record.events),
                        service.jobs.stats(),
                        journal.replay()[record.id])
            finally:
                service.shutdown()

        snapshot, events, stats, image = run(scenario())
        assert snapshot["state"] == "done"
        assert snapshot["attempt"] == 1
        assert snapshot["result"]["execution"] == 2
        assert stats["retried"] == 1
        retry_events = [e for e in events if e["event"] == "retry"]
        assert len(retry_events) == 1
        assert retry_events[0]["attempt"] == 1
        assert "transient boom" in retry_events[0]["error"]
        # The journal agrees: terminal done on attempt 1, gapless.
        assert image.state == "done"
        assert image.attempt == 1
        assert image.seq_gapless()
        # A retried job was never failed.
        states = [e.get("state") for e in events
                  if e["event"] == "state"]
        assert "failed" not in states

    def test_exhausted_retry_budget_fails_terminally(self, tmp_path):
        async def scenario():
            journal = JobJournal(str(tmp_path), "coordinator")
            service = StubService(journal=journal, fail_times=10)
            try:
                record = service.jobs.submit(
                    "tune", "alpha", {"job": "j"},
                    retries=2, retry_backoff=0.0,
                )
                await service.jobs.drain()
                return record.snapshot(), service.jobs.stats(), \
                    journal.replay()[record.id]
            finally:
                service.shutdown()

        snapshot, stats, image = run(scenario())
        assert snapshot["state"] == "failed"
        assert snapshot["attempt"] == 2     # initial + 2 retries
        assert "transient boom #3" in snapshot["error"]
        assert stats["retried"] == 2
        assert image.state == "failed"

    def test_injected_coster_fault_is_retried(self, tmp_path):
        """The enumerated estimator/coster-exception plan: one injected
        failure, one retry, job done."""

        async def scenario():
            faults.install(FaultPlan.parse("coster.batch:errorx1"))
            service = StubService(
                journal=JobJournal(str(tmp_path), "coordinator"))
            try:
                record = service.jobs.submit(
                    "tune", "alpha", {"job": "j"},
                    retries=1, retry_backoff=0.0,
                )
                await service.jobs.drain()
                return record.snapshot(), faults.describe_active()
            finally:
                service.shutdown()

        snapshot, schedule = run(scenario())
        assert snapshot["state"] == "done"
        assert snapshot["attempt"] == 1
        assert schedule[0]["fired"] == 1


class TestDeadlines:
    def test_expired_before_start_fails_without_running(self):
        async def scenario():
            service = StubService()
            try:
                record = service.jobs.submit(
                    "tune", "alpha", {"job": "j"},
                    deadline_s=5.0, retries=3, retry_backoff=0.0,
                )
                # Age the submission past its deadline before the task
                # gets its first turn: the pre-run check must fail it.
                record.created -= 100.0
                await service.jobs.drain()
                return (record.snapshot(), list(record.events),
                        service.jobs.stats(), service.executed)
            finally:
                service.shutdown()

        snapshot, events, stats, executed = run(scenario())
        assert snapshot["state"] == "failed"
        assert snapshot["timeout"] is True
        assert executed == []               # never ran
        assert stats["retried"] == 0        # deadlines are not retried
        terminal = [e for e in events if e.get("state") == "failed"]
        assert terminal and terminal[0]["timeout"] is True

    def test_expiry_mid_run_unwinds_via_progress_hook(self):
        async def scenario():
            service = StubService()

            def expire_then_progress(payload, progress):
                record = service.jobs.get(payload["job_id"])
                record.created -= 100.0
                progress({"event": "phase", "phase": "late"})

            service.on_execute = expire_then_progress
            try:
                record = service.jobs.submit(
                    "tune", "alpha",
                    {"job": "j", "job_id": "job-000001"},
                    deadline_s=5.0, retries=3, retry_backoff=0.0,
                )
                await service.jobs.drain()
                return record.snapshot(), service.jobs.stats()
            finally:
                service.shutdown()

        snapshot, stats = run(scenario())
        assert snapshot["state"] == "failed"
        assert snapshot["timeout"] is True
        assert "deadline" in snapshot["error"]
        assert stats["retried"] == 0

    def test_stream_terminates_after_timeout(self):
        async def scenario():
            service = StubService()
            try:
                record = service.jobs.submit(
                    "tune", "alpha", {"job": "j"}, deadline_s=5.0)
                record.created -= 100.0
                events = []
                async for event in service.jobs.stream(record.id):
                    events.append(event)
                return events
            finally:
                service.shutdown()

        events = run(scenario(), timeout=10)
        assert events[-1]["state"] == "failed"
        assert events[-1]["timeout"] is True
        assert [e["seq"] for e in events] == \
            list(range(1, len(events) + 1))

    def test_queued_deadline_swept_by_watchdog(self, tmp_path):
        journal = JobJournal(str(tmp_path), "coordinator")
        service = StubService(journal=journal, execute_jobs=False)
        try:
            record = service.jobs.submit(
                "tune", "alpha", {"job": "j"}, deadline_s=0.01)
            time.sleep(0.03)
            swept = service.jobs.watchdog_sweep()
            assert swept["deadline_expired"] == 1
            assert record.state == "failed"
            assert record.timeout is True
            assert journal.replay()[record.id].state == "failed"
        finally:
            service.shutdown()


class TestDiskPressureDegradation:
    def test_enospc_flips_degraded_and_probe_recovers(self, tmp_path):
        async def scenario():
            faults.install(FaultPlan.parse("journal.append:enospcx2"))
            journal = JobJournal(str(tmp_path), "coordinator")
            service = StubService(journal=journal)
            try:
                # The submit's own journal write hits ENOSPC: the tier
                # degrades but the job still runs to completion.
                record = service.jobs.submit("tune", "alpha",
                                             {"job": "j"})
                assert service.jobs.degraded is True
                await service.jobs.drain()
                assert record.state == "done"
                degraded_stats = service.jobs.stats()["degraded"]
                # First probe replays into the second injected ENOSPC;
                # the next one drains the whole buffer.
                still_degraded = service.jobs.journal_probe()
                recovered = service.jobs.journal_probe()
                return (record.snapshot(), degraded_stats,
                        still_degraded, recovered,
                        service.jobs.degraded, journal.replay())
            finally:
                service.shutdown()

        (snapshot, degraded_stats, still_degraded, recovered,
         degraded_after, images) = run(scenario())
        assert degraded_stats["active"] is True
        assert "injected" in degraded_stats["reason"]
        assert degraded_stats["buffered"] > 0
        assert still_degraded is False
        assert recovered is True
        assert degraded_after is False
        # Nothing was lost: the drained journal replays the full job.
        image = images[snapshot["id"]]
        assert image.state == "done"
        assert image.seq_gapless()
        assert image.result == snapshot["result"]
        # The degraded window itself is journaled: a mode-record pair.
        segment = os.path.join(str(tmp_path),
                               "segment-coordinator.jsonl")
        with open(segment, encoding="utf-8") as fh:
            modes = [json.loads(line)["mode"] for line in fh
                     if '"rec":"mode"' in line]
        assert modes == ["degraded", "healthy"]

    def test_non_disk_oserror_still_raises(self, tmp_path):
        async def scenario():
            faults.install(FaultPlan.parse("journal.append:errorx1"))
            journal = JobJournal(str(tmp_path), "coordinator")
            service = StubService(journal=journal)
            try:
                with pytest.raises(InjectedFault):
                    service.jobs.submit("tune", "alpha", {"job": "j"})
                return service.jobs.degraded
            finally:
                service.shutdown()

        assert run(scenario()) is False

    def test_cache_save_degrades_and_recovers(self, tmp_path):
        from repro.parallel.cache import _PersistentJsonCache

        cache = _PersistentJsonCache(str(tmp_path / "cache"))
        cache._store("k", {"v": 1})
        faults.install(FaultPlan.parse("cache.save:enospcx1"))
        cache.save()                      # injected ENOSPC: swallowed
        assert cache.degraded is True
        assert cache.save_errors == 1
        assert cache.stats()["degraded"] is True
        cache.save()                      # probe-and-recover
        assert cache.degraded is False
        assert _PersistentJsonCache(str(tmp_path / "cache")) \
            ._lookup("k") == {"v": 1}


class TestWorkerWatchdog:
    def make_tier(self, tmp_path, **submit_kwargs):
        coordinator = StubService(
            journal=JobJournal(str(tmp_path), "coordinator"),
            execute_jobs=False,
        )
        record = coordinator.jobs.submit("tune", "alpha", {"job": "j"},
                                         **submit_kwargs)
        return coordinator, record

    def make_worker(self, tmp_path, writer):
        service = StubService(
            journal=JobJournal(str(tmp_path), writer),
            execute_jobs=False,
        )
        return service, JobWorker(service, poll_interval=0.01)

    def test_death_mid_claim_is_swept_and_redispatched(self, tmp_path):
        coordinator, record = self.make_tier(tmp_path)
        wsvc, worker = self.make_worker(tmp_path, "worker-a")
        try:
            faults.install(FaultPlan.parse("worker.claim:errorx1"))
            with pytest.raises(InjectedFault):
                worker.run_once()         # dies with the lease held
            assert coordinator.journal.lease_info(record.id) is not None
            assert record.state == "queued"
            doctor_lease_dead(coordinator.journal, record.id)
            swept = coordinator.jobs.watchdog_sweep()
            assert swept["lease_breaks"] == 1
            assert coordinator.journal.lease_info(record.id) is None
            # Still queued: breaking the lease re-exposed it.
            assert worker.run_once() == record.id
            coordinator.jobs.apply_external(
                coordinator.journal.refresh())
            assert record.state == "done"
            assert coordinator.journal.lease_info(record.id) is None
        finally:
            coordinator.shutdown()
            wsvc.shutdown()

    def test_death_mid_run_requeues_with_retry_budget(self, tmp_path):
        coordinator, record = self.make_tier(
            tmp_path, retries=1, retry_backoff=0.0)
        dead = JobJournal(str(tmp_path), "worker-dead")
        wsvc, worker = self.make_worker(tmp_path, "worker-a")
        try:
            assert dead.claim(record.id)
            dead.append_state(record.id, "running", time.time())
            coordinator.jobs.apply_external(
                coordinator.journal.refresh())
            assert record.state == "running"
            doctor_lease_dead(coordinator.journal, record.id)
            swept = coordinator.jobs.watchdog_sweep()
            assert swept == {"lease_breaks": 1, "requeued": 1,
                             "failed": 0, "quarantined": 0,
                             "deadline_expired": 0}
            assert record.state == "queued"
            assert record.attempt == 1
            retry = [e for e in record.events if e["event"] == "retry"]
            assert retry and "worker-dead" in retry[0]["error"]
            # A healthy worker picks the orphan up and finishes it.
            assert worker.run_once() == record.id
            coordinator.jobs.apply_external(
                coordinator.journal.refresh())
            assert record.state == "done"
            assert coordinator.journal.replay()[record.id].attempt == 1
        finally:
            dead.close()
            coordinator.shutdown()
            wsvc.shutdown()

    def test_death_mid_run_without_budget_fails_the_job(self, tmp_path):
        coordinator, record = self.make_tier(tmp_path)
        dead = JobJournal(str(tmp_path), "worker-dead")
        try:
            assert dead.claim(record.id)
            dead.append_state(record.id, "running", time.time())
            coordinator.jobs.apply_external(
                coordinator.journal.refresh())
            doctor_lease_dead(coordinator.journal, record.id)
            swept = coordinator.jobs.watchdog_sweep()
            assert swept["failed"] == 1
            assert record.state == "failed"
            assert "worker-dead died mid-run" in record.error
            assert coordinator.journal.replay()[record.id].state == \
                "failed"
        finally:
            dead.close()
            coordinator.shutdown()

    def test_repeat_offender_is_quarantined(self, tmp_path):
        coordinator = StubService(
            journal=JobJournal(str(tmp_path), "coordinator"),
            execute_jobs=False,
        )
        evil = JobJournal(str(tmp_path), "worker-evil")
        try:
            for i in range(3):
                record = coordinator.jobs.submit(
                    "tune", "alpha", {"job": f"j{i}"})
                assert evil.claim(record.id)
                doctor_lease_dead(coordinator.journal, record.id)
                coordinator.jobs.watchdog_sweep()
            stats = coordinator.jobs.stats()["watchdog"]
            assert stats["lease_breaks"] == 3
            assert stats["lease_breaks_by_writer"]["worker-evil"] == 3
            assert stats["quarantined"] == 1
            assert coordinator.journal.writer_quarantined("worker-evil")
            assert coordinator.journal.quarantined_writers() == \
                ["worker-evil"]
            # The benched worker's claim loop refuses work even with
            # claimable jobs queued.
            wsvc, worker = self.make_worker(tmp_path, "worker-evil")
            try:
                assert worker.run_once() is None
            finally:
                wsvc.shutdown()
            # A healthy worker is unaffected.
            wsvc2, healthy = self.make_worker(tmp_path, "worker-good")
            try:
                assert healthy.run_once() is not None
            finally:
                wsvc2.shutdown()
        finally:
            evil.close()
            coordinator.shutdown()


class TestSeededChaos:
    def test_seeded_schedule_converges_to_all_terminal(self, tmp_path):
        """The CI matrix scenario: a seeded fault schedule over the
        execution-path sites, a batch of retrying jobs, and the
        invariant that everything reaches a journaled terminal state
        with gapless, terminating streams and no leases left behind."""
        seed = CHAOS_SEED

        async def scenario():
            faults.install(FaultPlan.seeded(seed, sites=[
                "service.execute", "coster.batch",
                "estimator.estimate",
            ]))
            journal = JobJournal(str(tmp_path), "coordinator")
            service = StubService(journal=journal)
            try:
                records = [
                    service.jobs.submit(
                        "tune", "alpha", {"job": f"j{i}"},
                        retries=2, retry_backoff=0.0,
                    )
                    for i in range(6)
                ]
                await service.jobs.drain()
                streams = []
                for record in records:
                    events = []
                    async for event in service.jobs.stream(record.id):
                        events.append(event)
                    streams.append(events)
                return ([r.snapshot() for r in records], streams,
                        journal.leases(), journal.replay(),
                        faults.describe_active())
            finally:
                service.shutdown()

        snapshots, streams, leases, images, schedule = \
            run(scenario(), timeout=60)
        assert leases == []
        fired = sum(spec["fired"] for spec in schedule)
        failed = sum(1 for s in snapshots if s["state"] == "failed")
        for snapshot, events in zip(snapshots, streams):
            assert snapshot["state"] in ("done", "failed")
            assert [e["seq"] for e in events] == \
                list(range(1, len(events) + 1))
            image = images[snapshot["id"]]
            assert image.state == snapshot["state"]
            assert image.seq_gapless()
        # Retry budget (2 per job) covers up to two firings per job;
        # only a 3-faults-on-one-job pileup may fail, and a failure
        # implies at least three firings landed somewhere.
        assert failed == 0 or fired >= 3


@pytest.fixture(scope="module")
def tuning_inputs():
    db = sales_database(scale=0.02)
    wl = sales_workload(db)
    return db, wl


class TestEndToEndRetryByteIdentity:
    def test_retry_succeeded_job_matches_sequential_tune(
            self, tuning_inputs, tmp_path):
        """A real AdvisorService whose first cost batch explodes: the
        retry re-runs the tune and the delivered result is
        byte-identical to a sequential ``tune()``."""
        db, wl = tuning_inputs

        async def scenario():
            service = AdvisorService(
                cache_dir=str(tmp_path / "cache"),
                fault_plan="coster.batch:errorx1",
            )
            service.register("sales", db, wl)
            await service.start()
            try:
                record = service.submit_job(
                    "tune", "sales",
                    dict(budget_fraction=0.12, variant="dtac-none"),
                    retries=1, retry_backoff=0.0,
                )
                events = []
                async for event in service.job_events(record.id):
                    events.append(event)
                return (record.snapshot(), events,
                        service.stats(), service.jobs.stats())
            finally:
                await service.stop()

        snapshot, events, svc_stats, job_stats = \
            run(scenario(), timeout=300)
        assert snapshot["state"] == "done"
        assert snapshot["attempt"] == 1
        assert job_stats["retried"] == 1
        assert svc_stats["degraded"] is False
        assert svc_stats["faults"][0]["fired"] == 1
        retry = [e for e in events if e["event"] == "retry"]
        assert len(retry) == 1
        assert "injected error" in retry[0]["error"]
        assert [e["seq"] for e in events] == \
            list(range(1, len(events) + 1))
        direct = tune(db, wl, db.total_data_bytes() * 0.12,
                      variant="dtac-none")
        assert snapshot["result"]["result"] == \
            serialize_result(direct)["result"]


class TestCostFaultSiteEveryStrategy:
    """``coster.batch`` fires in the search's one multi-configuration
    costing entry: no strategy, and not the retune search, costs a
    sweep around it."""

    @pytest.mark.parametrize("algorithm", algorithms.names())
    def test_tune_raises_injected_fault(self, tuning_inputs, algorithm):
        db, wl = tuning_inputs
        session = Session(db, wl, budget_fraction=0.12,
                          algorithm=algorithm)
        faults.install(FaultPlan.parse("coster.batch:errorx1"))
        with pytest.raises(InjectedFault):
            session.tune()

    def test_retune_raises_injected_fault(self, tuning_inputs):
        db, wl = tuning_inputs
        session = Session(db, wl, budget_fraction=0.12)
        session.tune()
        faults.install(FaultPlan.parse("coster.batch:errorx1"))
        with pytest.raises(InjectedFault):
            session.retune()
