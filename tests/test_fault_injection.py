"""Chaos suite: the job tier's runtime guardrails under scheduled
faults (see ``repro.service.faults``).

The contract under test: whatever a :class:`FaultPlan` throws at the
tier — journal ``ENOSPC``, an exploding cost batch, a blown deadline —
every submitted job reaches a journaled terminal state, event streams
terminate, and a job that succeeds on a retry returns a result
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
import math
import os
import time

import pytest

from repro.advisor import algorithms
from repro.api import Session, tune
from repro.datasets.sales import sales_database, sales_workload
from repro.errors import JobError
from repro.service import AdvisorService, serialize_result
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
    """Quacks like AdvisorService as far as JobManager cares,
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


class TestFaultPlanGrammar:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "journal.append:enospc@5x3;"
            "coster.batch:errorx1@2;"
            "estimator.estimate:delay=0.05;"
            "service.execute:error~job-000007"
        )
        a, b, c, d = plan.specs
        assert (a.site, a.kind, a.after, a.times) == \
            ("journal.append", "enospc", 5, 3)
        # @ and x suffixes compose in either order.
        assert (b.site, b.kind, b.after, b.times) == \
            ("coster.batch", "error", 2, 1)
        assert (c.kind, c.delay, c.times) == ("delay", 0.05, None)
        assert (d.kind, d.match) == ("error", "job-000007")

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
                          FaultSpec("cache.save", "eio")])
        with pytest.raises(OSError) as err:
            plan.fire("journal.append")
        assert err.value.errno == errno.ENOSPC
        with pytest.raises(OSError) as err:
            plan.fire("cache.save")
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
                        dict(retry_backoff="fast"), dict(deadline_s=True),
                        dict(deadline_s=math.nan),
                        dict(deadline_s=math.inf),
                        dict(retry_backoff=math.inf),
                        dict(retry_backoff=math.nan)):
                with pytest.raises(JobError) as caught:
                    service.jobs.submit("tune", "alpha", {}, **bad)
                # The error names the field it rejects.
                assert next(iter(bad)) in str(caught.value)
        finally:
            service.shutdown()

    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        async def scenario():
            journal = JobJournal(str(tmp_path))
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
            journal = JobJournal(str(tmp_path))
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
                journal=JobJournal(str(tmp_path)))
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
        async def scenario():
            journal = JobJournal(str(tmp_path))
            service = StubService(journal=journal)
            try:
                # No await between submit and sweep: the job's task has
                # not run yet, so the job is still queued when swept.
                record = service.jobs.submit(
                    "tune", "alpha", {"job": "j"}, deadline_s=0.01)
                time.sleep(0.03)
                swept = service.jobs.watchdog_sweep()
                await service.jobs.drain()
                return swept, record, service.executed, journal.replay()
            finally:
                service.shutdown()

        swept, record, executed, images = run(scenario())
        assert swept["deadline_expired"] == 1
        assert record.state == "failed"
        assert record.timeout is True
        assert executed == []  # never ran
        assert images[record.id].state == "failed"


class TestDiskPressureDegradation:
    def test_enospc_flips_degraded_and_probe_recovers(self, tmp_path):
        async def scenario():
            faults.install(FaultPlan.parse("journal.append:enospcx2"))
            journal = JobJournal(str(tmp_path))
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
            journal = JobJournal(str(tmp_path))
            service = StubService(journal=journal)
            try:
                with pytest.raises(InjectedFault):
                    service.jobs.submit("tune", "alpha", {"job": "j"})
                return service.jobs.degraded
            finally:
                service.shutdown()

        assert run(scenario()) is False

    def test_a_jobs_failed_cache_saves_reach_the_service_health(
            self, tuning_inputs, tmp_path):
        """A served job saves through its run's fork views and its
        stage's memo file, never through the service's caches: under
        disk pressure the job still ends done, nothing reaches the
        cache directory, and the service reads degraded until a later
        job's saves land."""
        db, wl = tuning_inputs
        cache_dir = tmp_path / "cache"

        async def job(service, **payload):
            record = service.submit_job(
                "tune", "sales",
                dict(budget_fraction=0.12, variant="dtac-none", **payload),
            )
            async for _event in service.job_events(record.id):
                pass
            return record.state, service.degraded, \
                service.stats()["degraded"]

        async def scenario():
            service = AdvisorService(cache_dir=str(cache_dir))
            service.register("sales", db, wl)
            await service.start()
            try:
                faults.install(FaultPlan.parse("cache.save:enospcx50"))
                pressed = await job(service)
                files = sorted(path.name for path in cache_dir.iterdir())
                faults.clear()
                # Another seed prepares a stage of its own, so it saves
                # estimates, costs and a memo file.
                recovered = await job(service, seed=2)
                return pressed, files, recovered
            finally:
                await service.stop()

        pressed, files, recovered = run(scenario(), timeout=300)
        assert pressed == ("done", True, True)
        assert files == ["jobs-journal"]
        assert recovered == ("done", False, False)


class TestPollTask:
    def test_poll_task_survives_transient_errors(self, tmp_path):
        """A transient error in one housekeeping tick must not kill the
        poll task — it is what probes a degraded journal back to
        health and sweeps queued jobs past their deadline."""

        async def scenario():
            service = AdvisorService(cache_dir=str(tmp_path / "cache"),
                                     poll_interval=0.01)
            await service.start()
            try:
                calls = {"n": 0}
                real = service.jobs.watchdog_sweep

                def flaky():
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise OSError("transient hiccup")
                    return real()

                service.jobs.watchdog_sweep = flaky
                await asyncio.sleep(0.2)
                return calls["n"], service._poll_task.done()
            finally:
                await service.stop()

        calls, poll_dead = run(scenario())
        assert calls >= 2  # kept ticking past the failure
        assert poll_dead is False


class TestSeededChaos:
    def test_seeded_schedule_converges_to_all_terminal(self, tmp_path):
        """The CI matrix scenario: a seeded fault schedule over the
        execution-path sites, a batch of retrying jobs, and the
        invariant that everything reaches a journaled terminal state
        with gapless, terminating streams."""
        seed = CHAOS_SEED

        async def scenario():
            faults.install(FaultPlan.seeded(seed, sites=[
                "service.execute", "coster.batch",
                "estimator.estimate",
            ]))
            journal = JobJournal(str(tmp_path))
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
                        journal.replay(), faults.describe_active())
            finally:
                service.shutdown()

        snapshots, streams, images, schedule = \
            run(scenario(), timeout=60)
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
