"""Job-based serving: lifecycle state machine, streamed per-greedy-step
progress, cancellation, and the byte-identity invariants.

The contract under test (see ``repro.service.jobs``): every job walks
``queued -> running -> done|failed|cancelled``; a live tune streams at
least one progress event per greedy step; any interleaving of
submit/poll/cancel across contexts yields results byte-identical to
sequential ``tune()`` per context; and a cancelled job releases its
scheduler lane.
"""

import asyncio
import random
import threading

import pytest

from repro.api import Session, tune
from repro.datasets.sales import sales_database, sales_workload
from repro.errors import BackpressureError, JobError, ServiceError
from repro.service import AdvisorService, faults, serialize_result
from repro.service.faults import FaultPlan
from repro.service.jobs import TERMINAL_STATES


@pytest.fixture(scope="module")
def job_inputs():
    db = sales_database(scale=0.02)
    wl = sales_workload(db)
    db_b = sales_database(scale=0.02, seed=7)
    wl_b = sales_workload(db_b)
    return (db, wl), (db_b, wl_b)


def run(coro):
    return asyncio.run(coro)


async def _make_service(job_inputs, **kwargs):
    (db, wl), (db_b, wl_b) = job_inputs
    service = AdvisorService(**kwargs)
    service.register("sales", db, wl)
    service.register("sales_b", db_b, wl_b)
    await service.start()
    return service


TUNE = dict(budget_fraction=0.12, variant="dtac-none")


class TestJobLifecycle:
    def test_submit_poll_done_with_greedy_step_events(self, job_inputs):
        """A tune job reaches ``done``; its event stream carries the
        queued/running/done transitions and >=1 event per greedy step
        of the final recommendation."""
        (db, wl), _ = job_inputs

        async def scenario():
            service = await _make_service(job_inputs)
            try:
                record = service.submit_job("tune", "sales", TUNE)
                assert record.state == "queued"
                events = []
                async for event in service.job_events(record.id):
                    events.append(event)
                return record.snapshot(), events
            finally:
                await service.stop()

        snapshot, events = run(scenario())
        assert snapshot["state"] == "done"
        states = [e["state"] for e in events if e["event"] == "state"]
        assert states == ["queued", "running", "done"]
        # seq is gapless and ordered.
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        direct = tune(db, wl, db.total_data_bytes() * 0.12,
                      variant="dtac-none")
        greedy = [e for e in events if e["event"] == "greedy_step"]
        assert len(greedy) >= len(direct.steps) >= 1
        # The winning start's steps all appear among the events.
        streamed = {e["step"] for e in greedy}
        assert set(direct.steps) <= streamed

    def test_job_result_byte_identical_to_sync_endpoint(self, job_inputs):
        (db, wl), _ = job_inputs

        async def scenario():
            service = await _make_service(job_inputs)
            try:
                record = service.submit_job("tune", "sales", TUNE)
                async for _ in service.job_events(record.id):
                    pass
                sync = await service.tune("sales", **TUNE)
                return record.result, sync
            finally:
                await service.stop()

        job_result, sync = run(scenario())
        assert job_result["result"] == sync["result"]
        direct = tune(db, wl, db.total_data_bytes() * 0.12,
                      variant="dtac-none")
        assert job_result["result"] == serialize_result(direct)["result"]

    def test_sweep_job_streams_unit_boundaries(self, job_inputs):
        async def scenario():
            service = await _make_service(job_inputs)
            try:
                record = service.submit_job("sweep", "sales", dict(
                    budget_fractions=[0.1, 0.15], variant="dtac-none",
                ))
                events = []
                async for event in service.job_events(record.id):
                    events.append(event)
                return record.snapshot(), events
            finally:
                await service.stop()

        snapshot, events = run(scenario())
        assert snapshot["state"] == "done"
        units = [e for e in events if e["event"] == "sweep_unit"]
        # started + done per unit, two units.
        assert len(units) == 4
        assert len(snapshot["result"]["runs"]) == 2
        # Nested advisor events are tagged with their unit index.
        nested = [e for e in events
                  if e["event"] == "greedy_step" and "unit" in e]
        assert nested

    def test_events_after_pagination(self, job_inputs):
        async def scenario():
            service = await _make_service(job_inputs)
            try:
                record = service.submit_job("tune", "sales", TUNE)
                async for _ in service.job_events(record.id):
                    pass
                full = service.jobs.events_after(record.id, 0)
                tail = service.jobs.events_after(record.id, full[2]["seq"])
                return full, tail
            finally:
                await service.stop()

        full, tail = run(scenario())
        assert tail == full[3:]

    def test_submit_errors(self, job_inputs):
        async def scenario():
            service = await _make_service(job_inputs)
            try:
                with pytest.raises(JobError, match="unknown job kind"):
                    service.submit_job("estimate_size", "sales", {})
                with pytest.raises(JobError, match="unknown context"):
                    service.submit_job("tune", "nope", TUNE)
                with pytest.raises(JobError, match="no such job"):
                    service.job("job-424242")
                # A bad payload fails at submission and leaves no job.
                with pytest.raises(ServiceError, match="unknown variant"):
                    service.submit_job("tune", "sales",
                                       {"variant": "bogus"})
                return service.jobs.list_jobs()
            finally:
                await service.stop()

        assert run(scenario()) == []

    def test_submit_rejected_when_not_running(self, job_inputs):
        async def scenario():
            service = await _make_service(job_inputs)
            await service.stop()
            with pytest.raises(JobError, match="not running"):
                service.submit_job("tune", "sales", TUNE)

        run(scenario())

    def test_job_queue_backpressure(self, job_inputs):
        """Queued jobs beyond max_pending are rejected with the same
        honest backpressure error the request path uses."""

        async def scenario():
            service = await _make_service(job_inputs, max_pending=2)
            context = service.contexts["sales"]
            started = threading.Event()
            release = threading.Event()
            original = context.run_whatif_cost

            def blocking(payload):
                started.set()
                assert release.wait(30)
                return original(payload)

            context.run_whatif_cost = blocking
            try:
                blocked = asyncio.ensure_future(
                    service.whatif_cost("sales", statement_index=0)
                )
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30
                )
                # Two queued jobs fill the job queue; the third bounces.
                first = service.submit_job("tune", "sales", TUNE)
                second = service.submit_job(
                    "tune", "sales", dict(TUNE, budget_fraction=0.2)
                )
                with pytest.raises(BackpressureError):
                    service.submit_job(
                        "tune", "sales", dict(TUNE, budget_fraction=0.3)
                    )
                # Cancel the queued jobs so the drain stays quick.
                service.cancel_job(first.id)
                service.cancel_job(second.id)
                release.set()
                await blocked
            finally:
                context.run_whatif_cost = original
                await service.stop()

        run(scenario())


class TestJobCancellation:
    def test_cancel_queued_job_never_runs(self, job_inputs):
        async def scenario():
            service = await _make_service(job_inputs)
            context = service.contexts["sales"]
            started = threading.Event()
            release = threading.Event()
            original = context.run_whatif_cost

            def blocking(payload):
                started.set()
                assert release.wait(30)
                return original(payload)

            context.run_whatif_cost = blocking
            try:
                blocker = asyncio.ensure_future(
                    service.whatif_cost("sales", statement_index=0)
                )
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30
                )
                record = service.submit_job("tune", "sales", TUNE)
                cancelled = service.cancel_job(record.id)
                assert cancelled.state == "cancelled"  # resolved now
                release.set()
                await blocker
                async for _ in service.job_events(record.id):
                    pass
                return record.snapshot()
            finally:
                context.run_whatif_cost = original
                await service.stop()

        snapshot = run(scenario())
        assert snapshot["state"] == "cancelled"
        assert snapshot["started"] is None  # never began executing

    def test_cancel_running_job_unwinds_and_releases(self, job_inputs):
        """Cancelling mid-run: the job lands in ``cancelled`` within
        one greedy step and the lane takes new work immediately."""

        async def scenario():
            service = await _make_service(job_inputs)
            try:
                record = service.submit_job("tune", "sales", TUNE)
                seen = 0
                async for event in service.job_events(record.id):
                    if event["event"] in ("greedy_step", "sweep",
                                          "phase"):
                        seen += 1
                        if seen == 2:
                            service.cancel_job(record.id)
                after = await service.whatif_cost(
                    "sales", statement_index=0
                )
                return record.snapshot(), after
            finally:
                await service.stop()

        snapshot, after = run(scenario())
        assert snapshot["state"] == "cancelled"
        assert "result" not in snapshot
        assert after["total"] > 0    # lane still serves requests

    def test_cancel_terminal_job_is_idempotent(self, job_inputs):
        async def scenario():
            service = await _make_service(job_inputs)
            try:
                record = service.submit_job("tune", "sales", TUNE)
                async for _ in service.job_events(record.id):
                    pass
                assert record.state == "done"
                again = service.cancel_job(record.id)
                return again.snapshot()
            finally:
                await service.stop()

        snapshot = run(scenario())
        assert snapshot["state"] == "done"  # not clobbered

    def test_stop_without_drain_cancels_running_jobs(self, job_inputs):
        async def scenario():
            service = await _make_service(job_inputs)
            record = service.submit_job("tune", "sales", TUNE)
            # Let it start running, then yank the service.
            while record.state == "queued":
                await asyncio.sleep(0.01)
            await service.stop(drain=False)
            return record.snapshot()

        snapshot = run(scenario())
        assert snapshot["state"] in ("cancelled", "done")


def _advisor_events(events: list) -> list:
    """A job's advisor events without their job-log ``seq``."""
    return [
        {key: value for key, value in event.items() if key != "seq"}
        for event in events if event["event"] != "state"
    ]


class TestHeldStageAcrossJobs:
    """Each context holds its latest tune/retune job's prepared stage.
    Whatever ended the job before — a cancel mid-search, a deadline
    while preparing, an injected fault retried — the next job on the
    context (or the retried attempt) is byte-identical to sequential
    ``tune()``, and reuses the stage only when one was completed."""

    @staticmethod
    def _direct(job_inputs, fraction=0.12):
        (db, wl), _ = job_inputs
        events: list = []
        result = Session(db, wl, variant="dtac-none", progress=events.append,
                         budget_fraction=fraction).tune()
        return serialize_result(result)["result"], events

    @staticmethod
    async def _finish(service, record) -> list:
        return [event async for event in service.job_events(record.id)]

    def _abort_then_rerun(self, job_inputs, abort_after, *,
                          submit=lambda s: s.submit_job("tune", "sales",
                                                        TUNE)):
        """One job whose progress hook calls ``abort_after(event,
        victim, service)`` after each event it forwards, then the same
        job again.  Returns both snapshots, the stage the first left
        behind, and the second job's events."""

        async def scenario():
            service = await _make_service(job_inputs)
            context = service.contexts["sales"]
            original = context.run_tune
            victim = None

            def run_tune(payload, progress=None):
                def hook(event):
                    progress(event)
                    abort_after(event, victim, service)
                return original(payload, progress=hook)

            context.run_tune = run_tune
            try:
                victim = submit(service)
                await self._finish(service, victim)
                context.run_tune = original
                left = context.session.stage
                record = service.submit_job("tune", "sales", TUNE)
                events = await self._finish(service, record)
                return (victim.snapshot(), left, context.session.stage,
                        record.snapshot(), events)
            finally:
                context.run_tune = original
                await service.stop()

        return run(scenario())

    def test_job_after_a_cancel_mid_search(self, job_inputs):
        def cancel_at_enumeration(event, victim, service):
            if event.get("phase") == "enumeration":
                service.cancel_job(victim.id)

        victim, left, held, snapshot, events = self._abort_then_rerun(
            job_inputs, cancel_at_enumeration
        )
        assert victim["state"] == "cancelled"
        # Cancelled while searching: the stage was complete and is kept.
        assert left is not None and held is left
        expected, library_events = self._direct(job_inputs)
        assert snapshot["result"]["result"] == expected
        assert _advisor_events(events) == library_events
        assert snapshot["result"]["meta"]["delta_stats"]["full_recosts"] == 0

    def test_job_after_a_deadline_while_preparing(self, job_inputs):
        def expire_after_candidates(event, victim, service):
            if event.get("phase") == "candidates":
                victim.created -= 1000.0  # the deadline passes mid-prepare

        victim, left, held, snapshot, events = self._abort_then_rerun(
            job_inputs, expire_after_candidates,
            submit=lambda s: s.submit_job("tune", "sales", TUNE,
                                          deadline_s=60.0),
        )
        assert victim["state"] == "failed" and victim["timeout"] is True
        # Failed while preparing: nothing half-built is left to reuse.
        assert left is None and held is not None
        expected, library_events = self._direct(job_inputs)
        assert snapshot["result"]["result"] == expected
        assert _advisor_events(events) == library_events

    def test_retried_attempt_after_an_injected_cost_fault(self, job_inputs):
        """``coster.batch:error@2x1``: the third cost batch — inside the
        search — fails the first attempt; the retry searches the stage
        that attempt prepared."""

        async def scenario():
            service = await _make_service(job_inputs)
            faults.install(FaultPlan.parse("coster.batch:error@2x1"))
            try:
                record = service.submit_job("tune", "sales", TUNE,
                                            retries=1, retry_backoff=0.0)
                events = await self._finish(service, record)
                return record.snapshot(), events, faults.describe_active()
            finally:
                faults.clear()
                await service.stop()

        snapshot, events, schedule = run(scenario())
        assert schedule[0]["fired"] == 1
        assert snapshot["state"] == "done" and snapshot["attempt"] == 1
        expected, library_events = self._direct(job_inputs)
        assert snapshot["result"]["result"] == expected
        retry = next(i for i, e in enumerate(events) if e["event"] == "retry")
        assert _advisor_events(events[retry + 1:]) == library_events
        assert snapshot["result"]["meta"]["delta_stats"]["full_recosts"] == 0


class TestInterleavingInvariants:
    """Any interleaving of submit/poll/cancel across two contexts must
    yield per-context results byte-identical to sequential ``tune()``."""

    @pytest.mark.parametrize("seed", [11, 23])
    def test_random_interleaving_byte_identical(self, job_inputs, seed):
        (db, wl), (db_b, wl_b) = job_inputs
        rng = random.Random(seed)
        budgets = [0.1, 0.12, 0.15]
        contexts = ["sales", "sales_b"]
        plan = [
            (rng.choice(contexts), rng.choice(budgets),
             rng.random() < 0.3)   # ~30% of jobs get a cancel attempt
            for _ in range(5)
        ]

        async def scenario():
            service = await _make_service(job_inputs)
            try:
                records = []
                for context, budget, want_cancel in plan:
                    record = service.submit_job("tune", context, dict(
                        budget_fraction=budget, variant="dtac-none",
                    ))
                    records.append(record)
                    if want_cancel:
                        # Poll a little, then cancel — wherever the job
                        # happens to be in its lifecycle.
                        await asyncio.sleep(rng.random() * 0.2)
                        service.job(record.id)
                        service.cancel_job(record.id)
                for record in records:
                    async for _ in service.job_events(record.id):
                        pass
                assert all(r.terminal for r in records)
                return [r.snapshot() for r in records]
            finally:
                await service.stop()

        snapshots = run(scenario())
        baselines = {}
        for (context, budget, _), snapshot in zip(plan, snapshots):
            assert snapshot["state"] in TERMINAL_STATES
            assert snapshot["state"] != "failed"
            if snapshot["state"] != "done":
                continue
            key = (context, budget)
            if key not in baselines:
                data, load = ((db, wl) if context == "sales"
                              else (db_b, wl_b))
                baselines[key] = serialize_result(tune(
                    data, load, data.total_data_bytes() * budget,
                    variant="dtac-none",
                ))["result"]
            assert snapshot["result"]["result"] == baselines[key], (
                f"job on {context} at budget {budget} diverged from "
                "sequential tune()"
            )

    def test_history_eviction_keeps_bound(self, job_inputs):
        async def scenario():
            service = await _make_service(job_inputs)
            service.jobs.max_history = 3
            try:
                ids = []
                for i in range(5):
                    record = service.submit_job(
                        "tune", "sales",
                        dict(budget_fraction=0.1 + i * 0.01,
                             variant="dtac-none"),
                    )
                    ids.append(record.id)
                    async for _ in service.job_events(record.id):
                        pass
                return ids, service.jobs.list_jobs()
            finally:
                await service.stop()

        ids, listed = run(scenario())
        assert len(listed) == 3
        # Oldest evicted, newest retained.
        assert [j["id"] for j in listed] == ids[-3:]
