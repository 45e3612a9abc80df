"""Per-context scheduling: lane assignment, cross-context overlap,
same-context ordering — and lanes that hold no processes."""

import asyncio
import multiprocessing
import threading

import pytest

from repro.datasets.sales import sales_database, sales_workload
from repro.service import AdvisorService
from repro.service.scheduler import ContextScheduler


@pytest.fixture(scope="module")
def sched_inputs():
    db = sales_database(scale=0.02)
    wl = sales_workload(db)
    db_b = sales_database(scale=0.02, seed=7)
    wl_b = sales_workload(db_b)
    return (db, wl), (db_b, wl_b)


def run(coro):
    return asyncio.run(coro)


async def _make_service(sched_inputs, **kwargs):
    (db, wl), (db_b, wl_b) = sched_inputs
    service = AdvisorService(**kwargs)
    service.register("sales", db, wl)
    service.register("sales_b", db_b, wl_b)
    await service.start()
    return service


TUNE = dict(budget_fraction=0.12, variant="dtac-none")


class TestLaneAssignment:
    def test_dedicated_lanes_until_cap_then_stable_sharing(self):
        scheduler = ContextScheduler(max_lanes=2)
        try:
            a = scheduler.lane_for("a")
            b = scheduler.lane_for("b")
            c = scheduler.lane_for("c")
            d = scheduler.lane_for("d")
            assert a is not b
            assert c in (a, b) and d in (a, b)
            # Least-loaded, stable: c and d land on different lanes.
            assert c is not d
            # Assignment is sticky.
            assert scheduler.lane_for("a") is a
            assert scheduler.lane_for("c") is c
            stats = scheduler.stats()
            assert stats["contexts_assigned"] == 4
            assert len(stats["lanes"]) == 2
        finally:
            scheduler.shutdown()

    def test_lane_cap_validation(self):
        with pytest.raises(ValueError):
            ContextScheduler(max_lanes=0)


class TestCrossContextOverlap:
    def test_blocked_context_does_not_block_another(self, sched_inputs):
        """A request stuck on context A's lane must not delay context
        B: with the old single executor this deadlocked the B request
        behind A's; with per-context lanes B answers while A is still
        blocked."""

        async def scenario():
            service = await _make_service(sched_inputs)
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
                # While A is blocked, B completes.
                other = await asyncio.wait_for(
                    service.whatif_cost("sales_b", statement_index=0),
                    timeout=20,
                )
                assert not blocked.done()
                release.set()
                first = await blocked
                return first, other
            finally:
                context.run_whatif_cost = original
                await service.stop()

        first, other = run(scenario())
        assert first["total"] > 0 and other["total"] > 0

    def test_same_context_requests_serialize_in_order(self, sched_inputs):
        """Same-context requests run strictly in submission order on
        their lane (the determinism contract's scheduling half)."""

        async def scenario():
            service = await _make_service(sched_inputs)
            order = []
            context = service.contexts["sales"]
            original = context.run_whatif_cost

            def recording(payload):
                order.append(payload["statement_index"])
                return original(payload)

            context.run_whatif_cost = recording
            try:
                await asyncio.gather(*[
                    service.whatif_cost("sales", statement_index=i)
                    for i in range(4)
                ])
                return order
            finally:
                context.run_whatif_cost = original
                await service.stop()

        order = run(scenario())
        assert order == [0, 1, 2, 3]


class TestNoWorkerProcesses:
    def test_served_tune_job_leaves_no_child_process(self, sched_inputs):
        """A tune runs in its lane thread, whatever ``workers`` says:
        nothing is forked, so nothing can be left behind."""

        async def scenario():
            service = await _make_service(sched_inputs, workers=2)
            try:
                record = service.submit_job("tune", "sales", TUNE)
                async for _ in service.job_events(record.id):
                    pass
                return record.state, multiprocessing.active_children()
            finally:
                await service.stop()

        state, children = run(scenario())
        assert state == "done"
        assert children == []
