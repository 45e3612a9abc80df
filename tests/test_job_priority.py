"""Priority lanes, tenant fairness, and admission quotas in the job
tier.

The contract under test (see ``repro.service.scheduler.FairQueue`` and
``repro.service.jobs``): within one context, the next job to run is
picked high-priority-first, and inside a priority lane by
round-robin across tenants in sorted-name order — fully deterministic,
never timing- or hash-dependent.  Per-tenant quotas bound non-terminal
jobs per tenant (:class:`QuotaExceededError`, HTTP 429, retryable),
separately from global backpressure (503).  Routing fields belong to
the submission envelope, never to the tune/sweep payload.
"""

import asyncio
import threading
from types import SimpleNamespace

import pytest

from repro.datasets.sales import sales_database, sales_workload
from repro.errors import QuotaExceededError, ServiceError
from repro.service import (
    AdvisorClient,
    AdvisorService,
    FairQueue,
    ServiceHTTPError,
    ServiceHTTPServer,
)
from repro.service.jobs import JobManager
from repro.service.scheduler import ContextScheduler


def run(coro):
    return asyncio.run(coro)


def item(tenant, priority="normal"):
    return SimpleNamespace(tenant=tenant, priority=priority)


class TestFairQueue:
    def test_priority_order_then_fifo(self):
        queue = FairQueue()
        low, normal, high = item("t", "low"), item("t"), item("t", "high")
        for it in (low, normal, high):
            queue.park(it)
        assert queue.depth() == 3
        assert [queue.pick() for _ in range(3)] == [high, normal, low]
        assert queue.pick() is None
        assert queue.depth() == 0

    def test_round_robin_across_tenants_is_name_sorted(self):
        queue = FairQueue()
        a1, a2, b1, c1 = item("a"), item("a"), item("b"), item("c")
        for it in (c1, a1, b1, a2):  # park order must not matter
            queue.park(it)
        assert [queue.pick() for _ in range(4)] == [a1, b1, c1, a2]

    def test_cursor_survives_tenant_draining_away(self):
        queue = FairQueue()
        a1, c1 = item("a"), item("c")
        queue.park(a1)
        assert queue.pick() is a1
        # "a" drained; a new tenant sorting before the cursor parks.
        queue.park(c1)
        assert queue.pick() is c1


class StubService:
    """AdvisorService stand-in with a gate: executions block until the
    test opens it, so every later submission parks deterministically."""

    def __init__(self, **manager_kwargs):
        self.contexts = {"alpha": object(), "beta": object()}
        self.started = True
        self._closing = False
        self.max_pending = 64
        self.scheduler = ContextScheduler(max_lanes=2)
        self.gate = threading.Event()
        self.executed = []
        self.jobs = JobManager(self, **manager_kwargs)

    def _execute(self, kind, context, payload, lane=None, progress=None):
        assert self.gate.wait(30)
        self.executed.append(payload.get("name"))
        return {"ok": True}

    def shutdown(self):
        self.scheduler.shutdown()


class TestExecutionOrder:
    def test_priority_then_tenant_round_robin(self):
        """Parked jobs run high-first, then round-robin by tenant
        inside each priority — regardless of submission order."""

        async def scenario():
            service = StubService()
            try:
                plan = [
                    ("A", "t1", "normal"),  # first in: holds the turn
                    ("B", "t2", "low"),
                    ("C", "t3", "high"),
                    ("D", "t1", "normal"),
                    ("E", "t2", "normal"),
                ]
                for name, tenant, priority in plan:
                    service.jobs.submit("tune", "alpha", {"name": name},
                                        tenant=tenant, priority=priority)
                await asyncio.sleep(0.05)  # everyone reaches the turnstile
                assert service.jobs.stats()["parked"] == 4
                service.gate.set()
                await service.jobs.drain()
                return service.executed
            finally:
                service.shutdown()

        assert run(scenario()) == ["A", "C", "D", "E", "B"]

    def test_contexts_do_not_share_a_turnstile(self):
        """Fairness is per context: one context's queue depth never
        blocks another context's lane."""

        async def scenario():
            service = StubService()
            try:
                for i in range(3):
                    service.jobs.submit("tune", "alpha",
                                        {"name": f"a{i}"})
                service.jobs.submit("tune", "beta", {"name": "b0"})
                await asyncio.sleep(0.05)
                service.gate.set()
                await service.jobs.drain()
                return service.executed
            finally:
                service.shutdown()

        executed = run(scenario())
        assert sorted(executed) == ["a0", "a1", "a2", "b0"]
        # beta's job ran concurrently on its own lane — it must not
        # have waited for all three alpha jobs.
        assert executed.index("b0") < 3


class TestQuota:
    def test_quota_bounds_non_terminal_jobs_per_tenant(self):
        async def scenario():
            service = StubService(tenant_quota=1)
            try:
                service.jobs.submit("tune", "alpha", {"name": "first"},
                                    tenant="t1")
                with pytest.raises(QuotaExceededError, match="quota"):
                    service.jobs.submit("tune", "alpha",
                                        {"name": "second"}, tenant="t1")
                # Another tenant is unaffected.
                service.jobs.submit("tune", "alpha", {"name": "other"},
                                    tenant="t2")
                stats = service.jobs.stats()
                assert stats["tenants_active"] == {"t1": 1, "t2": 1}
                assert stats["tenant_quota"] == 1
                service.gate.set()
                await service.jobs.drain()
                # Terminal jobs release the quota.
                service.jobs.submit("tune", "alpha", {"name": "third"},
                                    tenant="t1")
                await service.jobs.drain()
                return service.executed
            finally:
                service.shutdown()

        assert sorted(run(scenario())) == ["first", "other", "third"]

    def test_quota_is_retryable_backpressure(self):
        from repro.errors import BackpressureError
        assert issubclass(QuotaExceededError, BackpressureError)


@pytest.fixture(scope="module")
def priority_inputs():
    db = sales_database(scale=0.02)
    wl = sales_workload(db)
    return db, wl


class TestOverHTTP:
    def test_quota_breach_maps_to_429_and_client_retries(
            self, priority_inputs):
        """Over HTTP a quota breach is 429 (with Retry-After), distinct
        from global backpressure's 503; the client marks it retryable.
        Routing fields round-trip on the job snapshot."""
        db, wl = priority_inputs

        async def scenario():
            service = AdvisorService(tenant_quota=1)
            service.register("sales", db, wl)
            server = ServiceHTTPServer(service, port=0)
            await server.start()
            client = AdvisorClient(port=server.port, retries=0)
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
                job = await client.submit_job(
                    "sales", budget_fraction=0.1, variant="dtac-none",
                    tenant="acme", priority="high",
                )
                assert (job["tenant"], job["priority"]) == \
                    ("acme", "high")
                with pytest.raises(ServiceHTTPError) as quota_err:
                    await client.submit_job(
                        "sales", budget_fraction=0.12,
                        variant="dtac-none", tenant="acme",
                    )
                # Bad routing values are 400s, not quota noise.
                with pytest.raises(ServiceHTTPError) as bad_priority:
                    await client.submit_job(
                        "sales", budget_fraction=0.1, priority="urgent",
                    )
                await client.cancel_job(job["id"])
                release.set()
                await blocker
                return quota_err.value, bad_priority.value
            finally:
                context.run_whatif_cost = original
                await server.stop()

        quota_err, bad_priority = run(scenario())
        assert quota_err.status == 429
        assert quota_err.retryable is True
        assert "quota" in str(quota_err)
        assert bad_priority.status == 400

    def test_routing_fields_rejected_inside_payload(self, priority_inputs):
        """`tenant`/`priority` must ride the submission envelope — a
        payload smuggling them would skew coalescing keys and journaled
        payloads, so the closed wire schema rejects it at submission
        (no job record is ever created)."""
        db, wl = priority_inputs

        async def scenario():
            service = AdvisorService()
            service.register("sales", db, wl)
            await service.start()
            try:
                with pytest.raises(ServiceError, match="routing"):
                    await service.tune("sales", budget_fraction=0.1,
                                       tenant="acme")
                with pytest.raises(ServiceError, match="routing"):
                    service.submit_job(
                        "tune", "sales",
                        dict(budget_fraction=0.1, priority="high"),
                    )
                return service.jobs.list_jobs()
            finally:
                await service.stop()

        assert run(scenario()) == []
