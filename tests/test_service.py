"""Async tuning service: concurrency determinism, in-flight coalescing,
backpressure, and clean shutdown.

The stress contract under test (see ``repro.service.service``): any mix
of concurrent clients gets byte-identical responses to sequential
execution (request isolation mirrors sweep units), identical in-flight
requests run once (coalescing counters prove the dedup), the bounded
queue rejects honestly when full, and stopping the service under load
leaks neither the scheduler's lane threads nor any child process.
"""

import asyncio
import multiprocessing
import threading

import pytest

from repro.api import tune
from repro.datasets.sales import sales_database, sales_workload
from repro.errors import BackpressureError, ServiceError
from repro.service import AdvisorService, serialize_result
from repro.service.service import canonical_payload


@pytest.fixture(scope="module")
def service_inputs():
    db = sales_database(scale=0.02)
    wl = sales_workload(db)
    return db, wl


def run(coro):
    return asyncio.run(coro)


async def _make_service(db, wl, **kwargs):
    service = AdvisorService(**kwargs)
    service.register("sales", db, wl)
    await service.start()
    return service


TUNE_A = dict(budget_fraction=0.12, variant="dtac-none")
TUNE_B = dict(budget_fraction=0.2, variant="dtac-none")
EST = dict(index={"table": "sales", "key_columns": ["sa_date"],
                  "method": "page"})
COST = dict(statement_index=0,
            indexes=[{"table": "sales", "key_columns": ["sa_date"]}])


class TestConcurrencyDeterminism:
    def test_concurrent_identical_to_sequential_and_direct(
        self, service_inputs
    ):
        """≥4 concurrent clients with overlapping tune/estimate/cost
        requests: every response is byte-identical to the same request
        executed sequentially on a fresh service, and tune responses are
        byte-identical to direct ``tune()`` calls."""
        db, wl = service_inputs

        async def concurrent():
            service = await _make_service(db, wl)
            try:
                return await asyncio.gather(
                    service.tune("sales", **TUNE_A),
                    service.tune("sales", **TUNE_B),
                    service.estimate_size("sales", **EST),
                    service.whatif_cost("sales", **COST),
                    service.tune("sales", **TUNE_A),  # coalesces
                    service.estimate_size("sales", **EST),
                )
            finally:
                await service.stop()

        async def sequential():
            service = await _make_service(db, wl)
            try:
                out = []
                out.append(await service.tune("sales", **TUNE_A))
                out.append(await service.tune("sales", **TUNE_B))
                out.append(await service.estimate_size("sales", **EST))
                out.append(await service.whatif_cost("sales", **COST))
                out.append(await service.tune("sales", **TUNE_A))
                out.append(await service.estimate_size("sales", **EST))
                return out
            finally:
                await service.stop()

        conc = run(concurrent())
        seq = run(sequential())
        for c, s in zip(conc, seq):
            if "result" in c:
                assert c["result"] == s["result"]
            else:
                assert c == s
        # And against the advisor invoked directly, no service involved.
        direct_a = tune(db, wl, db.total_data_bytes() * 0.12,
                        variant="dtac-none")
        assert conc[0]["result"] == serialize_result(direct_a)["result"]
        assert conc[4]["result"] == conc[0]["result"]


class TestCoalescing:
    def test_identical_inflight_requests_coalesce(self, service_inputs):
        db, wl = service_inputs

        async def scenario():
            service = await _make_service(db, wl)
            try:
                answers = await asyncio.gather(
                    *[service.estimate_size("sales", **EST)
                      for _ in range(5)],
                    *[service.whatif_cost("sales", **COST)
                      for _ in range(3)],
                )
                return answers, service.stats()
            finally:
                await service.stop()

        answers, stats = run(scenario())
        for a in answers[:5]:
            assert a == answers[0]
        for a in answers[5:]:
            assert a == answers[5]
        assert stats["coalesced"]["estimate_size"] == 4
        assert stats["coalesced"]["whatif_cost"] == 2
        # The deduped work really ran once per distinct payload.
        assert stats["completed"]["estimate_size"] == 1
        assert stats["completed"]["whatif_cost"] == 1

    def test_key_ignores_payload_key_order(self):
        assert canonical_payload({"a": 1, "b": [1, 2]}) == \
            canonical_payload({"b": [1, 2], "a": 1})

    def test_completed_requests_do_not_coalesce(self, service_inputs):
        """Coalescing is strictly in-flight: a repeat after completion
        re-executes (and may hit warm caches instead)."""
        db, wl = service_inputs

        async def scenario():
            service = await _make_service(db, wl)
            try:
                first = await service.whatif_cost("sales", **COST)
                second = await service.whatif_cost("sales", **COST)
                return first, second, service.stats()
            finally:
                await service.stop()

        first, second, stats = run(scenario())
        assert first == second
        assert stats["coalesced"]["whatif_cost"] == 0
        assert stats["completed"]["whatif_cost"] == 2


class TestBackpressure:
    def test_queue_full_rejects_nowait_and_recovers(self, service_inputs):
        db, wl = service_inputs

        async def scenario():
            service = await _make_service(db, wl, max_pending=2)
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
                # One request occupies the context's lane thread...
                blocked = asyncio.ensure_future(
                    service.whatif_cost("sales", **COST)
                )
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30
                )
                # ...then fill the bounded queue with distinct requests.
                queued = [
                    asyncio.ensure_future(service.request(
                        "whatif_cost", "sales",
                        {**COST, "statement_index": i + 1},
                    ))
                    for i in range(2)
                ]
                await asyncio.sleep(0.05)
                assert service.stats()["queue_depth"] == 2
                with pytest.raises(BackpressureError):
                    await service.request(
                        "whatif_cost", "sales",
                        {**COST, "statement_index": 9}, wait=False,
                    )
                assert service.rejected == 1
                release.set()
                answers = await asyncio.gather(blocked, *queued)
                # After draining, the queue takes requests again.
                again = await service.request(
                    "whatif_cost", "sales",
                    {**COST, "statement_index": 9}, wait=False,
                )
                return answers, again, service.stats()
            finally:
                context.run_whatif_cost = original
                await service.stop()

        answers, again, stats = run(scenario())
        assert len(answers) == 3
        assert again["total"] > 0
        assert stats["rejected"] == 1

    def test_cancelled_originator_does_not_strand_waiters(
        self, service_inputs
    ):
        """A request cancelled while parked in the bounded queue's
        put() must resolve the coalesced future: waiters that attached
        to it get a loud ServiceError instead of hanging forever."""
        db, wl = service_inputs

        async def scenario():
            service = await _make_service(db, wl, max_pending=1)
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
                    service.whatif_cost("sales", **COST)
                )
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30
                )
                filler = asyncio.ensure_future(service.request(
                    "whatif_cost", "sales",
                    {**COST, "statement_index": 1},
                ))
                await asyncio.sleep(0.05)
                # Originator parks in queue.put(); waiter coalesces.
                originator = asyncio.ensure_future(service.request(
                    "whatif_cost", "sales",
                    {**COST, "statement_index": 2},
                ))
                await asyncio.sleep(0.05)
                waiter = asyncio.ensure_future(service.request(
                    "whatif_cost", "sales",
                    {**COST, "statement_index": 2},
                ))
                await asyncio.sleep(0.05)
                assert service.stats()["coalesced"]["whatif_cost"] == 1
                originator.cancel()
                with pytest.raises(ServiceError,
                                   match="cancelled before execution"):
                    await asyncio.wait_for(waiter, timeout=5)
                release.set()
                return await asyncio.gather(blocked, filler)
            finally:
                context.run_whatif_cost = original
                await service.stop()

        answers = run(scenario())
        assert all(a["total"] > 0 for a in answers)

    def test_blocking_request_waits_for_slot(self, service_inputs):
        """``wait=True`` parks the caller instead of rejecting: the
        request completes once the queue drains."""
        db, wl = service_inputs

        async def scenario():
            service = await _make_service(db, wl, max_pending=1)
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
                    service.whatif_cost("sales", **COST)
                )
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30
                )
                filler = asyncio.ensure_future(service.request(
                    "whatif_cost", "sales",
                    {**COST, "statement_index": 1},
                ))
                await asyncio.sleep(0.05)
                waiter = asyncio.ensure_future(service.request(
                    "whatif_cost", "sales",
                    {**COST, "statement_index": 2},
                ))
                await asyncio.sleep(0.05)
                assert not waiter.done()  # parked on the full queue
                release.set()
                return await asyncio.gather(blocked, filler, waiter)
            finally:
                context.run_whatif_cost = original
                await service.stop()

        answers = run(scenario())
        assert all(a["total"] > 0 for a in answers)


class TestLifecycle:
    def test_shutdown_under_load_leaks_nothing(self, service_inputs):
        """stop(drain=False) with queued work: queued requests fail
        with ServiceError, no child process or executor survives, and the
        service can start again afterwards."""
        db, wl = service_inputs

        async def scenario():
            service = await _make_service(db, wl, max_pending=8)
            context = service.contexts["sales"]
            started = threading.Event()
            release = threading.Event()
            original = context.run_whatif_cost

            def blocking(payload):
                started.set()
                assert release.wait(30)
                return original(payload)

            context.run_whatif_cost = blocking
            running = asyncio.ensure_future(
                service.whatif_cost("sales", **COST)
            )
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 30
            )
            queued = [
                asyncio.ensure_future(service.request(
                    "whatif_cost", "sales",
                    {**COST, "statement_index": i + 1},
                ))
                for i in range(3)
            ]
            await asyncio.sleep(0.05)
            # Stop while the lane thread is still blocked mid-job, then
            # let the job finish so the lane executors can drain.
            stopper = asyncio.ensure_future(service.stop(drain=False))
            await asyncio.sleep(0.05)
            release.set()
            await stopper
            context.run_whatif_cost = original
            assert multiprocessing.active_children() == []
            assert not service.started
            outcomes = await asyncio.gather(
                running, *queued, return_exceptions=True
            )
            # Restartable: the same service object serves again.
            await service.start()
            try:
                after = await service.whatif_cost("sales", **COST)
            finally:
                await service.stop()
            return outcomes, after

        outcomes, after = run(scenario())
        failures = [o for o in outcomes if isinstance(o, ServiceError)]
        assert failures  # queued work failed loudly, not silently
        assert after["total"] > 0

    def test_drain_stop_completes_queued_work(self, service_inputs):
        db, wl = service_inputs

        async def scenario():
            service = await _make_service(db, wl)
            futures = [
                asyncio.ensure_future(service.request(
                    "whatif_cost", "sales",
                    {**COST, "statement_index": i},
                ))
                for i in range(3)
            ]
            await asyncio.sleep(0)
            await service.stop(drain=True)
            return await asyncio.gather(*futures)

        answers = run(scenario())
        assert len(answers) == 3
        assert all(a["total"] > 0 for a in answers)

    def test_request_errors(self, service_inputs):
        db, wl = service_inputs

        async def scenario():
            service = await _make_service(db, wl)
            try:
                with pytest.raises(ServiceError, match="unknown context"):
                    await service.tune("nope", **TUNE_A)
                with pytest.raises(ServiceError, match="unknown request"):
                    await service.request("frobnicate", "sales", {})
                with pytest.raises(ServiceError, match="budget"):
                    await service.tune("sales", variant="dtac-none")
                with pytest.raises(ServiceError, match="unknown variant"):
                    await service.tune(
                        "sales", budget_fraction=0.1, variant="bogus"
                    )
                with pytest.raises(ServiceError, match="advisor options"):
                    await service.tune(
                        "sales", budget_fraction=0.1,
                        options={"workers": 4},
                    )
            finally:
                await service.stop()

        run(scenario())

    def test_duplicate_context_rejected(self, service_inputs):
        db, wl = service_inputs
        service = AdvisorService()
        service.register("sales", db, wl)
        with pytest.raises(ServiceError, match="already registered"):
            service.register("sales", db, wl)

    @pytest.mark.parametrize("bad", [
        {"workers": -3},
        {"workers": 1.5},
        {"workers": True},
        {"max_pending": 0},
        {"max_pending": 1.5},
        {"max_context_workers": 0},
        {"max_context_workers": 2.0},
        {"tenant_quota": 0},
        {"tenant_quota": -3},
        {"tenant_quota": 1.5},
        {"poll_interval": 0.0},
        {"poll_interval": -1.0},
        {"poll_interval": float("nan")},
        {"poll_interval": float("inf")},
    ], ids=lambda bad: "%s=%s" % next(iter(bad.items())))
    def test_a_bad_setting_is_refused_at_construction(self, bad):
        """A poll interval <= 0 would make the poll task spin (a
        negative sleep returns at once), a quota < 1 would refuse
        every job, and a count that is not an integer (or a negative
        worker count) is one ``repro serve`` refuses too: each is
        refused before anything is built."""
        (name, _), = bad.items()
        with pytest.raises(ServiceError, match=name):
            AdvisorService(**bad)

    def test_request_before_start_rejected(self, service_inputs):
        db, wl = service_inputs

        async def scenario():
            service = AdvisorService()
            service.register("sales", db, wl)
            with pytest.raises(ServiceError, match="not running"):
                await service.whatif_cost("sales", **COST)

        run(scenario())

    def test_request_after_stop_raises_promptly(self, service_inputs):
        """A stopped service rejects both admission styles immediately
        — no caller may ever park against a gate nobody will open."""
        db, wl = service_inputs

        async def scenario():
            service = await _make_service(db, wl)
            await service.stop()
            with pytest.raises(ServiceError, match="not running"):
                await asyncio.wait_for(
                    service.whatif_cost("sales", **COST), timeout=5
                )
            with pytest.raises(ServiceError, match="not running"):
                await asyncio.wait_for(
                    service.request("whatif_cost", "sales", COST,
                                    wait=False),
                    timeout=5,
                )

        run(scenario())


class TestCacheSharing:
    def test_cost_cache_warms_across_requests(self, service_inputs,
                                              tmp_path):
        """A second identical tune (after the first completed, so no
        coalescing) searches the stage the first prepared and recosts
        nothing; a service that prepares afresh over the same cache
        directory replays the absorbed, persisted what-if costs — and
        every answer is byte-identical."""
        db, wl = service_inputs

        async def scenario(requests):
            service = await _make_service(
                db, wl, cache_dir=str(tmp_path)
            )
            try:
                answers = []
                for _ in range(requests):
                    answers.append(await service.tune("sales", **TUNE_A))
                return answers, len(service.cost_cache), service.stats()
            finally:
                await service.stop()

        (first, second), absorbed, stats = run(scenario(2))
        assert second["result"] == first["result"]
        # The first run's cost entries were absorbed into the parent...
        assert absorbed > 0
        assert first["meta"]["cost_cache_stats"]["hits"] == 0
        # ...and the second run, over the held stage, looked nothing up.
        costs = second["meta"]["cost_cache_stats"]
        assert costs["hits"] + costs["misses"] == 0
        assert second["meta"]["delta_stats"]["full_recosts"] == 0
        assert second["meta"]["delta_stats"]["probe_evals"] == 0
        assert stats["coalesced"]["tune"] == 0
        # The caches were persisted on stop...
        assert (tmp_path / "costs.json").exists()
        # ...so a new service's first run, which prepares, replays them.
        (warm,), _absorbed, _stats = run(scenario(1))
        assert warm["result"] == first["result"]
        assert warm["meta"]["cost_cache_stats"]["hits"] > 0
        assert warm["meta"]["cost_cache_stats"]["misses"] == 0

    def test_cached_tune_identical_to_uncached(self, service_inputs,
                                               tmp_path):
        db, wl = service_inputs

        async def with_cache(cache_dir):
            service = await _make_service(db, wl, cache_dir=cache_dir)
            try:
                return await service.tune("sales", **TUNE_B)
            finally:
                await service.stop()

        cached = run(with_cache(str(tmp_path)))
        warm = run(with_cache(str(tmp_path)))  # fresh service, warm dir
        bare = run(with_cache(None))
        assert cached["result"] == bare["result"]
        assert warm["result"] == bare["result"]
