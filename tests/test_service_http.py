"""JSON-over-HTTP front end + async client: round-trips, error mapping,
503 backpressure, and the ``/v1/jobs`` surface (submit, poll, chunked
event streaming, cancel)."""

import asyncio
import json
import sys
import threading

import pytest

from repro.datasets.sales import sales_database, sales_workload
from repro.service import (
    AdvisorClient,
    AdvisorService,
    ServiceHTTPError,
    ServiceHTTPServer,
    serve,
)
from repro.service.http import SWITCH_INTERVAL_S


@pytest.fixture(scope="module")
def http_inputs():
    db = sales_database(scale=0.02)
    wl = sales_workload(db)
    return db, wl


def run(coro):
    return asyncio.run(coro)


async def _boot(db, wl, **service_kwargs):
    service = AdvisorService(**service_kwargs)
    service.register("sales", db, wl)
    server = ServiceHTTPServer(service, port=0)  # ephemeral port
    await server.start()
    # retries=0: these tests assert raw status codes; automatic 503
    # backoff is exercised separately (tests/test_client_backoff.py).
    return service, server, AdvisorClient(port=server.port, retries=0)


class TestRoundTrips:
    def test_health_contexts_stats(self, http_inputs):
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            try:
                health = await client.wait_ready()
                contexts = await client.contexts()
                stats = await client.stats()
                return health, contexts, stats
            finally:
                await server.stop()

        health, contexts, stats = run(scenario())
        assert health["ok"] is True
        assert health["contexts"] == ["sales"]
        ctx = contexts["contexts"][0]
        assert ctx["name"] == "sales"
        assert ctx["statements"] == len(sales_workload(http_inputs[0]))
        assert stats["max_pending"] == 64
        assert stats["running"] is True

    def test_estimate_cost_and_tune_over_http(self, http_inputs):
        """The HTTP answers carry exactly the payloads the in-process
        service produces (JSON round-trips floats exactly)."""
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            try:
                est = await client.estimate_size(
                    "sales",
                    index={"table": "sales", "key_columns": ["sa_date"],
                           "method": "page"},
                )
                cost = await client.whatif_cost(
                    "sales", statement_index=0,
                    indexes=[{"table": "sales",
                              "key_columns": ["sa_date"]}],
                )
                answer = await client.tune(
                    "sales", budget_fraction=0.12, variant="dtac-none",
                )
                return est, cost, answer
            finally:
                await server.stop()

        est, cost, answer = run(scenario())
        assert est["est_bytes"] > 0
        assert est["index"]["display_name"] == "ix_sales_sa_date_page"
        assert cost["total"] == cost["io"] + cost["cpu"]

        # Byte-identical to the in-process service path.
        async def direct():
            service = AdvisorService()
            service.register("sales", db, wl)
            await service.start()
            try:
                return await service.tune(
                    "sales", budget_fraction=0.12, variant="dtac-none",
                )
            finally:
                await service.stop()

        assert answer["result"] == run(direct())["result"]

    def test_concurrent_http_clients_coalesce(self, http_inputs):
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            try:
                payload = dict(statement_index=0)
                answers = await asyncio.gather(*[
                    client.whatif_cost("sales", **payload)
                    for _ in range(4)
                ])
                stats = await client.stats()
                return answers, stats
            finally:
                await server.stop()

        answers, stats = run(scenario())
        assert all(a == answers[0] for a in answers)
        assert stats["coalesced"]["whatif_cost"] > 0
        assert stats["completed"]["whatif_cost"] \
            + stats["coalesced"]["whatif_cost"] == 4


class TestErrorMapping:
    def test_http_errors(self, http_inputs):
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            out = {}
            try:
                for label, coro in [
                    ("unknown_context",
                     client.whatif_cost("nope", statement_index=0)),
                    ("unknown_kind",
                     client._post("frobnicate", "sales")),
                    ("bad_payload", client.tune("sales")),
                    ("bad_spec", client.estimate_size(
                        "sales", index={"table": "sales",
                                        "key_columns": ["sa_date"],
                                        "method": "zstd"})),
                ]:
                    with pytest.raises(ServiceHTTPError) as err:
                        await coro
                    out[label] = err.value.status
                out["missing_resource"] = None
                try:
                    await client._request("GET", "/v1/bogus")
                except ServiceHTTPError as exc:
                    out["missing_resource"] = exc.status
                try:
                    await client._request("PUT", "/v1/tune")
                except ServiceHTTPError as exc:
                    out["bad_method"] = exc.status
                return out
            finally:
                await server.stop()

        statuses = run(scenario())
        assert statuses["unknown_context"] == 400
        assert statuses["unknown_kind"] == 400
        assert statuses["bad_payload"] == 400
        assert statuses["bad_spec"] == 400
        assert statuses["missing_resource"] == 404
        assert statuses["bad_method"] == 405

    def test_malformed_bodies(self, http_inputs):
        db, wl = http_inputs

        async def raw_post(port, path, body: bytes):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(
                f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            status = int(raw.split(b" ", 2)[1])
            payload = json.loads(raw.partition(b"\r\n\r\n")[2] or b"{}")
            return status, payload

        async def scenario():
            service, server, client = await _boot(db, wl)
            try:
                not_json = await raw_post(
                    server.port, "/v1/tune", b"this is not json"
                )
                not_object = await raw_post(
                    server.port, "/v1/tune", b"[1,2,3]"
                )
                no_context = await raw_post(
                    server.port, "/v1/tune", b"{}"
                )
                return not_json, not_object, no_context
            finally:
                await server.stop()

        not_json, not_object, no_context = run(scenario())
        assert not_json[0] == 400 and "JSON" in not_json[1]["error"]
        assert not_object[0] == 400
        assert no_context[0] == 400
        assert "context" in no_context[1]["error"]

    @pytest.mark.parametrize("payload, named", [
        ({"sql": "DELETE FROM sales WHERE nosuchcol = 3"}, "nosuchcol"),
        ({"sql": "UPDATE sales SET sa_date = 1 WHERE nosuch = 3"},
         "nosuch"),
        ({"sql": "UPDATE sales SET nosuch = 1 WHERE sa_date = 3"},
         "nosuch"),
        ({"sql": "INSERT INTO sales BULK -5"}, "-5"),
        ({"sql": "INSERT INTO nosuch BULK 5"}, "nosuch"),
        ({"statement_index": True}, "statement_index"),
        ({"statement_index": 1.0}, "statement_index"),
    ], ids=["delete-column", "update-where-column", "update-set-column",
            "insert-negative-rows", "insert-table", "index-bool",
            "index-float"])
    def test_whatif_cost_rejects_bad_statements(self, http_inputs,
                                                payload, named):
        """Every statement kind is checked against the catalog before
        costing: a 400 that names the problem, never a 500 from inside
        the coster or a silently costed answer."""
        db, wl = http_inputs

        async def scenario():
            _service, server, client = await _boot(db, wl)
            try:
                with pytest.raises(ServiceHTTPError) as err:
                    await client.whatif_cost("sales", **payload)
                return err.value
            finally:
                await server.stop()

        error = run(scenario())
        assert error.status == 400
        assert named in error.message

    @pytest.mark.parametrize("kind, payload, named", [
        ("estimate_size", {"index": {"table": ["sales"],
                                     "key_columns": ["sa_date"]}},
         "'table'"),
        ("estimate_size", {"index": {"table": "sales",
                                     "key_columns": "sa_date"}},
         "key_columns"),
        ("estimate_size", {"index": {"table": "sales",
                                     "key_columns": ["sa_date", 3]}},
         "key_columns"),
        ("estimate_size", {"index": {"table": "sales",
                                     "key_columns": ["sa_date"],
                                     "included_columns": "sa_qty"}},
         "included_columns"),
        ("estimate_size", {"index": {"table": "sales", "kind": "heap",
                                     "key_columns": ["sa_date"]}},
         "heap"),
        ("whatif_cost", {"sql": 5}, "'sql'"),
        ("whatif_cost", {"statement_index": 0, "indexes": 5}, "indexes"),
        ("whatif_cost", {"statement_index": 0,
                         "indexes": [{"table": ["sales"],
                                      "key_columns": ["sa_date"]}]},
         "'table'"),
        ("whatif_cost", {"statement_index": 0,
                         "indexes": [{"table": "sales",
                                      "key_columns": "sa_date"}]},
         "key_columns"),
    ], ids=["table-list", "key-columns-string", "key-columns-int",
            "included-string", "heap-with-keys", "sql-int", "indexes-int",
            "whatif-table-list", "whatif-key-columns-string"])
    def test_index_specs_and_sql_fail_at_the_boundary(self, http_inputs,
                                                      kind, payload, named):
        """A malformed index spec or ad-hoc statement is a 400 naming
        the field — never a 500 from inside sizing or costing, nor a
        string key split into one-letter columns."""
        db, wl = http_inputs

        async def scenario():
            _service, server, client = await _boot(db, wl)
            try:
                with pytest.raises(ServiceHTTPError) as err:
                    await getattr(client, kind)("sales", **payload)
                return err.value
            finally:
                await server.stop()

        error = run(scenario())
        assert error.status == 400
        assert named in error.message

    def test_heap_spec_without_columns_is_sized(self, http_inputs):
        """The heap decision's other side: a bare heap spec is a valid
        structure and is sized."""
        db, wl = http_inputs

        async def scenario():
            _service, server, client = await _boot(db, wl)
            try:
                return await client.estimate_size(
                    "sales", index={"table": "sales", "kind": "heap",
                                    "method": "page"},
                )
            finally:
                await server.stop()

        answer = run(scenario())
        assert answer["est_bytes"] > 0
        assert answer["index"]["kind"] == "heap"
        assert answer["index"]["key_columns"] == []

    def test_retryable_flag(self):
        assert ServiceHTTPError(503, "full").retryable
        assert not ServiceHTTPError(400, "nope").retryable


#: tune/retune payload fields a bad value is tried in, and the name the
#: 400 must carry.
_BAD_TUNING = [
    ({"budget_fraction": "x"}, "budget_fraction"),
    ({"budget_fraction": -0.5}, "budget_fraction"),
    ({"budget_fraction": True}, "budget_fraction"),
    ({"budget_bytes": float("inf")}, "budget_bytes"),
    ({"budget_bytes": 10 ** 400}, "budget_bytes"),
    ({"budget_fraction": 0.1, "seed": "abc"}, "seed"),
    ({"budget_fraction": 0.1, "seed": 1.5}, "seed"),
    ({"budget_fraction": 0.1, "seed": True}, "seed"),
    ({"budget_fraction": 0.1, "options": [1]}, "options"),
    ({"budget_fraction": 0.1, "options": {"top_k": "x"}}, "top_k"),
    ({"budget_fraction": 0.1, "options": {"backtracking": 1}},
     "backtracking"),
    ({"budget_fraction": 0.1, "options": {"min_improvement": "0.1"}},
     "min_improvement"),
    ({"budget_fraction": 0.1, "options": {"top_k": -1}}, "top_k"),
    ({"budget_fraction": 0.1, "options": {"max_key_columns": 0}},
     "max_key_columns"),
    ({"budget_fraction": 0.1, "options": {"strategy": "Greedy"}},
     "strategy"),
    ({"budget_fraction": 0.1, "options": {"min_improvement": -1.0}},
     "min_improvement"),
    ({"budget_fraction": 0.1, "options": {"seed_fanout": 0}},
     "seed_fanout"),
]
_BAD_TUNING_IDS = [
    "budget-string", "budget-negative", "budget-bool", "budget-inf",
    "budget-past-float-range", "seed-string", "seed-float", "seed-bool", "options-list",
    "option-int-as-string", "option-bool-as-int", "option-float-as-string",
    "option-top-k-negative", "option-key-columns-zero",
    "option-strategy-unknown", "option-min-improvement-negative",
    "option-seed-fanout-zero",
]

#: the same checks on a sweep's budget and seed lists.
_BAD_SWEEP = [
    ({"budget_fractions": "x"}, "budget_fractions"),
    ({"budget_fractions": []}, "budget_fractions"),
    ({"budget_fractions": [0.1, "x"]}, "budget_fractions[1]"),
    ({"budget_fractions": [-0.1]}, "budget_fractions[0]"),
    ({"budget_bytes": [float("nan")]}, "budget_bytes[0]"),
    ({"budget_fractions": [0.1], "seeds": 3}, "seeds"),
    ({"budget_fractions": [0.1], "seeds": [1, "a"]}, "seeds[1]"),
    ({"budget_fractions": [0.1], "seeds": [True]}, "seeds[0]"),
    ({"budget_fractions": [0.1], "options": {"top_k": "x"}}, "top_k"),
    ({"budget_fractions": [0.1], "options": {"seed_fanout": -3}},
     "seed_fanout"),
]
_BAD_SWEEP_IDS = [
    "budgets-string", "budgets-empty", "budget-string", "budget-negative",
    "budget-nan", "seeds-int", "seed-string", "seed-bool",
    "option-int-as-string", "option-seed-fanout-negative",
]


class TestTuningPayloadValidation:
    """A bad tuning payload is a 400 naming its field on every surface
    that takes one, and a rejected job is never journaled."""

    @staticmethod
    async def _rejections(db, wl, tmp_path, attempts):
        """Run each ``(label, make_coro)`` against one journaled server
        and collect ``{label: (status, message)}``, plus what reached
        the job tier and its journal."""
        service, server, client = await _boot(db, wl,
                                              cache_dir=str(tmp_path))
        out = {}
        try:
            for label, make in attempts(client):
                try:
                    await make()
                except ServiceHTTPError as exc:
                    out[label] = (exc.status, exc.message)
                else:
                    out[label] = (200, "accepted")
            return out, dict(service.jobs.submitted), \
                service.journal.appended
        finally:
            await server.stop(drain=False)

    @pytest.mark.parametrize("payload, named", _BAD_TUNING,
                             ids=_BAD_TUNING_IDS)
    def test_tune_and_retune(self, http_inputs, tmp_path, payload, named):
        db, wl = http_inputs

        def attempts(client):
            return [
                ("tune", lambda: client.tune("sales", **payload)),
                ("tune job", lambda: client.submit_job(
                    "sales", kind="tune", **payload)),
                ("retune job", lambda: client.submit_job(
                    "sales", kind="retune", **payload)),
            ]

        out, submitted, appended = run(
            self._rejections(db, wl, tmp_path, attempts)
        )
        for label, (status, message) in out.items():
            assert status == 400, (label, message)
            assert named in message, (label, message)
        assert sum(submitted.values()) == 0
        assert appended == 0

    @pytest.mark.parametrize("payload, named", _BAD_SWEEP,
                             ids=_BAD_SWEEP_IDS)
    def test_sweep(self, http_inputs, tmp_path, payload, named):
        db, wl = http_inputs

        def attempts(client):
            return [
                ("sweep", lambda: client.sweep("sales", **payload)),
                ("sweep job", lambda: client.submit_job(
                    "sales", kind="sweep", **payload)),
            ]

        out, submitted, appended = run(
            self._rejections(db, wl, tmp_path, attempts)
        )
        for label, (status, message) in out.items():
            assert status == 400, (label, message)
            assert named in message, (label, message)
        assert sum(submitted.values()) == 0
        assert appended == 0


class TestJobsHTTP:
    def test_submit_stream_poll_roundtrip(self, http_inputs):
        """POST /v1/jobs -> stream /events (chunked NDJSON, >=1 greedy
        step) -> GET the finished snapshot, byte-identical to the
        synchronous /v1/tune answer."""
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            try:
                job = await client.submit_job(
                    "sales", kind="tune",
                    budget_fraction=0.12, variant="dtac-none",
                )
                assert job["state"] in ("queued", "running")
                events = []
                async for event in client.stream_events(job["id"]):
                    events.append(event)
                final = await client.job(job["id"])
                listing = await client.jobs()
                sync = await client.tune(
                    "sales", budget_fraction=0.12, variant="dtac-none",
                )
                return job, events, final, listing, sync
            finally:
                await server.stop()

        job, events, final, listing, sync = run(scenario())
        assert final["state"] == "done"
        assert final["result"]["result"] == sync["result"]
        greedy = [e for e in events if e["event"] == "greedy_step"]
        assert len(greedy) >= 1
        states = [e["state"] for e in events if e["event"] == "state"]
        assert states[-1] == "done"
        assert any(j["id"] == job["id"] for j in listing["jobs"])

    def test_tenant_filter_and_guardrail_fields(self, http_inputs):
        """``GET /v1/jobs?tenant=X`` lists only that tenant's jobs, and
        ``deadline_s``/``retries``/``retry_backoff`` submitted over HTTP
        land in the job snapshot."""
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            try:
                acme = await client.submit_job(
                    "sales", kind="tune", tenant="acme",
                    budget_fraction=0.12, variant="dtac-none",
                    deadline_s=600.0, retries=2, retry_backoff=0.1,
                )
                other = await client.submit_job(
                    "sales", kind="tune", tenant="globex",
                    budget_fraction=0.12, variant="dtac-none",
                )
                await client.wait_job(acme["id"])
                await client.wait_job(other["id"])
                acme_list = await client.jobs(tenant="acme")
                globex_list = await client.jobs(tenant="globex")
                nobody = await client.jobs(tenant="nobody")
                everyone = await client.jobs()
                snapshot = await client.job(acme["id"])
                return (acme, other, acme_list, globex_list,
                        nobody, everyone, snapshot)
            finally:
                await server.stop()

        (acme, other, acme_list, globex_list,
         nobody, everyone, snapshot) = run(scenario())
        assert [j["id"] for j in acme_list["jobs"]] == [acme["id"]]
        assert [j["id"] for j in globex_list["jobs"]] == [other["id"]]
        assert nobody["jobs"] == []
        listed = {j["id"] for j in everyone["jobs"]}
        assert {acme["id"], other["id"]} <= listed
        assert snapshot["tenant"] == "acme"
        assert snapshot["deadline_s"] == 600.0
        assert snapshot["retries"] == 2
        assert snapshot["retry_backoff"] == 0.1
        assert snapshot["state"] == "done"

    def test_stream_resumes_after_seq(self, http_inputs):
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            try:
                job = await client.submit_job(
                    "sales", kind="tune",
                    budget_fraction=0.12, variant="dtac-none",
                )
                full = [e async for e in client.stream_events(job["id"])]
                tail = [
                    e async for e in
                    client.stream_events(job["id"], after=full[2]["seq"])
                ]
                return full, tail
            finally:
                await server.stop()

        full, tail = run(scenario())
        assert tail == full[3:]

    def test_cancel_over_http(self, http_inputs):
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            try:
                job = await client.submit_job(
                    "sales", kind="tune",
                    budget_fraction=0.12, variant="dtac-none",
                )
                # Cancel at the second progress event, mid-run.
                seen = 0
                async for event in client.stream_events(job["id"]):
                    if event["event"] in ("phase", "greedy_step",
                                          "sweep"):
                        seen += 1
                        if seen == 2:
                            await client.cancel_job(job["id"])
                final = await client.wait_job(job["id"])
                return final
            finally:
                await server.stop()

        final = run(scenario())
        assert final["state"] == "cancelled"

    def test_jobs_error_mapping(self, http_inputs):
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            out = {}
            try:
                for label, coro in [
                    ("missing_job", client.job("job-999999")),
                    ("missing_job_cancel",
                     client.cancel_job("job-999999")),
                    ("bad_kind", client.submit_job(
                        "sales", kind="estimate_size")),
                    ("bad_context", client.submit_job(
                        "nope", kind="tune", budget_fraction=0.1)),
                ]:
                    with pytest.raises(ServiceHTTPError) as err:
                        await coro
                    out[label] = err.value.status
                try:
                    await client._request(
                        "GET", "/v1/jobs/job-1/bogus"
                    )
                except ServiceHTTPError as exc:
                    out["bad_action"] = exc.status
                try:
                    await client._request("PUT", "/v1/jobs")
                except ServiceHTTPError as exc:
                    out["bad_method"] = exc.status
                return out
            finally:
                await server.stop()

        statuses = run(scenario())
        assert statuses["missing_job"] == 404
        assert statuses["missing_job_cancel"] == 404
        assert statuses["bad_kind"] == 400
        assert statuses["bad_context"] == 400
        assert statuses["bad_action"] == 404
        assert statuses["bad_method"] == 405

    def test_stream_for_missing_job_is_404(self, http_inputs):
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            try:
                with pytest.raises(ServiceHTTPError) as err:
                    async for _ in client.stream_events("job-999999"):
                        pass
                return err.value.status
            finally:
                await server.stop()

        assert run(scenario()) == 404


class TestHTTPBackpressure:
    def test_queue_full_returns_503(self, http_inputs):
        """A saturated service answers 503 (with Retry-After) instead of
        parking connections, and recovers once the queue drains."""
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl, max_pending=1)
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
                    client.whatif_cost("sales", statement_index=0)
                )
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 30
                )
                filler = asyncio.ensure_future(
                    client.whatif_cost("sales", statement_index=1)
                )
                await asyncio.sleep(0.2)
                with pytest.raises(ServiceHTTPError) as err:
                    await client.whatif_cost("sales", statement_index=2)
                release.set()
                answers = await asyncio.gather(blocked, filler)
                again = await client.whatif_cost(
                    "sales", statement_index=2
                )
                return err.value, answers, again
            finally:
                context.run_whatif_cost = original
                await server.stop()

        err, answers, again = run(scenario())
        assert err.status == 503
        assert err.retryable
        assert len(answers) == 2
        assert again["total"] > 0


@pytest.fixture
def marked_interval():
    """A switch interval that is neither CPython's default nor the
    serving constant, so a restore cannot pass by accident."""
    original = sys.getswitchinterval()
    sys.setswitchinterval(0.004)
    try:
        yield sys.getswitchinterval()
    finally:
        sys.setswitchinterval(original)


class TestSwitchInterval:
    """``serve()`` runs the interpreter at ``SWITCH_INTERVAL_S`` and
    hands the previous value back on the way out; nothing else touches
    it.  (No latency is asserted: shared runners make that flaky.)"""

    def test_held_while_serving_restored_on_return(
            self, http_inputs, marked_interval, monkeypatch):
        db, wl = http_inputs
        seen = []

        async def returning_serve_forever(self):
            seen.append(sys.getswitchinterval())

        monkeypatch.setattr(ServiceHTTPServer, "serve_forever",
                            returning_serve_forever)

        async def scenario():
            service = AdvisorService()
            service.register("sales", db, wl)
            await serve(service, port=0, ready_message=False)
            return service.started

        started = run(asyncio.wait_for(scenario(), 60))
        assert seen == [pytest.approx(SWITCH_INTERVAL_S, abs=1e-6)]
        assert sys.getswitchinterval() == marked_interval
        assert started is False

    def test_stats_while_serving_restored_on_cancel(
            self, http_inputs, marked_interval, monkeypatch):
        """Through a real ``serve()``: ``/v1/stats`` reports the
        constant and every lane hand-off in ``pickup_wait``; cancelling
        the serving task restores the caller's value."""
        db, wl = http_inputs
        servers = []
        start = ServiceHTTPServer.start

        async def recording_start(self):
            servers.append(self)
            await start(self)

        monkeypatch.setattr(ServiceHTTPServer, "start", recording_start)

        async def scenario():
            service = AdvisorService()
            service.register("sales", db, wl)
            task = asyncio.create_task(
                serve(service, port=0, ready_message=False)
            )
            while not servers or servers[0]._server is None:
                await asyncio.sleep(0.01)
            client = AdvisorClient(port=servers[0].port, retries=0)
            first = await client.whatif_cost("sales", statement_index=0)
            again = await client.whatif_cost("sales", statement_index=0)
            stats = await client.stats()
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return first, again, stats

        first, again, stats = run(asyncio.wait_for(scenario(), 60))
        assert first == again
        assert stats["switch_interval_s"] == \
            pytest.approx(SWITCH_INTERVAL_S, abs=1e-6)
        (lane,) = stats["scheduler"]["lanes"]
        wait = lane["pickup_wait"]
        assert wait["count"] == lane["executed"] == 2
        assert 0 <= wait["max_ms"] <= wait["total_ms"]
        assert sys.getswitchinterval() == marked_interval

    def test_service_without_serve_leaves_it_alone(
            self, http_inputs, marked_interval):
        db, wl = http_inputs

        async def scenario():
            service, server, client = await _boot(db, wl)
            try:
                await client.whatif_cost("sales", statement_index=0)
                job = await client.submit_job(
                    "sales", kind="tune", budget_fraction=0.12,
                    variant="dtac-none",
                )
                await client.wait_job(job["id"])
                return await client.stats()
            finally:
                await server.stop()

        stats = run(asyncio.wait_for(scenario(), 120))
        assert stats["switch_interval_s"] == marked_interval
        assert sys.getswitchinterval() == marked_interval
        (lane,) = stats["scheduler"]["lanes"]
        assert lane["pickup_wait"]["count"] == lane["executed"] == 2
