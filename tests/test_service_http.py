"""JSON-over-HTTP front end + async client: round-trips, error mapping,
503 backpressure, and the ``/v1/jobs`` surface (submit, poll, chunked
event streaming, cancel)."""

import asyncio
import json
import threading

import pytest

from repro.datasets.sales import sales_database, sales_workload
from repro.service import (
    AdvisorClient,
    AdvisorService,
    ServiceHTTPError,
    ServiceHTTPServer,
)


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

    def test_retryable_flag(self):
        assert ServiceHTTPError(503, "full").retryable
        assert not ServiceHTTPError(400, "nope").retryable


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
