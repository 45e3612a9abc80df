"""Stdlib JSON-over-HTTP front end for :class:`AdvisorService`.

A deliberately small HTTP/1.1 server on ``asyncio`` streams — no
third-party web framework, mirroring the repo's no-dependency rule.

Routes::

    GET  /healthz                 -> {"ok": true, ...}
    GET  /v1/stats                -> service counters
    GET  /v1/contexts             -> registered context descriptions
    GET  /v1/algorithms           -> registered selection algorithms
                                     (+ their option schemas)
    POST /v1/tune                 -> {"context": ..., ...payload}
    POST /v1/sweep                -> (same shape)
    POST /v1/estimate_size        -> (same shape)
    POST /v1/whatif_cost          -> (same shape)
    POST /v1/jobs                 -> {"context", "kind", "tenant"?,
                                     "priority"?, "deadline_s"?,
                                     "retries"?, "retry_backoff"?,
                                     ...payload}
                                     submit a tune/sweep job
    GET  /v1/jobs                 -> {"jobs": [snapshots...]}
                                     (?tenant=X filters to one tenant)
    GET  /v1/jobs/<id>            -> job snapshot (poll)
    GET  /v1/jobs/<id>/events     -> chunked NDJSON progress stream
                                     (?after=N resumes past seq N)
    POST /v1/jobs/<id>/cancel     -> job snapshot after the request

POST bodies are JSON objects carrying ``context`` plus the request
payload.  A full request queue returns **503** with a ``Retry-After``
header (the service's backpressure surfaced honestly), a tenant over
its admission quota **429** (per-tenant pressure, also with
``Retry-After``), unknown contexts/arguments **400**, unknown
resources/jobs **404**, and internal failures **500** with the error
text in the JSON body.

The events stream answers ``200`` with ``Transfer-Encoding: chunked``
and one JSON event per line, flushed as the advisor emits them —
``curl -N`` (or :meth:`AdvisorClient.stream_events`) tails a running
tune's greedy steps live; the stream closes after the terminal state
event.
"""

from __future__ import annotations

import asyncio
import json
import sys
from urllib.parse import parse_qs

from repro.advisor import algorithms
from repro.errors import (
    BackpressureError,
    JobError,
    QuotaExceededError,
    ReproError,
    ServiceError,
)
from repro.service import wire
from repro.service.service import AdvisorService

#: maximum accepted request body (tuning payloads are tiny).
MAX_BODY_BYTES = 1 << 20

#: the interpreter's thread switch interval while :func:`serve` runs.
#: A question beside a running job crosses threads two or three times
#: (loop -> its context's lane -> loop) while the job's lane thread
#: holds the GIL, and at CPython's 5 ms default each crossing waited
#: up to a full interval: ~6 ms at p50 against 0.23 ms of what-if work.
#: Chosen from a sweep on the ledger's ``serve-mixed`` workload (25 s
#: runs, seeds 1-5 (1-3 at 2 ms), 2-CPU Linux host, CPython 3.11): median
#: ``interactive_p50_ms`` 6.02 at 5 ms; 3.07 at 2 ms; 2.21 at 1 ms;
#: 1.72 at 0.5 ms; 1.43 at 0.25 ms.  Cold, rerun, retune and set-up
#: walls stayed within 3.1 % of 5 ms at every value.  0.25 ms is the
#: only value within 10 % of the best p50.
SWITCH_INTERVAL_S = 0.00025


def describe_algorithms() -> dict:
    """The ``GET /v1/algorithms`` body: every registered selection
    algorithm with its summary and option schema, plus the default
    ``AdvisorOptions.algorithm`` value."""
    return {
        "default": algorithms.DEFAULT_ALGORITHM,
        "algorithms": [
            {
                "name": name,
                "summary": cls.summary,
                "options": cls.options_schema(),
            }
            for name, cls in sorted(algorithms.registered().items())
        ],
    }
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class ServiceHTTPServer:
    """Serves one :class:`AdvisorService` over HTTP."""

    def __init__(self, service: AdvisorService, host: str = "127.0.0.1",
                 port: int = 8765) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start serving (also starts the service itself);
        ``port=0`` binds an ephemeral port, re-read from ``self.port``."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop(drain=drain)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "ServiceHTTPServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except ConnectionError:  # pragma: no cover - client went away
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status, payload = 500, {"error": str(exc)}
        if hasattr(payload, "__aiter__"):
            await self._write_stream(writer, status, payload)
            return
        body = json.dumps(payload).encode()
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if status in (429, 503):
            headers.append("Retry-After: 1")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)
        try:
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        writer.close()

    async def _write_stream(
        self, writer: asyncio.StreamWriter, status: int, events,
    ) -> None:
        """Write an async iterator of JSON events as a chunked NDJSON
        response, flushing each event as it arrives (live tail)."""
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}",
            "Content-Type: application/x-ndjson",
            "Transfer-Encoding: chunked",
            "Connection: close",
        ]
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode())
        try:
            await writer.drain()
            async for event in events:
                data = json.dumps(event).encode() + b"\n"
                writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except ConnectionError:  # client hung up mid-stream — fine,
            pass                 # the job itself is unaffected
        writer.close()

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return 400, {"error": "empty request"}
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": f"malformed request line {request_line!r}"}
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length"}
        if content_length > MAX_BODY_BYTES:
            return 400, {"error": "request body too large"}
        body = (
            await reader.readexactly(content_length)
            if content_length else b""
        )
        status, payload = await self._route(method, path, body)
        if (
            path.partition("?")[0].startswith("/v1/")
            and isinstance(payload, dict)
        ):
            # Every /v1 JSON response carries the envelope version the
            # client asserts (event streams are raw NDJSON lines and
            # stay unstamped).
            payload = wire.stamp(payload)
        return status, payload

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, object]:
        path, _, query = path.partition("?")
        if path.startswith("/v1/jobs"):
            return await self._route_jobs(method, path, query, body)
        if method == "GET":
            if path == "/healthz":
                return 200, {
                    "ok": True,
                    "running": self.service.started,
                    # Disk-pressure degradation is a health property:
                    # the tier still serves, but durability is
                    # best-effort until the disk recovers.
                    "degraded": self.service.degraded,
                    "contexts": sorted(self.service.contexts),
                }
            if path == "/v1/stats":
                return 200, self.service.stats()
            if path == "/v1/contexts":
                return 200, {
                    "contexts": [
                        ctx.describe()
                        for _, ctx in sorted(self.service.contexts.items())
                    ]
                }
            if path == "/v1/algorithms":
                return 200, describe_algorithms()
            return 404, {"error": f"no such resource {path!r}"}
        if method != "POST":
            return 405, {"error": f"method {method} not allowed"}
        kind = path.removeprefix("/v1/")
        if "/" in kind or not kind:
            return 404, {"error": f"no such resource {path!r}"}
        payload, error = self._parse_body(body)
        if error is not None:
            return error
        try:
            # Closed envelope: wrong schema_version or any unknown
            # top-level field answers 400 naming it, before routing.
            wire.validate_request(kind, payload)
        except ServiceError as exc:
            return 400, {"error": str(exc)}
        payload.pop("schema_version", None)
        context = payload.pop("context", None)
        if not isinstance(context, str):
            return 400, {"error": "body needs a 'context' string"}
        try:
            # wait=False: a full queue surfaces as 503 immediately
            # rather than an unbounded number of parked connections.
            result = await self.service.request(
                kind, context, payload, wait=False
            )
        except BackpressureError as exc:
            return 503, {"error": str(exc)}
        except (ServiceError, ReproError) as exc:
            return 400, {"error": str(exc)}
        return 200, result

    @staticmethod
    def _parse_body(body: bytes) -> "tuple[dict, None] | tuple[None, tuple]":
        try:
            payload = json.loads(body.decode() or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return None, (400, {"error": f"bad JSON body: {exc}"})
        if not isinstance(payload, dict):
            return None, (400, {"error": "JSON body must be an object"})
        return payload, None

    async def _route_jobs(
        self, method: str, path: str, query: str, body: bytes
    ) -> tuple[int, object]:
        """The ``/v1/jobs`` surface: submit, list, poll, stream,
        cancel."""
        parts = [p for p in path.removeprefix("/v1/jobs").split("/") if p]
        if not parts:
            if method == "GET":
                tenant = None
                params = parse_qs(query)
                if "tenant" in params:
                    tenant = params["tenant"][0]
                return 200, {
                    "jobs": self.service.jobs.list_jobs(tenant=tenant)
                }
            if method != "POST":
                return 405, {"error": f"method {method} not allowed"}
            payload, error = self._parse_body(body)
            if error is not None:
                return error
            try:
                wire.validate_job(payload.get("kind", "tune"), payload)
            except ServiceError as exc:
                return 400, {"error": str(exc)}
            payload.pop("schema_version", None)
            context = payload.pop("context", None)
            kind = payload.pop("kind", "tune")
            tenant = payload.pop("tenant", "default")
            priority = payload.pop("priority", "normal")
            deadline_s = payload.pop("deadline_s", None)
            retries = payload.pop("retries", 0)
            retry_backoff = payload.pop("retry_backoff", None)
            if not isinstance(context, str):
                return 400, {"error": "body needs a 'context' string"}
            if not isinstance(tenant, str) or \
                    not isinstance(priority, str):
                return 400, {
                    "error": "'tenant' and 'priority' must be strings"
                }
            try:
                record = self.service.submit_job(
                    kind, context, payload,
                    tenant=tenant, priority=priority,
                    deadline_s=deadline_s, retries=retries,
                    retry_backoff=retry_backoff,
                )
            except QuotaExceededError as exc:
                # Per-tenant limit, not global pressure: 429 so clients
                # can tell "I am over quota" from "the service is full".
                return 429, {"error": str(exc)}
            except BackpressureError as exc:
                return 503, {"error": str(exc)}
            except (ServiceError, ReproError) as exc:
                return 400, {"error": str(exc)}
            return 200, record.snapshot()
        job_id = parts[0]
        action = parts[1] if len(parts) > 1 else None
        if len(parts) > 2 or action not in (None, "events", "cancel"):
            return 404, {"error": f"no such resource {path!r}"}
        try:
            record = self.service.jobs.get(job_id)
        except JobError as exc:
            return 404, {"error": str(exc)}
        if action is None:
            if method != "GET":
                return 405, {"error": f"method {method} not allowed"}
            return 200, record.snapshot()
        if action == "cancel":
            if method != "POST":
                return 405, {"error": f"method {method} not allowed"}
            return 200, self.service.cancel_job(job_id).snapshot()
        # action == "events": live chunked stream.
        if method != "GET":
            return 405, {"error": f"method {method} not allowed"}
        after = 0
        params = parse_qs(query)
        if "after" in params:
            try:
                after = int(params["after"][0])
            except ValueError:
                return 400, {"error": "'after' must be an integer"}
        return 200, self.service.job_events(job_id, after)


async def serve(
    service: AdvisorService, host: str = "127.0.0.1", port: int = 8765,
    ready_message: bool = True,
) -> None:
    """Serve until cancelled (the ``repro serve`` entry point).

    Runs the interpreter at :data:`SWITCH_INTERVAL_S` while it serves
    and restores the previous switch interval on the way out."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        server = ServiceHTTPServer(service, host, port)
        await server.start()
        if ready_message:
            contexts = ", ".join(sorted(service.contexts)) or "(none)"
            print(
                f"advisor service: contexts [{contexts}] on "
                f"http://{server.host}:{server.port}",
                flush=True,
            )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop(drain=False)
    finally:
        sys.setswitchinterval(previous)
