"""Versioned ``/v1`` wire schema for the advisor service.

One place defines the request envelope: the schema version and, per
POST surface, the exact set of allowed top-level fields.  The HTTP
layer validates every ``/v1`` POST body against it **before** routing —
a wrong ``schema_version`` or any unknown top-level field answers 400
naming the offender — and stamps ``schema_version`` into every ``/v1``
JSON response.  :class:`~repro.service.client.AdvisorClient` sends the
version with every request and asserts it on every response.

This replaces the ad-hoc routing-field checks that used to live in
:mod:`repro.service.context` (``_reject_routing``): instead of
enumerating the specific stray fields that once caused trouble
(``tenant``/``priority`` smuggled into a tune payload would skew
coalescing keys and journaled re-runs), the
envelope is closed — anything not explicitly allowed is rejected at the
door, with the allowed set in the error text.

``schema_version`` is optional on requests (a bare curl still works)
but must equal :data:`SCHEMA_VERSION` when present; it is always
present on responses.  Bump the version when a field changes meaning,
not when one is added — additions just extend the allowed sets.
"""

from __future__ import annotations

from repro.errors import ServiceError

#: the ``/v1`` envelope version this server (and client) speaks.
SCHEMA_VERSION = 1

#: fields every POST body may carry.
_COMMON = frozenset({"schema_version", "context"})

#: request payload fields per synchronous POST surface.
_TUNE = frozenset({
    "budget_bytes", "budget_fraction", "variant", "seed", "options",
})
_SWEEP = frozenset({
    "budget_bytes", "budget_fractions", "variant", "seeds", "options",
})
_RETUNE = _TUNE | frozenset({"drift", "from_config", "generation"})
_ESTIMATE_SIZE = frozenset({"index"})
_WHATIF_COST = frozenset({"statement_index", "sql", "indexes"})

#: POST /v1/<kind> — allowed top-level fields.
REQUEST_FIELDS: dict[str, frozenset] = {
    "tune": _COMMON | _TUNE,
    "sweep": _COMMON | _SWEEP,
    "estimate_size": _COMMON | _ESTIMATE_SIZE,
    "whatif_cost": _COMMON | _WHATIF_COST,
}

#: POST /v1/jobs routing fields (addressed to the job tier, popped
#: before the payload reaches a context).
JOB_ROUTING = frozenset({
    "kind", "tenant", "priority", "deadline_s", "retries",
    "retry_backoff",
})

#: POST /v1/jobs — allowed top-level fields per job kind.
JOB_FIELDS: dict[str, frozenset] = {
    "tune": _COMMON | JOB_ROUTING | _TUNE,
    "sweep": _COMMON | JOB_ROUTING | _SWEEP,
    "retune": _COMMON | JOB_ROUTING | _RETUNE,
}


def check_version(payload: dict) -> None:
    """400 when the body names a version this server does not speak."""
    version = payload.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ServiceError(
            f"unsupported schema_version {version!r}; this server "
            f"speaks {SCHEMA_VERSION}"
        )


def _check_fields(payload: dict, allowed: frozenset, surface: str) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        message = (
            f"unknown field(s) for {surface}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
        routing = sorted(set(unknown) & (JOB_ROUTING - {"kind"}))
        if routing:
            message += (
                f"; routing field(s) {', '.join(routing)} ride the "
                "job submission envelope, never the payload"
            )
        raise ServiceError(message)


def validate_request(kind: str, payload: dict) -> None:
    """Validate a ``POST /v1/<kind>`` body (version + closed field
    set).  Unknown kinds pass through — the service layer owns the
    known-kind error so in-process callers get the same message."""
    check_version(payload)
    allowed = REQUEST_FIELDS.get(kind)
    if allowed is not None:
        _check_fields(payload, allowed, f"/v1/{kind}")


def validate_job(kind, payload: dict) -> None:
    """Validate a ``POST /v1/jobs`` body for the given job kind."""
    check_version(payload)
    if not isinstance(kind, str):
        raise ServiceError(f"'kind' must be a string, got {kind!r}")
    allowed = JOB_FIELDS.get(kind)
    if allowed is not None:
        _check_fields(payload, allowed, f"/v1/jobs kind={kind}")


def validate_job_payload(kind: str, payload: dict) -> None:
    """Validate an in-process job *payload* — the dict that reaches the
    job tier after the HTTP layer pops the envelope (or that a Python
    caller passes to ``submit_job`` directly).  Stricter than
    :func:`validate_job`: envelope fields (routing, context, version)
    must not be smuggled inside — they would skew coalescing keys and
    journaled re-runs."""
    allowed = JOB_FIELDS.get(kind)
    if allowed is not None:
        _check_fields(payload, allowed - JOB_ROUTING - _COMMON,
                      f"a {kind} job payload")


def stamp(response: dict) -> dict:
    """The response with ``schema_version`` first (idempotent)."""
    if response.get("schema_version") == SCHEMA_VERSION:
        return response
    return {"schema_version": SCHEMA_VERSION, **response}
