"""Async tuning service: concurrent what-if tuning over one optimizer.

See :class:`AdvisorService` (asyncio core, coalescing + backpressure),
:class:`JobManager` (durable ``tune``/``sweep`` jobs with streamed
progress, cancellation, priority lanes and tenant quotas),
:class:`JobJournal` (the append-only journal that makes the job tier
survive restarts), :class:`ContextScheduler` /
:class:`FairQueue` (per-context worker lanes and tenant-fair
turn-taking), :class:`ServiceHTTPServer` /
:func:`serve` (stdlib JSON-over-HTTP incl. ``/v1/jobs``), and
:class:`AdvisorClient` (async client with retry/backoff and event
streaming).  :mod:`repro.service.faults` adds a deterministic
fault-injection layer (:class:`FaultPlan`) behind the tier's runtime
guardrails: per-job deadlines, retry policies and disk-pressure
degraded mode.
"""

from repro.service.client import AdvisorClient, ServiceHTTPError
from repro.service.context import (
    ServiceContext,
    index_to_spec,
    parse_index_spec,
    serialize_result,
)
from repro.service.faults import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    clear as clear_faults,
    describe_active,
    install as install_faults,
    install_from_env,
)
from repro.service.http import ServiceHTTPServer, describe_algorithms, serve
from repro.service.jobs import (
    JOB_KINDS,
    JOB_STATES,
    TERMINAL_STATES,
    JobManager,
    JobRecord,
)
from repro.service.journal import JobImage, JobJournal
from repro.service.scheduler import (
    PRIORITIES,
    ContextLane,
    ContextScheduler,
    FairQueue,
)
from repro.service.service import REQUEST_KINDS, AdvisorService

__all__ = [
    "AdvisorService",
    "AdvisorClient",
    "ContextLane",
    "ContextScheduler",
    "FairQueue",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedFault",
    "JobImage",
    "JobJournal",
    "JobManager",
    "JobRecord",
    "JOB_KINDS",
    "JOB_STATES",
    "PRIORITIES",
    "REQUEST_KINDS",
    "ServiceContext",
    "ServiceHTTPServer",
    "ServiceHTTPError",
    "TERMINAL_STATES",
    "serve",
    "clear_faults",
    "describe_active",
    "install_faults",
    "install_from_env",
    "describe_algorithms",
    "serialize_result",
    "parse_index_spec",
    "index_to_spec",
]
