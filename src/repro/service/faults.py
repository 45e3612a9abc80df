"""Deterministic fault injection for the job tier's chaos tests.

Production failures — disk pressure, transient I/O errors, hung
estimator batches, silently-dead workers — are timing-dependent and
unreproducible by nature.  This module makes them *scheduled*: a
:class:`FaultPlan` is an enumerable list of :class:`FaultSpec` entries,
each naming a registered injection **site** (see :data:`SITES`), what
to inject (``enospc``/``eio`` → :class:`OSError`, ``error``/``stall``
→ :class:`InjectedFault`, ``delay=S`` → a sleep) and *when* (skip the
first ``@N`` matching calls, fire at most ``xM`` times).  The same
plan replays the exact same failure schedule on every run, so a chaos
test's assertions — every job terminal, no leaked leases, byte-
identical retry results — are deterministic.

Activation:

* tests: ``faults.install(FaultPlan.parse("journal.append:enospcx3"))``
  and ``faults.clear()`` in teardown;
* CLI: ``repro serve --fault-plan 'coster.batch:error@2x1'``;
* env: ``REPRO_FAULTS='journal.append:enospc@5'`` — read by
  :func:`install_from_env` at service construction, which is how CI's
  disk-full smoke injects ``ENOSPC`` into a real server process.

Plan grammar (specs joined by ``;``)::

    SITE:KIND[@AFTER][xTIMES][~MATCH]

    journal.append:enospc@5x3   calls 6..8 to journal.append fail ENOSPC
    coster.batch:error@2x1      the 3rd cost batch raises InjectedFault
    estimator.estimate:delay=0.05   every estimation batch sleeps 50ms
    worker.heartbeat:stall      heartbeats are skipped (lease goes stale)

Hot paths outside the service package (the search's costing step, the
size estimator, the persistent caches) must not import this module at module scope —
that would drag the whole service package into every tune.  They
declare a module-level ``FAULT_HOOK = None`` instead;
:func:`install` rebinds it to :func:`fire` (and :func:`clear` back to
None), so an inactive plan costs those paths a single ``is None``
check.

:func:`FaultPlan.seeded` derives a small randomized schedule from an
integer seed (the CI chaos matrix replays seeds 0..2): same seed, same
schedule, always.
"""

from __future__ import annotations

import errno
import importlib
import os
import random
import threading
import time

from repro.errors import ReproError

#: every registered injection point: site name -> where it fires.
SITES = {
    "journal.append": "JobJournal._append, before the segment write",
    "journal.fsync": "JobJournal._append, before the per-line fsync",
    "journal.rotate": "JobJournal segment rotation, before the rename",
    "cache.save": "_PersistentJsonCache.save, before the atomic replace",
    "worker.heartbeat": "JobWorker progress hook, before a lease beat",
    "worker.claim": "JobWorker.run_once, after a successful claim",
    "coster.batch": "SelectionAlgorithm._costs entry",
    "estimator.estimate": "SizeEstimator.estimate_many entry",
    "scheduler.lane": "ContextScheduler.lane_for entry",
    "service.execute": "AdvisorService._execute entry",
}

#: fault kinds a spec may inject (``delay`` carries a seconds arg).
KINDS = ("enospc", "eio", "error", "stall", "delay")

#: modules outside repro.service that expose a FAULT_HOOK attribute
#: (lazy-bound so inactive plans never import the service package).
_HOOK_MODULES = (
    "repro.advisor.algorithms.base",
    "repro.sizeest.estimator",
    "repro.parallel.cache",
)

#: environment variable install_from_env() reads a plan string from.
ENV_VAR = "REPRO_FAULTS"


class InjectedFault(ReproError):
    """A scheduled failure from an active :class:`FaultPlan`.

    ``error`` specs raise it to model an operation blowing up (the
    retry path treats it like any transient exception); ``stall``
    specs raise it at sites that *catch* it to model an operation
    silently not happening (a skipped heartbeat, a hung claim)."""


class FaultPlanError(ReproError):
    """A fault-plan string that does not parse or names unknown sites."""


class FaultSpec:
    """One scheduled fault: where, what, and when.

    Args:
        site: a key of :data:`SITES`.
        kind: one of :data:`KINDS`.
        after: matching calls to skip before the first firing.
        times: maximum firings (None = every matching call).
        delay: sleep seconds (``delay`` kind only).
        match: only fire when this substring appears in the call's
            context values (e.g. a job id or context name).
    """

    def __init__(self, site: str, kind: str, *, after: int = 0,
                 times: int | None = None, delay: float = 0.0,
                 match: str | None = None) -> None:
        if site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {site!r}; one of {sorted(SITES)}"
            )
        if kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind {kind!r}; one of {KINDS}"
            )
        self.site = site
        self.kind = kind
        self.after = max(int(after), 0)
        self.times = times
        self.delay = float(delay)
        self.match = match
        #: matching calls observed / faults actually fired.
        self.calls = 0
        self.fired = 0

    def describe(self) -> dict:
        return {
            "site": self.site, "kind": self.kind, "after": self.after,
            "times": self.times, "delay": self.delay,
            "match": self.match, "calls": self.calls,
            "fired": self.fired,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSpec({self.describe()!r})"


class FaultPlan:
    """An enumerable, thread-safe schedule of :class:`FaultSpec`\\ s."""

    def __init__(self, specs: "list[FaultSpec] | None" = None) -> None:
        self.specs = list(specs or [])
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from the compact CLI/env grammar (see module
        docstring); raises :class:`FaultPlanError` on anything it does
        not understand."""
        specs = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            site, sep, rest = chunk.partition(":")
            if not sep or not rest:
                raise FaultPlanError(
                    f"bad fault spec {chunk!r}; expected "
                    "SITE:KIND[@AFTER][xTIMES][~MATCH]"
                )
            match = None
            if "~" in rest:
                rest, _, match = rest.partition("~")
            kind = rest
            after, times, delay = 0, None, 0.0
            # x and @ suffixes may appear in either order after KIND.
            while True:
                for mark in ("@", "x"):
                    head, sep, tail = kind.rpartition(mark)
                    if not sep:
                        continue
                    # `delay=0.5x2`: rpartition on x must not eat into
                    # the kind token itself — the tail must be numeric.
                    try:
                        value = float(tail)
                    except ValueError:
                        continue
                    if mark == "@":
                        after = int(value)
                    else:
                        times = int(value)
                    kind = head
                    break
                else:
                    break
            if kind.startswith("delay"):
                _, _, arg = kind.partition("=")
                try:
                    delay = float(arg)
                except ValueError:
                    raise FaultPlanError(
                        f"bad delay spec {chunk!r}; expected "
                        "delay=SECONDS"
                    ) from None
                kind = "delay"
            specs.append(FaultSpec(
                site.strip(), kind.strip(), after=after, times=times,
                delay=delay, match=match,
            ))
        return cls(specs)

    @classmethod
    def seeded(cls, seed: int, *, sites: "list[str] | None" = None,
               faults: int = 3) -> "FaultPlan":
        """A small deterministic schedule derived from ``seed`` — the
        CI chaos matrix replays the same seeds on every run.  Only
        *recoverable* kinds are drawn (``error`` and ``enospc``, each
        bounded ``x1``..``x2``): the point is proving the guardrails
        converge, not that unbounded disk loss is survivable."""
        rng = random.Random(seed)
        pool = sorted(sites if sites is not None else SITES)
        specs = [
            FaultSpec(
                rng.choice(pool),
                rng.choice(("error", "enospc")),
                after=rng.randrange(0, 4),
                times=rng.randrange(1, 3),
            )
            for _ in range(faults)
        ]
        return cls(specs)

    # ------------------------------------------------------------------
    def fire(self, site: str, **ctx) -> None:
        """Apply every due spec for one call at ``site`` (called via
        the module-level :func:`fire`)."""
        due = []
        with self._lock:
            for spec in self.specs:
                if spec.site != site:
                    continue
                if spec.match is not None and spec.match not in " ".join(
                        str(value) for value in ctx.values()):
                    continue
                spec.calls += 1
                if spec.calls <= spec.after:
                    continue
                if spec.times is not None and spec.fired >= spec.times:
                    continue
                spec.fired += 1
                due.append(spec)
        for spec in due:
            if spec.kind == "delay":
                time.sleep(spec.delay)
            elif spec.kind == "enospc":
                raise OSError(
                    errno.ENOSPC,
                    f"no space left on device (injected at {site})",
                )
            elif spec.kind == "eio":
                raise OSError(
                    errno.EIO, f"input/output error (injected at {site})"
                )
            else:  # error / stall
                raise InjectedFault(
                    f"injected {spec.kind} at {site}"
                )

    def describe(self) -> list[dict]:
        with self._lock:
            return [spec.describe() for spec in self.specs]


#: the installed plan; None = fault injection fully inactive.
_ACTIVE: FaultPlan | None = None


def active() -> FaultPlan | None:
    return _ACTIVE


def fire(site: str, **ctx) -> None:
    """The injection point call: a no-op unless a plan is installed.
    Service-package modules call this directly; hot paths outside the
    package go through their rebound ``FAULT_HOOK`` instead."""
    plan = _ACTIVE
    if plan is not None:
        plan.fire(site, **ctx)


def _bind_hooks(target) -> None:
    for name in _HOOK_MODULES:
        module = importlib.import_module(name)
        module.FAULT_HOOK = target


def install(plan: FaultPlan) -> FaultPlan:
    """Activate a plan process-wide (rebinding the out-of-package
    ``FAULT_HOOK``\\ s); returns it for chaining."""
    global _ACTIVE
    _ACTIVE = plan
    _bind_hooks(fire)
    return plan


def clear() -> None:
    """Deactivate fault injection entirely."""
    global _ACTIVE
    _ACTIVE = None
    _bind_hooks(None)


def install_from_env(environ=None) -> FaultPlan | None:
    """Install the plan named by ``$REPRO_FAULTS`` when set (CLI/CI
    activation); leaves any already-installed plan alone otherwise."""
    text = (environ if environ is not None else os.environ).get(ENV_VAR)
    if not text:
        return None
    return install(FaultPlan.parse(text))


def describe_active() -> list[dict] | None:
    """The active plan's per-spec schedule and counters (surfaced in
    ``stats()`` so CI smokes can assert a fault actually fired)."""
    plan = _ACTIVE
    return plan.describe() if plan is not None else None
