"""Per-context scheduling for the tuning service: worker lanes.

A :class:`ContextScheduler` assigns each registered context to a
:class:`ContextLane` — a single-thread executor.  A lane executes
strictly one request at a time, so per-context runs serialize (the
determinism contract needs nothing more), while runs on different
contexts overlap on multi-core hosts.  The lane count is capped
(``--max-context-workers``); past the cap, contexts share the
least-loaded lane, assigned stably in registration order.  Lanes hold
no processes: a tune or retune runs in the lane thread, and a sweep job
forks its pool for the duration of its own ``map``.

The module also owns :class:`FairQueue` — the job tier's per-context
turn-taking policy (priority lanes + round-robin across tenants),
sitting *in front of* the lane: the lane serializes, the queue decides
who goes next.
"""

from __future__ import annotations

import asyncio
import bisect
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.service.faults import fire

#: job priority lanes, strongest first — the pick order of
#: :meth:`FairQueue.pick`.
PRIORITIES = ("high", "normal", "low")


class FairQueue:
    """Per-context turn-taking for the job tier: priority lanes, with
    round-robin across tenants inside each lane.

    A :class:`ContextLane` already *serializes* execution; this queue
    decides **which** parked job reaches the lane next, so one heavy
    tenant cannot starve a context.  The pick is deterministic: strict
    priority order first, then a rotation over the tenants that have
    work — tenant names in sorted order, one job per tenant per visit —
    so the order never depends on timing or hash seeds.  Items are any
    objects with ``tenant`` and ``priority`` attributes (the job tier
    parks its ``JobRecord``\\ s).
    """

    def __init__(self) -> None:
        #: the item currently holding this context's turn.
        self.active = None
        #: priority -> tenant -> FIFO of parked items.
        self.pending: dict[str, dict[str, deque]] = {
            priority: {} for priority in PRIORITIES
        }
        #: priority -> the tenant served last.
        self._cursor: dict[str, str] = {}

    def park(self, item) -> None:
        lanes = self.pending[item.priority]
        lanes.setdefault(item.tenant, deque()).append(item)

    def depth(self) -> int:
        return sum(
            len(q) for lanes in self.pending.values()
            for q in lanes.values()
        )

    def pick(self):
        """Pop the next item to run (None when nothing is parked)."""
        for priority in PRIORITIES:
            lanes = self.pending[priority]
            names = sorted(t for t, q in lanes.items() if q)
            if not names:
                continue
            # The next tenant with work, cyclically past the one served
            # last (bisect keeps this deterministic even when that
            # tenant has drained away).
            index = bisect.bisect_right(names, self._cursor.get(priority, ""))
            tenant = names[index % len(names)]
            item = lanes[tenant].popleft()
            if not lanes[tenant]:
                del lanes[tenant]
            self._cursor[priority] = tenant
            return item
        return None


class ContextLane:
    """One serial execution lane: a single worker thread shared by
    every context assigned here."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"advisor-lane-{index}"
        )
        #: serializes the *request* path per lane in asyncio-land (FIFO
        #: waiters), so an admission slot frees exactly when the lane
        #: picks a request up; jobs serialize through the single-thread
        #: executor itself.
        self.request_lock = asyncio.Lock()
        #: context names assigned to this lane (registration order).
        self.contexts: list[str] = []
        #: requests + jobs executed on this lane.
        self.executed = 0
        #: pick-up wait: from :meth:`run` handing a call to the executor
        #: to the lane thread starting it.  Written by the lane thread
        #: only.
        self.pickups = 0
        self.pickup_ms_total = 0.0
        self.pickup_ms_max = 0.0

    def run(self, fn, *args) -> asyncio.Future:
        """``fn(*args)`` on the lane thread, awaitable from the loop
        (``run_in_executor`` with the pick-up wait recorded)."""
        return asyncio.get_running_loop().run_in_executor(
            self.executor, self._picked_up, time.perf_counter(), fn, args
        )

    def _picked_up(self, submitted: float, fn, args: tuple):
        wait_ms = 1000 * (time.perf_counter() - submitted)
        self.pickups += 1
        self.pickup_ms_total += wait_ms
        self.pickup_ms_max = max(self.pickup_ms_max, wait_ms)
        return fn(*args)

    def stats(self) -> dict:
        return {
            "index": self.index,
            "contexts": list(self.contexts),
            "executed": self.executed,
            "pickup_wait": {
                "count": self.pickups,
                "total_ms": self.pickup_ms_total,
                "max_ms": self.pickup_ms_max,
            },
        }


class ContextScheduler:
    """Assigns contexts to lanes.

    Args:
        max_lanes: lane cap; contexts beyond it share lanes.
    """

    def __init__(self, max_lanes: int = 4) -> None:
        if max_lanes < 1:
            raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
        self.max_lanes = max_lanes
        self._lanes: list[ContextLane] = []
        self._assignment: dict[str, ContextLane] = {}

    # ------------------------------------------------------------------
    @property
    def lanes(self) -> list[ContextLane]:
        return list(self._lanes)

    def lane_for(self, context_name: str) -> ContextLane:
        """The lane a context executes on (created/assigned lazily,
        stable for the context's lifetime)."""
        # `scheduler.lane` faults (delay = a hung lane lookup, error =
        # a lane that cannot be built) land before any assignment
        # mutates, so an injected failure leaves the scheduler clean.
        fire("scheduler.lane", context=context_name)
        lane = self._assignment.get(context_name)
        if lane is not None:
            return lane
        if len(self._lanes) < self.max_lanes:
            lane = ContextLane(len(self._lanes))
            self._lanes.append(lane)
        else:
            # Stable least-loaded assignment: fewest contexts wins,
            # lowest index breaks ties — registration order decides,
            # nothing run-time dependent.
            lane = min(self._lanes, key=lambda ln: (len(ln.contexts),
                                                    ln.index))
        lane.contexts.append(context_name)
        self._assignment[context_name] = lane
        return lane

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Shut every lane down: waits for in-flight lane work (no run is
        abandoned halfway through shared cache state)."""
        for lane in self._lanes:
            lane.executor.shutdown(wait=wait)

    def stats(self) -> dict:
        return {
            "max_lanes": self.max_lanes,
            "lanes": [lane.stats() for lane in self._lanes],
            "contexts_assigned": len(self._assignment),
        }
