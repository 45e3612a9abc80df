"""ParallelEngine: deterministic process-pool fan-out with a sequential
fallback.

The engine parallelizes the advisor's two hot loops — SampleCF index
builds and what-if costings — without changing their results:

* **Determinism.**  ``map`` preserves input order, and each task is a
  pure function of the forked parent state plus its payload, so the
  parallel path returns exactly the floats the sequential path would
  (same arithmetic, same operand order, per item).  Reductions stay in
  the parent and are shared with the sequential path.
* **Fork inheritance.**  Pools use the ``fork`` start method: workers
  inherit the parent's database, statistics, samples and caches at
  session start for free, so task payloads stay small (an IndexDef or a
  Configuration, never a table).  Sessions are opened *after* the state
  the tasks need exists — e.g. the advisor forks its enumeration pool
  only once all candidate sizes are estimated.
* **Fallback.**  ``workers<=1``, platforms without ``fork``, maps
  outside a session (or under a different session context), and broken
  pools all degrade to an in-process sequential loop with identical
  results.

* **Session reuse.**  Pools outlive their session (``keep_alive``): a
  later session with the same context object reuses the forked workers
  instead of paying another fork, unless the parent declared its state
  advanced (``mark_dirty``) — which is how one advisor run serves its
  per-query evaluation *and* every greedy step of every enumeration
  seed from a single pool when no new estimation state appeared in
  between.  ``shutdown()`` releases the dormant pool when a run ends.

Task functions must be module-level (picklable by reference) and take
``(context, item)``; the context travels through fork memory, not
pickling.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Per-engine context objects workers read, keyed by the owning
#: engine's id: populated in the parent immediately before that
#: engine's pool forks, inherited (the whole dict) by every worker.
#: Keyed — not a single global — because the tuning service runs one
#: engine per scheduler lane on concurrent threads: lane B asserting
#: its context between lane A's assertion and A's lazy worker fork
#: must not hand A's workers B's context.  Distinct keys make the
#: concurrent writes independent (each engine only ever writes its
#: own slot), and object ids stay valid across fork.
_FORK_CONTEXTS: dict[int, object] = {}


def _invoke(payload):
    key, fn, item = payload
    return fn(_FORK_CONTEXTS.get(key), item)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def effective_cpu_count() -> int:
    """CPUs this process may actually run on.

    Prefers the scheduling-aware counts (``os.process_cpu_count`` on
    3.13+, CPU affinity elsewhere) over ``os.cpu_count``: in a
    cgroup-pinned container the box may advertise 64 CPUs while the
    advisor is confined to one, and forking workers there only adds
    pickle and context-switch overhead to a serialized execution.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        n = counter()
    elif hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platform without affinity introspection
        n = os.cpu_count()
    return max(1, n or 1)


def default_workers() -> int:
    """Workers for ``--workers 0`` (auto): one per CPU this process may
    run on — the same count :attr:`ParallelEngine.parallel` decides
    from, so a pinned process never forks more workers than CPUs."""
    return effective_cpu_count()


#: Tasks each worker should get, at minimum, for a fan-out to beat the
#: sequential loop.  Fork-inherited pools still pay per-task pickling
#: of payloads and results plus executor queue round-trips; calibrated
#: on the Sales advisor batches, a map below ``workers * 4`` tasks
#: loses to the parent running the loop itself.
MIN_TASKS_PER_WORKER = 4


class ParallelEngine:
    """Fans tasks over a pool of forked workers, in order.

    Args:
        workers: pool size; 0 = one per CPU; 1 = always sequential.
        min_batch: smallest batch worth paying fork/pickle overhead for;
            shorter batches run sequentially even inside a session.
        force_parallel: fan out whenever ``workers > 1`` even on a
            single effective CPU and for sub-threshold batches (the
            identity tests use this to exercise the pool everywhere);
            ``None`` reads the ``REPRO_FORCE_PARALLEL=1`` environment
            escape hatch.
    """

    def __init__(self, workers: int = 1, min_batch: int = 2,
                 keep_alive: bool = True,
                 force_parallel: bool | None = None) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = default_workers() if workers == 0 else workers
        self.min_batch = min_batch
        if force_parallel is None:
            force_parallel = os.environ.get("REPRO_FORCE_PARALLEL") == "1"
        self.force_parallel = force_parallel
        #: keep the worker pool alive between sessions so a later
        #: session with the same context reuses it instead of re-forking
        #: (False restores the fork-per-session behavior).
        self.keep_alive = keep_alive
        self._pool: ProcessPoolExecutor | None = None
        self._session_context = None
        #: context the dormant pool's workers were forked against.
        self._pool_context = None
        #: parent state advanced since the pool forked (mark_dirty);
        #: the next session re-forks unless it opts into staleness.
        self._dirty = False
        #: instrumentation: (parallel maps, sequential maps, tasks fanned)
        self.parallel_maps = 0
        self.sequential_maps = 0
        self.tasks_dispatched = 0
        self.pools_forked = 0
        self.pools_reused = 0

    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether this engine can ever fan out.

        ``workers > 1`` and a usable ``fork`` are necessary; beyond
        that the engine degrades to sequential when the process is
        effectively single-CPU — forked workers there time-slice one
        core and the fan-out *loses* to the in-process loop (pickle +
        scheduling overhead with zero concurrency).  ``force_parallel``
        overrides the degrade for tests and measurements.
        """
        if self.workers <= 1 or not fork_available():
            return False
        if self.force_parallel:
            return True
        return effective_cpu_count() > 1

    @property
    def in_session(self) -> bool:
        return self._session_context is not None

    @property
    def has_pool(self) -> bool:
        """Whether a dormant (or active) worker pool currently exists."""
        return self._pool is not None

    @property
    def pool_context(self):
        """The context object the current pool's workers were forked
        against (None without a pool) — what session-affinity layers
        check before counting on a warm reuse."""
        return self._pool_context

    # ------------------------------------------------------------------
    def mark_dirty(self) -> None:
        """Record that parent state the tasks depend on has advanced
        past what the dormant pool's workers inherited: the next
        session re-forks instead of reusing the pool (unless it opens
        with ``stale_ok=True``)."""
        self._dirty = True

    def shutdown(self) -> None:
        """Release the dormant worker pool (if any).  Owners call this
        when their run ends; the engine stays usable — a later session
        simply forks a fresh pool."""
        self._shutdown_pool()

    def _shutdown_pool(self) -> None:
        pool, self._pool = self._pool, None
        self._pool_context = None
        # Drop the fork slot too: ids of collected engines can be
        # reused, and a new engine must never inherit a stale context.
        _FORK_CONTEXTS.pop(id(self), None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    @contextmanager
    def session(self, context, stale_ok: bool = False):
        """Open a worker pool whose processes snapshot the parent *now*.

        Tasks mapped with this ``context`` run on the pool; any other
        context (e.g. a nested estimator batch inside an advisor
        session) falls back to sequential execution, because the inner
        context's state may postdate the fork.  Nested sessions and
        sequential engines are transparent no-ops.

        With ``keep_alive`` the pool survives session exit, and a later
        session with the *same context object* reuses it — its workers
        and their inherited state — instead of re-forking, unless
        :meth:`mark_dirty` was called in between.  ``stale_ok`` opts a
        session into reuse even past a dirty mark, for tasks that are
        pure functions of fork-invariant state (e.g. SampleCF builds,
        which depend only on deterministic samples) — the tuning
        service's warm lanes extend this to whole reruns whose wiring
        signature matches the pool's.
        """
        if not self.parallel or self.in_session:
            yield self
            return
        if self._pool is not None and (
            self._pool_context is not context
            or (self._dirty and not stale_ok)
        ):
            self._shutdown_pool()
        if self._pool is None:
            _FORK_CONTEXTS[id(self)] = context
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
            )
            self._pool_context = context
            self._dirty = False
            self.pools_forked += 1
        else:
            self.pools_reused += 1
        self._session_context = context
        try:
            yield self
        finally:
            self._session_context = None
            if not self.keep_alive:
                self._shutdown_pool()

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[object, T], R],
        items: Iterable[T],
        context,
    ) -> list[R]:
        """``[fn(context, item) for item in items]``, possibly fanned
        out, always in input order.

        Runs on the pool only when a session is active for this exact
        ``context``; otherwise sequentially in the parent.  A pool that
        dies mid-map (e.g. a worker OOM-killed) is retried sequentially.
        """
        items = list(items)
        # Below the calibrated floor the per-task pickle/queue overhead
        # outweighs the fan-out even with real concurrency; forced
        # engines keep the raw min_batch so identity tests can exercise
        # tiny parallel maps.
        floor = self.min_batch
        if not self.force_parallel:
            floor = max(floor, self.workers * MIN_TASKS_PER_WORKER)
        if (
            self._pool is None
            or context is not self._session_context
            or len(items) < floor
        ):
            self.sequential_maps += 1
            return [fn(context, item) for item in items]
        # Re-assert this engine's slot on every parallel map: the pool
        # forks workers lazily as submissions arrive, so any worker
        # forked during this map must inherit this session's context.
        # Each engine writes only its own id-keyed slot, so engines on
        # concurrent scheduler lanes cannot clobber each other.
        _FORK_CONTEXTS[id(self)] = context
        payloads = [(id(self), fn, item) for item in items]
        chunksize = max(1, len(items) // (self.workers * 4))
        try:
            results = list(self._pool.map(_invoke, payloads, chunksize=chunksize))
        except BrokenProcessPool:
            self._recover_pool()
            self.sequential_maps += 1
            return [fn(context, item) for item in items]
        except Exception:
            # A worker task raised.  Propagating alone would leak the
            # pool's queued work: the executor keeps chewing the
            # remaining payloads (and a broken one keeps failing every
            # later map) until the session closes.  Tear the pool down,
            # cancelling what hasn't started, and start a fresh one so
            # the session stays usable for callers that catch the error.
            self._recover_pool()
            raise
        self.parallel_maps += 1
        self.tasks_dispatched += len(items)
        return results

    def _recover_pool(self) -> None:
        """Shut down the session's pool (cancelling queued tasks) and
        replace it with a fresh fork of the same session context."""
        self._shutdown_pool()
        if self._session_context is None:
            return
        _FORK_CONTEXTS[id(self)] = self._session_context
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
        )
        self._pool_context = self._session_context
        self.pools_forked += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "fork_available": fork_available(),
            "effective_cpus": effective_cpu_count(),
            "force_parallel": self.force_parallel,
            "degraded_sequential": self.workers > 1 and not self.parallel,
            "parallel_maps": self.parallel_maps,
            "sequential_maps": self.sequential_maps,
            "tasks_dispatched": self.tasks_dispatched,
            "pools_forked": self.pools_forked,
            "pools_reused": self.pools_reused,
        }


class DirtyRelay:
    """Engine stand-in for estimators whose advisor run shares a warm,
    service-owned pool: forwards :meth:`mark_dirty` to the real engine
    (so the within-run re-fork discipline stays intact) but reports
    ``parallel=False``, so estimator-context sessions can never open —
    an estimator session would swap the pool's fork context and churn
    the warm pool the service is trying to keep across requests.
    """

    parallel = False
    in_session = False

    def __init__(self, engine: ParallelEngine) -> None:
        self.engine = engine

    def mark_dirty(self) -> None:
        self.engine.mark_dirty()

    def shutdown(self) -> None:  # estimators never own the real pool
        return None
