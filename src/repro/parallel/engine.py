"""ParallelEngine: one ordered ``map`` of whole advisor runs over a pool
of forked workers, with a sequential fallback.

The only unit ever shipped to a worker is an entire advisor run (a
sweep's ``(seed, budget)`` unit); finer grains were measured and lose
to the in-process loop (see README, "Parallelism").

* **Determinism.**  ``map`` preserves input order and each task is a
  pure function of the forked parent state plus its item, so the pool
  returns exactly what the in-process loop would.
* **Fork inheritance.**  The pool uses the ``fork`` start method and
  lives for one ``map``: workers inherit the task function and its
  context (database, statistics, cache snapshots) through fork memory,
  only items and results are pickled, and the pool is torn down before
  ``map`` returns or raises — no worker process outlives the call.
* **Fallback.**  ``workers <= 1``, no ``fork``, one effective CPU, or
  fewer than two items run the loop in the calling process; so does a
  pool whose worker died mid-map (the units are pure, so they are
  simply run again).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: ``(fn, context)`` of the map this worker process was forked for —
#: set by the pool initializer in the child only.  Under ``fork`` the
#: initializer's arguments are inherited, not pickled, so concurrent
#: maps on different threads cannot see each other's context.
_TASK = None


def _adopt(fn, context) -> None:
    global _TASK
    _TASK = (fn, context)


def _invoke(item):
    fn, context = _TASK
    return fn(context, item)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def effective_cpu_count() -> int:
    """CPUs this process may actually run on.

    Prefers the scheduling-aware counts (``os.process_cpu_count`` on
    3.13+, CPU affinity elsewhere) over ``os.cpu_count``: in a
    cgroup-pinned container the box may advertise 64 CPUs while the
    advisor is confined to one, and forked workers there time-slice one
    core — pickle and context-switch overhead with zero concurrency.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        n = counter()
    elif hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platform without affinity introspection
        n = os.cpu_count()
    return max(1, n or 1)


class ParallelEngine:
    """Shards one list of run-sized tasks over forked workers, in order.

    Args:
        workers: runs in flight at once; 0 = one per CPU this process
            may run on; 1 = always sequential.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = effective_cpu_count() if workers == 0 else workers
        self.parallel_maps = 0
        self.sequential_maps = 0
        self.tasks_dispatched = 0

    @property
    def parallel(self) -> bool:
        """Whether this engine can fork at all on this host."""
        return (
            self.workers > 1
            and fork_available()
            and effective_cpu_count() > 1
        )

    def pool_size(self, count: int) -> int:
        """Processes a ``map`` over ``count`` items runs them on: 1 is
        the calling process (no fork)."""
        if not self.parallel or count < 2:
            return 1
        return min(self.workers, count)

    def map(
        self,
        fn: Callable[[object, T], R],
        items: Iterable[T],
        context,
    ) -> list[R]:
        """``[fn(context, item) for item in items]``, in input order,
        on a pool forked for this call when :meth:`pool_size` > 1.

        A task exception propagates after the pool is torn down with
        its queued work cancelled.
        """
        items = list(items)
        size = self.pool_size(len(items))
        if size == 1:
            self.sequential_maps += 1
            return [fn(context, item) for item in items]
        pool = ProcessPoolExecutor(
            max_workers=size,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt,
            initargs=(fn, context),
        )
        try:
            results = list(pool.map(_invoke, items, chunksize=1))
        except BrokenProcessPool:
            # A worker died (e.g. OOM-killed): run the units here.
            self.sequential_maps += 1
            return [fn(context, item) for item in items]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        self.parallel_maps += 1
        self.tasks_dispatched += len(items)
        return results

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "fork_available": fork_available(),
            "effective_cpus": effective_cpu_count(),
            "degraded_sequential": self.workers > 1 and not self.parallel,
            "parallel_maps": self.parallel_maps,
            "sequential_maps": self.sequential_maps,
            "tasks_dispatched": self.tasks_dispatched,
        }
