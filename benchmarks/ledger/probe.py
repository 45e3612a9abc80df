"""Host-speed probe: what stands in for a quiet-host gate on a host
that is never quiet.

This host (a 2-vCPU microVM) runs CPU-bound code at one of a few speeds
up to 40 % apart.  The speed is drawn again whenever a vCPU wakes from
idle and otherwise changes every few seconds; a 25 s run can sit at one
speed and the next run at another, so repetition inside a run does not
average it out, and there is no "quietest probe" to compare with: the
fast speed may not occur in a run at all.  The slowdown is the same for
the probe and for the advisor's work (both are CPython bytecode) to
within a few percent.

So the probe measures the speed *while* an operation runs and the
operation's wall time is scaled by it:

* a sampler thread takes a reading — the fastest of ``SPINS`` fixed
  ~0.5 ms pure-Python spins — every ``PERIOD`` seconds, for as long as
  the workload runs (it holds the GIL for them, ~3 % of the time);
* an operation's wall is multiplied by ``REFERENCE_SPIN / mean(readings
  taken while it ran)``: reported seconds are seconds at the reference
  speed, whichever speeds the host went through.

It looks only at the readings, never at the measured value; operations
are never dropped, from the statistics or from the checks.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import NamedTuple

#: one reading: the fastest of ``SPINS`` spins of this many iterations.
#: The minimum drops what waking up costs the first spin when the
#: process was idle (the load generator of ``serve-mixed`` mostly is).
SPIN_ITERATIONS = 12_000
SPINS = 3
#: seconds between readings.
PERIOD = 0.05
#: a reading at the speed timings are reported at (this host's usual
#: fast speed).  A constant: it cancels in any comparison of two
#: commits on one host.
REFERENCE_SPIN = 0.00045
#: an operation with fewer readings of its own borrows its neighbours'.
MIN_READINGS = 2
NOISY_RATIO = 1.08


def spin() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class Sample(NamedTuple):
    kind: str
    #: wall seconds as measured.
    value: float
    #: reference-speed seconds per measured second while it ran.
    scale: float
    unit: int
    #: operations of the kind done back to back in one timing (a retune
    #: cycle); ``value`` is their mean.
    parts: int = 1

    @property
    def seconds(self) -> float:
        """Seconds at the reference speed."""
        return self.value * self.scale


class SpeedSampler:
    """Reads the host's speed in the background; scales intervals."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.readings: list[float] = []
        self.started = time.perf_counter()
        threading.Thread(target=self._run, daemon=True).start()

    def _run(self) -> None:
        while True:
            start = time.perf_counter()
            reading = min(spin() for _ in range(SPINS))
            self.times.append(start)
            self.readings.append(reading)
            time.sleep(PERIOD)

    def scale(self, start: float, end: float) -> float:
        """Reference-speed seconds per measured second over the
        interval, from the readings taken inside it (widened to the
        nearest ``MIN_READINGS`` when it holds fewer)."""
        n = len(self.readings)
        lo = bisect.bisect_left(self.times, start, 0, n)
        hi = bisect.bisect_right(self.times, end, 0, n)
        if hi - lo < MIN_READINGS:
            lo = max(0, lo - MIN_READINGS)
            hi = min(n, hi + MIN_READINGS)
            if hi == lo:
                return 1.0
        return REFERENCE_SPIN / statistics.fmean(self.readings[lo:hi])

    def starved(self) -> bool:
        """Whether the sampler got under half the readings it was due
        (it could not get the CPU or the GIL): scales are then rough."""
        due = (time.perf_counter() - self.started) / PERIOD
        return len(self.readings) < due / 2

    def noisy_share(self) -> float:
        """Share of readings more than ``NOISY_RATIO`` above the run's
        fastest: how far from quiet the host was."""
        if not self.readings:
            return 0.0
        limit = NOISY_RATIO * min(self.readings)
        return sum(r > limit for r in self.readings) / len(self.readings)


def summary(values: list[float]) -> dict:
    """Median, quartiles and count — printed beside every timing."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"p50": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}
