"""Pin the benchmark to the CPU that is currently least slowed by neighbours,
and measure how fast the host ran over the whole run.

On a shared host, other tenants slow one CPU at a time, for seconds at a
stretch, by up to about 1.8x, and the whole host for stretches of half a
minute or more.  Before a timed unit the picker runs a short fixed
calibration loop on each allowed CPU and pins this process, and so every
child it starts afterwards, to the fastest.  The loop is standard-library
code only, so it does not change when the package does.  The median of
the chosen CPUs' loop times over a run gives ``factor()``, which scales
the run's times to a fixed reference speed: a run that the host slows as a
whole reads the same as one it does not.  (A single 1 ms loop is too noisy
to correct one timed unit; the median over the run is not.)
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

# The calibration loop's median time on the 2-core x86-64 VM the benchmark
# was written on (Python 3.11): scaled times read as seconds on that VM.
REFERENCE_S = 1.8e-3


def _calibration() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 800):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class CpuPicker:
    """Callable; re-picks at most once per ``interval`` seconds."""

    def __init__(self, interval: float = 0.25):
        getter = getattr(os, "sched_getaffinity", None)
        self.cpus = sorted(getter(0)) if getter else []
        self.interval = interval
        self._last = None
        self.speeds = []  # calibration seconds of the CPU chosen at each pick

    def __call__(self) -> None:
        now = time.perf_counter()
        if self._last is not None and now - self._last < self.interval:
            return
        if len(self.cpus) < 2:
            self.speeds.append(_calibration())
        else:
            speeds = {}
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speeds[cpu] = _calibration()
            best = min(speeds, key=speeds.get)
            os.sched_setaffinity(0, {best})
            self.speeds.append(speeds[best])
        self._last = time.perf_counter()

    def factor(self) -> float:
        """Reference loop time over the run's median loop time."""
        return REFERENCE_S / statistics.median(self.speeds)


def no_pick() -> None:
    """Stand-in when no picker is wanted."""
