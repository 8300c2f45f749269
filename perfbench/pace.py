"""The machine's pace: how long a fixed loop of library-like work takes, probed all through a run.

On a shared machine the speed of a core changes while a run goes on: on
the 2-core VM the benchmark was written on, the loop below took about
3.5 ms in one state and about 6.3 ms in another, switching every few
seconds and drifting over minutes.  Every op slows with it, so raw
timings of the same code spread by more than the benchmark's bounds
between runs.  A run therefore times the loop every PROBE_EVERY_S
seconds between ops, and reports each op's time scaled to the pace
REF_MS: its raw time times REF_MS over the median loop time of the
probes within WINDOW_S of the op (at least the last one before it and
the first one after it).  A change to the program moves the scaled times
as it moves the raw ones, because the loop does not call the program.
The raw figures are kept in the run's details.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REF_MS = 3.5  # the loop's time in the faster state of that VM (2.1 GHz Xeon, Python 3.11)
PROBE_EVERY_S = 0.1
WINDOW_S = 0.1


def loop_ms() -> float:
    """Wall time of a fixed loop of the kind of work the library does: Fractions, dicts, small tuples."""
    t0 = time.perf_counter()
    totals: dict = {}
    for i in range(1, 700):
        key = (i % 13, i % 7)
        totals[key] = totals.get(key, 0) + Fraction(i, 7) + Fraction(3, i)
        tuple(sorted((i % 5, i % 3, i % 11)))
    return (time.perf_counter() - t0) * 1e3


class Pace:
    def __init__(self) -> None:
        self.at: list[float] = []
        self.ms: list[float] = []

    def probe(self) -> float:
        """Time the loop once; return the seconds the probe took."""
        t0 = time.perf_counter()
        ms = loop_ms()
        self.at.append(t0)
        self.ms.append(ms)
        return time.perf_counter() - t0

    def probe_if_due(self) -> float:
        if self.at and time.perf_counter() - self.at[-1] < PROBE_EVERY_S:
            return 0.0
        return self.probe()

    def scale(self, t0: float, t1: float) -> float:
        """REF_MS over the median loop time of the probes near [t0, t1], at least the nearest on each side."""
        lo = min(bisect_left(self.at, t0 - WINDOW_S), max(bisect_left(self.at, t0) - 1, 0))
        hi = max(bisect_right(self.at, t1 + WINDOW_S), min(bisect_right(self.at, t1) + 1, len(self.at)))
        return REF_MS / statistics.median(self.ms[lo:hi])
