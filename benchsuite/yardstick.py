"""A fixed reference computation that measures how fast the machine runs now.

The speed of a shared machine drifts: on the 2-vCPU VM this benchmark was
built on, a fixed computation timed in 10-second windows took between 39
and 55 ms within 2.5 minutes, and every workload's pass times moved with
it.  Ten runs of unchanged code then spread by 15–25% between their
quartiles, as much as the widest regression bound allowed.

The benchmark therefore times this computation — interpreter loops, a
dict and numpy passes over 3 MB, the mix the simulator itself runs —
between the operations it measures, and reports each interval scaled to
:data:`REFERENCE_S`: the time it would take on a machine where the
computation takes ``REFERENCE_S``.  An interval is scaled by the mean of
the samples taken just before and just after it.  No package code runs
inside the computation, so a change to the package moves scaled times
exactly as it moves raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: the reference computation's time on the machine the baseline numbers
#: in README.md were recorded on (2-vCPU Intel Xeon VM, quiet period)
REFERENCE_S = 0.020
#: least seconds between samples taken with :meth:`Yardstick.sample_if_due`
EVERY_S = 0.5


class Yardstick:
    """Timed samples of the reference computation, taken during a run."""

    def __init__(self) -> None:
        #: ``(began, ended, median seconds)`` per sample, in time order
        self.samples: list[tuple[float, float, float]] = []
        self._data = np.random.default_rng(0).random(400_000)

    def _compute(self) -> int:
        total = 0
        for i in range(100_000):
            total += i * i
        table: dict[int, int] = {}
        for i in range(20_000):
            table[i % 977] = table.get(i % 977, 0) + i
        for _ in range(4):
            np.sort(self._data)
            total += int((self._data * 1.0001).sum())
        return total + len(table)

    def sample(self, calls: int = 1) -> float:
        """Time the computation ``calls`` times; record and return the median."""
        began = time.perf_counter()
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            self._compute()
            times.append(time.perf_counter() - start)
        self.samples.append((began, time.perf_counter(), statistics.median(times)))
        return self.samples[-1][2]

    def sample_if_due(self) -> None:
        """Sample when :data:`EVERY_S` seconds have passed since the last one."""
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= EVERY_S:
            self.sample()

    def median(self) -> float:
        return statistics.median(seconds for _, _, seconds in self.samples)

    def _factor(self, moment: float) -> float:
        """Scale factor at ``moment``: from the samples around it."""
        ends = [ended for _, ended, _ in self.samples]
        index = bisect.bisect_right(ends, moment)
        around = self.samples[max(index - 1, 0):index + 1]
        return REFERENCE_S / statistics.fmean(seconds for _, _, seconds in around)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the interval ``[start, end]``.

        Time spent sampling inside the interval is left out; the rest
        is split at the samples and each piece scaled by its neighbours.
        """
        total, cursor = 0.0, start
        for began, ended, _ in self.samples:
            if began >= end:
                break
            if ended <= cursor:
                continue
            total += max(began - cursor, 0.0) * self._factor(cursor)
            cursor = ended
        return total + max(end - cursor, 0.0) * self._factor(cursor)
