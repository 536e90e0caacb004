"""The box's current speed, measured with a fixed pure-Python kernel.

On the shared 2-vCPU Xeon VM (Python 3.11.7) that defined the benchmark,
the interpreter's speed swings by 40% or more, in periods from a second to
minutes, so raw op times from runs a few minutes apart spread by more than
any useful bound.  The kernel below does the same kind of work as the
workloads (exact Fraction elimination, int gcd, dict updates) and is never
edited with quiverhom, so timing it between ops gives the speed of the
moment.  An op's time is scaled by NOMINAL_S / (kernel time around the op):
it reads as the time on that VM at its nominal speed.  There, the time of a
pass of ext-qq ops over the kernel time held within about 2% while raw
times moved by 70%.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

NOMINAL_S = 0.0085  # kernel time on that VM in its fast periods
INTERVAL_S = 0.25  # the longest gap between two samples while timing ops


def kernel() -> int:
    n = 14
    rows = [
        [Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i * j) % 4) for j in range(n)]
        for i in range(n)
    ]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                q = rows[i][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    acc: dict[int, int] = {}
    for i in range(3000):
        acc[i % 97] = acc.get(i % 97, 0) + gcd(i, 360)
    return r + len(acc)


class Speed:
    """Kernel samples over time: (perf_counter at the sample, kernel seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> float:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append((time.perf_counter(), best))
        return best

    def due(self) -> None:
        """Sample if the last sample is older than INTERVAL_S."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] > INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time of the samples just before
        start and just after end; the last sample must follow end."""
        before = [s for t, s in self.samples if t <= start][-1:]
        after = [s for t, s in self.samples if t >= end][:1]
        around = before + after
        return NOMINAL_S * len(around) / sum(around)
