"""A fixed piece of pure-Python work that gauges how fast the machine runs now.

The benchmark times it between records and converts its wall times to a
nominal machine speed, the one at which the task takes NOMINAL_S.  On a
machine shared with other tenants the speed drifts by tens of percent within
minutes (the same 30 s enumerate run measured 3.8 and 5.6 records/s ten
minutes apart on a 2-vCPU VM), and no run length averages that out.  The task
imitates fourfold's own mix: fraction-free integer elimination, Fraction
elimination, a nested lattice sweep building tuples, and JSON text.  Nothing
here calls fourfold, so a change to the program cannot change the gauge.
"""

from __future__ import annotations

import json
from fractions import Fraction
from statistics import fmean
from time import perf_counter

NOMINAL_S = 0.014  # the task's time at the nominal speed
EVERY_S = 0.25  # the gauge runs the task when this long has passed since it last did

_ROWS = [[(7 * i + 3 * j * j) % 13 - 6 + (20 if i == j else 0) for j in range(40)] for i in range(40)]
_SYM = [[Fraction((i + 1) * (j + 1) % 7 + (9 if i == j else 0)) for j in range(16)] for i in range(16)]


def task() -> int:
    """About 14 ms of interpreter work on a 2.1 GHz Xeon vCPU; returns a checksum."""
    a = [row[:] for row in _ROWS]
    prev = 1
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    s = [row[:] for row in _SYM]
    for k in range(len(s)):
        for i in range(k + 1, len(s)):
            f = s[i][k] / s[k][k]
            for j in range(k, len(s)):
                s[i][j] -= f * s[k][j]
    hits = []
    for x in range(-31, 32, 2):
        for y in range(-31, 32, 2):
            for z in range(-31, 32, 2):
                if x * x - y * y - z * z == 1:
                    hits.append((x, y, z))
    text = json.dumps([{"coefficients": list(h), "square": 1} for h in hits * 60], indent=2)
    return len(text) + s[-1][-1].numerator % 7 + a[-1][-1] % 7


class Gauge:
    """Timings of the task over a run, to convert its wall times to nominal speed."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self) -> None:
        """Time the task if EVERY_S has passed since it last ran."""
        if perf_counter() < self._next:
            return
        start = perf_counter()
        task()
        end = perf_counter()
        self.samples.append(end - start)
        self._next = end + EVERY_S

    def scale(self) -> float:
        """Multiply a wall time of this run by this to get nominal seconds."""
        return NOMINAL_S / fmean(self.samples)
