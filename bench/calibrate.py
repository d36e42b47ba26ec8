"""Calibration kernel: a fixed pure-Python workload that tracks machine speed.

The sandbox this benchmark was built on changes speed by up to 2x over
seconds to minutes (shared cores and frequency scaling), far more than the
changes the benchmark must detect.  The same slowdown hits this kernel, so
the ratio of a request's time to the kernel's time around it is steady.
``run.py`` scales every request time by ``REF_S / kernel time`` and so
reports times at a fixed reference speed; the raw times are printed too.

The kernel mixes what the program does most: ``Fraction`` arithmetic,
tuple keys, dictionary updates, sorting and ``math`` calls.  It does not
import graded_darboux, so no change to the program can change it.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# the kernel's median time on the machine the first baseline was measured on
REF_S = 0.018
REPEATS = 3


def kernel() -> int:
    acc = {}
    f = Fraction(1, 3)
    x = 0.5
    for i in range(1, 1200):
        key = (i % 17, i % 5, (i * 7) % 11)
        f = f * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
        f = Fraction(f.numerator % 10007, f.denominator % 10007 + 1)
        acc[key] = acc.get(key, 0) + f.numerator
        x = math.sin(x + i) * math.exp(-abs(x))
        if i % 100 == 0:
            sorted(acc.items())
    return len(acc) + int(x > 2)


def measure() -> float:
    """Median seconds of REPEATS kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
