"""Timings expressed against a fixed calibration loop.

On a shared host the speed of one core swings by a factor of 1.5 to 2
within seconds, as other tenants come and go; a wall-clock time taken
at one moment and one taken a minute later differ by more than most
changes worth measuring.  The swing slows this process's Python code as
a whole, so it largely cancels in the ratio of an op's time to the time
of a fixed piece of Python code run right before and right after it.

``measure`` runs the calibration loop twice on each side of a call and
returns the call's time divided by the mean of those four loop times,
times ``CALIBRATION_S``.  The result reads as seconds on a core where
the loop takes exactly ``CALIBRATION_S``; the loop is sized to take
about that long on an idle core of a 2-core Intel Xeon box with
Python 3.11.  The loop is the kind of work the library does: products
of sparse polynomials held as dicts keyed by exponent tuples, with
rational and integer coefficients.  It never changes, so ratios from
two versions of the library compare directly.
"""

from __future__ import annotations

import time
from fractions import Fraction

CALIBRATION_S = 1e-3

_A = {(i, j): Fraction(i - 2, j + 3) for i in range(4) for j in range(4)}
_B = {(i, j): (7 * i + j) % 5 + 1 for i in range(4) for j in range(5)}


def _loop() -> dict:
    acc = {}
    for (a, b), x in _A.items():
        for (c, d), y in _B.items():
            key = (a + c, b + d)
            acc[key] = acc.get(key, 0) + x * y
    return acc


def _loop_s() -> float:
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def measure(fn):
    """Call ``fn()`` once; return its result, its wall-clock seconds and
    its time in calibration units (seconds at ``CALIBRATION_S`` per loop)."""
    loops = [_loop_s(), _loop_s()]
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    loops += [_loop_s(), _loop_s()]
    return result, elapsed, elapsed * CALIBRATION_S * len(loops) / sum(loops)
