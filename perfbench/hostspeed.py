"""The speed of the host at the moment, from a fixed computation.

The benchmark runs on a shared host whose speed moves by a quarter or
more over minutes, and at times flips every second or so between a fast
and a slow state.  CPU time follows wall time, so the change is in the
speed of the cores, not in waiting.  A run of the benchmark therefore
times this kernel between its items, and reports every time scaled to a
host on which the kernel takes `REFERENCE_S`, by the kernel times taken
next to it.

The kernel does the same kinds of work as the library's hot paths
(exact rational arithmetic reduced by gcd, small tuples, Python-level
loops), but calls nothing of the library, so no change to the library
can change its time.  It imports nothing beyond the standard library, so
that it can run in a fresh interpreter before the set-up it brackets.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# the kernel's time on the host of the README's reference figures
REFERENCE_S = 0.0072
_EXPECTED = None


def kernel():
    acc = Fraction(0)
    for i in range(1, 241):
        acc += Fraction(i, 2 * i + 1) * Fraction(3 * i + 1, i + 7)
    g = 0
    pairs = []
    for i in range(1, 4201):
        a = (i * 7919) % 65521 + 1
        b = (i * 104729) % 65519 + 1
        g += math.gcd(a * b, a + b)
        pairs.append((a % 97, b % 89))
    pairs.sort()
    return acc, g, pairs[len(pairs) // 2]


def sample() -> float:
    """Seconds of one pass of the kernel; raises if its result changes."""
    global _EXPECTED
    t0 = time.perf_counter()
    out = kernel()
    elapsed = time.perf_counter() - t0
    if _EXPECTED is None:
        _EXPECTED = out
    elif out != _EXPECTED:
        raise RuntimeError("host-speed kernel changed its result")
    return elapsed


def typical(samples) -> float:
    """The mean kernel time of `samples`, leaving out passes that took
    over twice their median, which the scheduler interrupted.  A mean, not
    a median: the host may switch between a fast and a slow state every
    second or so, and an item pays the time-weighted mix of both."""
    cut = 2 * statistics.median(samples)
    return statistics.fmean(s for s in samples if s <= cut)


def at_reference(times, speed, window=5):
    """`times` scaled to the reference speed.  `times[i]` was measured
    between the kernel times `speed[i]` and `speed[i + 1]`, and is scaled
    by the typical kernel time within `window` of it, so that a drift of
    the host within a run is followed too."""
    if len(speed) != len(times) + 1:
        raise ValueError("need one kernel time before each time and one "
                         "after the last")
    return [t * REFERENCE_S
            / typical(speed[max(0, i + 1 - window):i + 1 + window])
            for i, t in enumerate(times)]
