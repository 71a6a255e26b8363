"""Local machine-speed sensor for the benchmark's time metrics.

The vCPUs this benchmark was tuned on are shared with other tenants,
which slow them by up to 2x in stretches of a second to tens of seconds.
The process's CPU time slows exactly like wall time, so neither clock
alone makes two runs comparable.  The run therefore times a fixed snippet
of the benchmark's own pure-Python code (:func:`sample`) just before and
just after every op, and scales the op's latency by ``REFERENCE_S`` over
the mean of the two.  The scaled latency is what the op would take at the
speed at which the snippet takes ``REFERENCE_S``.  The snippet is the
benchmark's own code, so no change to effvec moves it.  Standard library
only: the set-up probe imports this before effvec.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

#: snippet time, in seconds, at the reference speed the scaled times refer to
REFERENCE_S = 1e-3


def _work():
    """Fraction arithmetic, float parsing, list and set building, like effvec."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 1)
    xs = [float(str(i * 0.37)) for i in range(400)]
    return acc, len({j for j in range(400) if xs[j] > 50.0})


def sample() -> float:
    """Seconds for two runs of the snippet, with the garbage collector off,
    so that the program's live objects cannot change it."""
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        _work()
        return perf_counter() - t0
    finally:
        gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between the samples `before` and `after`, at the
    reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
