"""Machine-speed calibration, so that timings taken on a shared host compare.

The speed of a shared host drifts by a third within minutes, as other
tenants load it, and a whole run drifts with it.  To take that out, a
fixed calibration kernel, independent of nilkaehler, is timed while the
workload runs, and a timing is scaled by ``REFERENCE_S`` over the mean
kernel time measured alongside it: seconds at a fixed machine speed.

The kernel mixes what the program does: small-Fraction arithmetic and dict
stores (constant Scalars), modular arithmetic on ~500-bit integers
(polynomial coefficients, sympy without gmpy2) and small numpy contractions
(the solver).  It runs with the garbage collector off, so that the size of
the program's heap does not change the kernel's time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Seconds of one kernel call on an idle 2-vCPU Xeon host (Python 3.11.7,
# numpy 2.4.6), so that scaled seconds read close to wall seconds there.
# Fixed: changing it rescales every recorded timing.
REFERENCE_S = 0.0016
SAMPLE_INTERVAL_S = 0.05

_TENSOR = np.arange(216.0).reshape(6, 6, 6) / 7.0
_MODULUS = 7**300


def kernel() -> None:
    """A fixed computation of about ``REFERENCE_S`` on an idle host."""
    total, store = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        store[i % 50] = total
    x = 3**300
    for i in range(200):
        x = (x * x + i) % _MODULUS
    for _ in range(20):
        np.einsum("ijk,jkl->il", _TENSOR, _TENSOR)


def kernel_seconds() -> float:
    """Wall seconds of one kernel call, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(samples: int) -> float:
    """Mean seconds of ``samples`` kernel calls, after one warm-up call."""
    kernel_seconds()
    return statistics.mean(kernel_seconds() for _ in range(samples))


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at the
    speed where it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Times the kernel every ``SAMPLE_INTERVAL_S`` of wall time, from a
    SIGALRM handler in the main thread, while the code under measurement
    runs.  ``spent`` is the wall time the samples took, to be subtracted
    from the measured span."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None
        kernel_seconds()  # warm-up, before the measured span starts

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self) -> float:
        """Mean kernel seconds over the samples; one more call if there were
        none."""
        return statistics.mean(self.samples) if self.samples else kernel_seconds()
