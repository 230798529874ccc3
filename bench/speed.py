"""How fast the machine runs, sampled while the benchmark measures.

The shared machines this benchmark runs on change speed by up to a factor of
two within seconds, and process CPU time drifts with wall time, so raw op
times spread more between runs than any change worth detecting.  A short
fixed kernel of pure-Python ``Fraction`` arithmetic, the kind of work
singlab's kernels do, is timed every ``INTERVAL_S`` of wall time from a
``SIGALRM`` handler, also in the middle of long ops.  A time reported "at
reference speed" is what the op would have taken had every kernel sample
around it taken ``REFERENCE_S``.  The kernel touches no singlab code, so no
change to the program can move it, and the time spent in the handler is
taken out of the op that it interrupted.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.002
ITERATIONS = 400
INTERVAL_S = 0.1


def kernel_seconds() -> float:
    """Time of the fixed kernel, with the cyclic collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = Fraction(1, 3)
        for _ in range(ITERATIONS):
            x = x * Fraction(3, 7) + Fraction(1, 5)
            x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Kernel samples every ``INTERVAL_S`` while active (a context manager).

    ``handler_s`` is the total time spent sampling, for subtraction from
    the interval that a sample interrupted.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernels: list[float] = []
        self.handler_s = 0.0

    def _sample(self, *_):
        start = time.perf_counter()
        self.kernels.append(kernel_seconds())
        end = time.perf_counter()
        self.times.append(end)
        self.handler_s += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time across [start, end].

        Samples taken inside the interval count; an interval too short to
        hold one uses the nearest sample on each side.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        near = self.kernels[lo:hi] or self.kernels[max(lo - 1, 0):hi + 1]
        return REFERENCE_S / statistics.fmean(near)
