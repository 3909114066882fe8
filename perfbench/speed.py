"""Machine-speed probe: report times in reference seconds.

On the 2-core shared host this benchmark was written on, the same fixed
pure-Python work ran up to 2.2x slower from one few-second stretch to the
next, with process time equal to wall time (the core was not taken away; it
ran slower).  Raw wall times of 15-second passes spread by 14-30% between
runs, far beyond any useful regression bound.

So while a phase runs, a SIGALRM handler runs a fixed exact-rational kernel
every ``INTERVAL_S`` and records how long it took.  A phase's time is then
reported in *reference seconds*: its raw seconds, minus the probe's own
time, scaled by the mean of ``REF_S / d`` over the probe durations ``d``
sampled during it, i.e. the time it would take on a machine where the
kernel takes exactly ``REF_S``.  Measured here over ten seeds, this brought
the spread of those passes down to 2.4-3.6%.  The kernel does the same kind
of work as the library (``Fraction`` additions, subtractions and gcds) but
never calls it, so no change to ndslab moves the probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

INTERVAL_S = 0.05
REF_S = 1e-3
# Phases shorter than this take their speed from the samples around them.
MIN_WINDOW_S = 0.2


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(1, i) - Fraction(1, i + 1)
    return s


class SpeedProbe:
    """Samples the kernel's duration from a timer signal while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous_handler = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()
        # a tick that lands inside a running sample appends out of order
        pairs = sorted(zip(self.starts, self.durations))
        self.starts = [s for s, _ in pairs]
        self.durations = [d for _, d in pairs]

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the perf_counter interval [t0, t1].

        Call it after the probe has stopped, so that the samples on both
        sides of the interval are known.
        """
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        raw = (t1 - t0) - sum(self.durations[lo:hi])
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        lo, hi = bisect_left(self.starts, t0 - pad), bisect_left(self.starts, t1 + pad)
        window = self.durations[lo:hi] or self.durations
        return raw * statistics.mean(REF_S / d for d in window)

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1e3
