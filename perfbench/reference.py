"""Measuring how fast the machine runs while the benchmark runs.

On a shared host the same code runs at different speeds from one second
to the next: other tenants load the cache, the memory bus and the clock,
and a fixed loop slows down in CPU time as much as in wall time.  So while
the untraced rounds run, a timer signal interrupts the benchmark every
PERIOD_S and runs a fixed reference computation, a few milliseconds long,
in the benchmark's own thread.  Each round's times are then reported
scaled to the reference speed:

    scaled = measured * REFERENCE_S / (mean reference time during the round)

The reference uses only Python and numpy, never nilmag, so a change to
nilmag changes the scaled times and a change of the host's speed does
not.  Its three parts mirror the kinds of work nilmag does: a scalar
Python recurrence (``integrate``, the scalar closed forms), numpy calls on
arrays of 200 x 3 (``batch_step``, ``magnetic_grid`` at small n) and
element-wise numpy on a 1 MiB array (the large grids of the sweep).

Time spent in the reference is taken out of the measured times: the
workloads read ``clock()``, which stops while the reference runs.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# the reference's duration on the machine the benchmark was tuned on
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4) in a quiet period; it
# only sets the scale of the reported times
REFERENCE_S = 0.0042
PERIOD_S = 0.2
_MIN_SAMPLES = 3

_SMALL = np.linspace(0.0, 1.0, 600).reshape(200, 3)
_LARGE = np.linspace(0.0, 1.0, 1 << 17)


def reference() -> None:
    """The fixed reference computation."""
    x, v, h = 1.0, 0.0, 1e-3  # RK4 on a harmonic oscillator
    for _ in range(3000):
        k1x, k1v = v, -x
        k2x, k2v = v + 0.5 * h * k1v, -(x + 0.5 * h * k1x)
        k3x, k3v = v + 0.5 * h * k2v, -(x + 0.5 * h * k2x)
        k4x, k4v = v + h * k3v, -(x + h * k3x)
        x += h * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
    a = _SMALL
    for _ in range(200):
        a = a + 1e-3 * np.sin(a) * a[:, ::-1]
    np.cos(_LARGE) * _LARGE + 0.5


class SpeedSampler:
    """Runs `reference` from a SIGALRM handler every PERIOD_S while
    active, and keeps each run's start and duration."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._spent = 0.0  # total time inside the handler

    def clock(self) -> float:
        """perf_counter with the time spent in the reference taken out."""
        return time.perf_counter() - self._spent

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        d = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(d)
        self._spent += d

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def scale(self, t0: float = -np.inf, t1: float = np.inf) -> float:
        """REFERENCE_S over the mean reference time of the samples taken
        between perf_counter times t0 and t1 (by default, of all); if
        there are fewer than three, of the three taken nearest to that
        interval."""
        starts = np.asarray(self.starts)
        inside = (starts >= t0) & (starts <= t1)
        if inside.sum() < _MIN_SAMPLES:
            gap = np.maximum(t0 - starts, starts - t1)
            inside = np.argsort(gap)[:_MIN_SAMPLES]
        return REFERENCE_S / float(np.mean(np.asarray(self.durations)[inside]))
