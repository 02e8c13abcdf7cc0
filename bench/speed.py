"""Machine-speed probe: the benchmark's times are normalised by it.

On a shared host the speed of fixed code moves by tens of percent within
seconds, and by a factor of two within an hour (on a shared 2-vCPU
virtual machine, in CPU time as much as in wall time).  A wall-clock time
measured over one run therefore says as much about the neighbours as
about the program.
``SpeedProbe`` runs a fixed kernel of a few milliseconds from a timer
signal every ``PERIOD`` seconds while the benchmark works, so the samples
are spread evenly over the measured interval.  The kernel is the
program's kind of work, written apart from the program so that it stays
the same when the program changes: Horner evaluation of a polynomial over
numpy arrays, driven from interpreted Python.  It runs in the program's
thread, so the program's own cache and allocation behaviour could leak
into the factor; ``README.md`` shows, with costs injected into the
program and with a competing process, that the normalised figures still
move by the injected share and hold still under contention.

``clock()`` is ``perf_counter`` net of the time spent in the probe, and
``factor(t0, t1, pad)`` is the mean slowdown relative to ``NOMINAL_S`` that
the probe saw from ``t0 - pad`` to ``t1 + pad``.  A time divided by its
factor is the time the work would take on a machine where the kernel
takes ``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.1
NOMINAL_S = 6.5e-3

_COEFFS = np.random.default_rng(1).standard_normal(60)
_GRID = np.linspace(0.0, 1.0, 2048)


def _horner(x):
    result = np.zeros_like(np.asarray(x, dtype=float))
    for c in _COEFFS[::-1]:
        result = result * x + c
    return result


def kernel() -> float:
    """Horner evaluation of a degree-59 polynomial on a 2048-point grid and
    at single points: numpy over small and mid-sized arrays, driven from
    interpreted Python, the kind of work the program does."""
    s = 0.0
    for _ in range(12):
        s += float(_horner(_GRID)[5])
    for k in range(150):
        s += float(_horner(0.5 + 1e-4 * k))
    return s


def kernel_seconds(runs: int) -> list[float]:
    """Wall seconds of each of ``runs`` back-to-back kernel runs."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock() at start, seconds)
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = self.clock()
        dt = kernel_seconds(1)[0]
        self.samples.append((start, dt))
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        spent = self.spent
        return time.perf_counter() - spent

    def factor(self, t0: float, t1: float, pad: float = 0.0) -> float:
        """Mean slowdown relative to NOMINAL_S of the samples taken between
        ``t0 - pad`` and ``t1 + pad`` on ``clock()``; of all samples if none."""
        starts = [start for start, _ in self.samples]
        lo = bisect.bisect_left(starts, t0 - pad)
        hi = bisect.bisect_right(starts, t1 + pad)
        window = [dt for _, dt in self.samples[lo:hi]] or [dt for _, dt in self.samples]
        return statistics.fmean(window) / NOMINAL_S if window else 1.0
