"""Machine-speed calibration: a fixed reference loop timed beside the operations.

The benchmark's VM shares its host, and the host's load changes the speed of
the same code by 1.5-1.9x for seconds to minutes at a time; a 25 s run cannot
average that out.  So the worker times this reference loop in its own
process every ``EVERY_S`` seconds, from a timer signal that also lands inside
long operations, and divides each operation's time, less the samples taken
inside it, by the loop's slowdown around it.  Reported times are
reference seconds: the time an operation takes while the reference loop
takes ``REFERENCE_S``.  The loop uses no delaywave code, so a change to the
program moves reference seconds as it moves seconds.

The loop mixes the kinds of work the workloads do, each about 0.5 ms: an
interpreted loop of float and complex arithmetic, small ``np.roots`` calls,
a stencil update on a 1000-point grid, a dense 48x48 eigen-solve and
complex exponentials of a 2000-point vector.  Its inputs are fixed.
"""

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 2.5e-3     # one sample of the loop on the reference machine state
EVERY_S = 0.04           # time between two samples
HALF_WINDOW_S = 0.1      # samples this close to an operation set its slowdown

_rng = np.random.default_rng(0)
_POLY = _rng.standard_normal(13)
_GRID = _rng.standard_normal(1000)
_FORCE = _rng.standard_normal(1000)
_MATRIX = _rng.standard_normal((48, 48))
_POINTS = 0.1 + 1j * _rng.standard_normal(2000)


def _interpreted():
    s, z, d = 0.0, 0j, {}
    for i in range(1500):
        s += i * 0.5
        z = z * 0.99 + 1j * s * 1e-9
        d[i & 63] = s


def _roots():
    for _ in range(6):
        np.roots(_POLY)


def _stencil():
    a = _GRID.copy()
    for _ in range(60):
        a = 0.5 * (a + _FORCE)
        a[1:-1] += 0.1 * (a[2:] - a[:-2])
        float(np.dot(a, a))


def _eigen():
    np.linalg.eigvals(_MATRIX)


def _exponentials():
    for _ in range(4):
        np.exp(0.3 * _POINTS).sum()
        np.abs(np.exp(-_POINTS)).max()


_KERNELS = (_interpreted, _roots, _stencil, _eigen, _exponentials)


class Calibrator:
    """Samples of the reference loop, by the time they were taken."""

    def __init__(self):
        self.starts, self.ends = [], []  # perf_counter seconds
        self.cpu = []                    # CPU seconds of each sample
        self.sample()                    # the first call of each kernel loads code paths
        self.starts.clear()
        self.ends.clear()
        self.cpu.clear()

    def sample(self):
        clock = time.perf_counter
        c0 = time.process_time()
        t0 = clock()
        for kernel in _KERNELS:
            kernel()
        t1 = clock()
        self.cpu.append(time.process_time() - c0)
        self.starts.append(t0)
        self.ends.append(t1)

    def maybe_sample(self):
        if not self.ends or time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every EVERY_S seconds from a timer signal."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, t0, t1):
        """Wall and CPU seconds of the samples taken within [t0, t1]."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        wall = sum(min(t1, self.ends[i]) - max(t0, self.starts[i]) for i in range(lo, hi))
        return wall, sum(self.cpu[lo:hi])

    def slowdown(self, t0, t1):
        """Median slowdown of the samples within HALF_WINDOW_S of [t0, t1].

        Falls back to the nearest sample on each side when none is that close.
        """
        lo = bisect.bisect_left(self.starts, t0 - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + HALF_WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), hi + 1
        return statistics.median((self.ends[i] - self.starts[i]) / REFERENCE_S
                                 for i in range(lo, min(hi, len(self.starts))))

    def settle(self, count=8):
        """Slowdown now: the median of ``count`` back-to-back samples."""
        start = len(self.starts)
        for _ in range(count):
            self.sample()
        return statistics.median((e - s) / REFERENCE_S
                                 for s, e in zip(self.starts[start:], self.ends[start:]))
