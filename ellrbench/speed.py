"""Reference-speed correction of wall times on a shared host.

On a host shared with other tenants the same pass of the same code runs at
very different speeds from one spell to the next: on the two-vCPU machine
the benchmark was built on, ``identities_grid`` passes took 1.3-2.7 s
within a minute, with process CPU time equal to wall time and no steal
time, so the CPU itself ran slower.  A median over a run cannot remove
spells that last as long as the run.

So every measured interval is corrected by the speed the CPU had while it
ran.  A ``SpeedSampler`` runs a fixed reference kernel (``reference``: a
Python loop and a chain of small numpy products, the two kinds of work
``ellr`` does) from a ``SIGALRM`` handler every ``SAMPLE_EVERY_S`` seconds
and records how long it took.  An interval measured from ``t0`` to ``t1``
is rescaled by ``REF_NOMINAL_S`` over the median reference time sampled
from ``t0 - WINDOW_S`` to ``t1 + WINDOW_S``: the result is the wall time
the interval would have taken with the reference kernel at its nominal
speed.  Intervals are read on ``SpeedSampler.clock``, which stands still
while the handler runs, so the sampler's own time is in none of them.

A signal handler runs between bytecodes, so during one long C call (a large
SVD) the sample waits until the call returns and lands just after it; the
window around each interval still catches it.
"""

from __future__ import annotations

import array
import bisect
import signal
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.5
CAPACITY = 8192  # samples kept: 400 s at SAMPLE_EVERY_S, more than any run
# The reference kernel's typical time on the machine the benchmark was
# built on, so corrected times read close to that machine's wall times.
REF_NOMINAL_S = 4.0e-4

_A = np.random.default_rng(0).standard_normal((24, 24)) / 5


def reference() -> float:
    """Seconds one run of the fixed reference kernel takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    b = _A
    for _ in range(20):
        b = np.tanh(b @ _A)
    return time.perf_counter() - t0


def scale_of(refs) -> float:
    """Correction factor for an interval the reference times ``refs`` were
    sampled around."""
    return REF_NOMINAL_S / statistics.median(refs)


class SpeedSampler:
    """Samples the reference kernel on a timer while started.  Samples go
    into arrays allocated up front, so the handler leaves no Python objects
    behind among the workload's own (which would change its peak memory)."""

    def __init__(self):
        self._times = array.array("d", bytes(8 * CAPACITY))  # clock() at each sample
        self._refs = array.array("d", bytes(8 * CAPACITY))  # reference seconds
        self._count = 0
        self._paused = 0.0

    @property
    def refs(self) -> list:
        """The reference times sampled so far, in seconds."""
        return self._refs[:self._count].tolist()

    def clock(self) -> float:
        """perf_counter() minus the time spent in the sampler."""
        return time.perf_counter() - self._paused

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        if self._count < CAPACITY:
            self._refs[self._count] = reference()
            self._times[self._count] = t0 - self._paused
            self._count += 1
        self._paused += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def corrected(self, t0, t1) -> float:
        """The interval [t0, t1] of ``clock`` at the reference speed."""
        times = self._times[:self._count]
        lo = bisect.bisect_left(times, t0 - WINDOW_S)
        hi = bisect.bisect_right(times, t1 + WINDOW_S)
        if lo == hi:  # no sample near: the next one, or else the last
            lo = min(lo, self._count - 1)
            hi = lo + 1
        return (t1 - t0) * scale_of(self._refs[lo:hi])
