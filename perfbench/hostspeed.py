"""Host-speed sampling: a fixed kernel timed at short intervals during work.

On a shared virtual machine the speed of the host drifts by a third over
minutes, and changes from one moment to the next as neighbours come and
go.  Every timing of polydist drifts with it.  So while the benchmark
measures, a ``Sampler`` interrupts the work every ``INTERVAL_S`` seconds
and times a small fixed pure-Python kernel of its own (dict and tuple
hashing, small ``Fraction`` products: the operations polydist spends its
time on).  A stretch of work divided by the mean kernel time sampled
during it, times ``REF_S``, is the stretch's time in seconds on a host
where the kernel takes ``REF_S``.

A change to polydist moves these times in full; a change of host speed
moves the kernel and the work alike and cancels.  The kernel calls no
polydist code, so no change to polydist can move it.  The kernel's own
time is subtracted from the work it interrupted.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05  # wall seconds between two samples
KERNEL_STEPS = 350
REF_S = 0.001      # seconds the kernel is taken to need at reference speed


def kernel(steps=KERNEL_STEPS):
    counts = {}
    third = Fraction(1, 3)
    total = 0
    for i in range(1, steps):
        key = (i % 61, i % 37)
        counts[key] = counts.get(key, 0) + i
        total += (Fraction(i % 11, i % 13 + 1) * third).denominator
    return len(counts), total


class Sampler:
    """Times ``kernel`` from a ``SIGALRM`` handler every ``INTERVAL_S``
    seconds while entered.  ``walls`` and ``cpus`` hold the samples."""

    def __init__(self):
        self.walls, self.cpus = [], []
        self._previous = None

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()  # a collection would scan polydist's heap, not time the host
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.walls.append(time.perf_counter() - w0)
        self.cpus.append(time.process_time() - c0)
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        """A position in the samples, for ``since``."""
        return len(self.walls)

    def since(self, mark):
        """The wall and CPU samples taken after ``mark``."""
        return self.walls[mark:], self.cpus[mark:]


def scaled(seconds, samples):
    """``seconds`` of work during which the kernel took ``samples``, in
    seconds at reference speed.  The mean, not the median, because the
    work bears every stall in full, the rare long ones too."""
    return seconds * REF_S * len(samples) / sum(samples)
