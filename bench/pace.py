"""Host speed, sampled while a pass runs, and times at a fixed host speed.

On a shared host one single-threaded pass runs 20-50% slower from one
moment to the next: the host slows the process down rather than takes the
CPU away from it, so neither longer runs nor CPU time steady the figures.
A ``Pacer`` interrupts the work it brackets every ``period`` seconds of
wall time and runs ``kernel()``, a fixed pure-Python mix of what the
package spends its time on (an integer loop, hashing frozensets,
``Fraction`` sums, big-int products), twice: once to bring its own data
back into the caches, then timed.  The timed run, about 0.5 ms on a
2.1 GHz Xeon, says how fast the host is at that moment, whatever the
interrupted work left in the caches.  A time measured under the pacer,
less the kernel's own time, scaled by ``NOMINAL_S`` over the mean sample,
is that time on a host that runs the kernel in ``NOMINAL_S``.
``Pacer.clock()`` is ``time.perf_counter()`` less the interrupts' time so
far, so an interval read from it leaves the kernel out.

The kernel does not use the package, so a change to the package moves a
paced time as it would move the wall time on a steady host, up to the
pacing's own noise of a few percent a pass.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PASS_PERIOD_S = 0.025  # a pass: the kernel takes about 4% of its wall time
SETUP_PERIOD_S = 0.004  # a set-up of 30-70 ms: 8-18 samples
NOMINAL_S = 0.0005  # the kernel's time on the host that paced times refer to

_BIG = (1 << 1500) // 3


def kernel():
    s = 0
    for i in range(2000):
        s += (i * i) % 7
    table = {}
    for i in range(400):
        table[frozenset((i % 97, i % 89, i % 83))] = i
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(1, i)
    for i in range(60):
        s += _BIG * (_BIG + i)
    return s, len(table), f


class Pacer:
    """Samples the host's speed while the ``with`` block runs.

    ``samples`` holds the timed kernel runs.  One is also taken on entry
    and one on exit, so a block shorter than ``period`` still has two;
    time them with ``clock()`` inside the block.  With ``period`` None it
    does nothing, ``clock()`` is ``time.perf_counter()`` and ``factor()``
    is 1.
    """

    def __init__(self, period):
        self.period = period
        self.samples = []
        self.stolen = 0.0  # wall time the interrupts took
        self._ticking = False
        self._previous = None

    def clock(self):
        """``time.perf_counter()`` less the time the interrupts took so far."""
        return time.perf_counter() - self.stolen

    def _sample(self):
        # the interrupted work's garbage is collected in its own time, not here
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()
            t = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t)
        finally:
            if collecting:
                gc.enable()

    def _tick(self, signum, frame):
        # A tick delayed by a long call into C can still run when the next
        # signal arrives; that one must not sample inside this sample.
        if self._ticking:
            return
        self._ticking = True
        t = time.perf_counter()
        try:
            self._sample()
        finally:
            self.stolen += time.perf_counter() - t
            self._ticking = False

    def __enter__(self):
        if self.period is None:
            return self
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.period is None:
            return False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def factor(self, first=0, last=None):
        """Nominal over mean kernel time: below 1 when the host ran slow.

        ``samples[first:last]`` are the ones averaged, so that a part of
        the block can be paced by the samples taken while it ran.
        """
        window = self.samples[first:last]
        return NOMINAL_S / statistics.fmean(window) if window else 1.0
