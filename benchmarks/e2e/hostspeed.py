"""Host speed, sampled in the measured thread while the benchmark runs.

On a shared host, other tenants slow this interpreter by 10-100% for
minutes at a time, longer than a run, so no median inside a run removes
it.  A fixed pure-Python reference loop, which never touches the
simulator, slows down with it: timed between chunks of simulator work in
the same thread, the ratio of the two moves by a few percent while the
simulator's time alone moves by a third or more.

:class:`Sampler` therefore times the reference loop every
:data:`PERIOD` seconds from a ``SIGALRM`` handler, which runs in the
measured thread between bytecodes.  An interval's seconds at nominal
host speed integrate ``dt * NOMINAL_S / sample`` over it: each sample
inside it stands for an equal share of its time.  The loop allocates
one small dict per sample, so it barely moves the garbage collector's
schedule.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds one :func:`_loop` takes on an idle 2-vCPU x86-64 Linux host
#: under CPython 3.11.  Only ratios to it matter: every commit compared
#: runs the same loop against the same constant.
NOMINAL_S = 0.0015

#: Seconds between samples.
PERIOD = 0.1


def _loop(n: int = 6000) -> int:
    """Integer arithmetic and dict updates on a small table."""
    table: dict = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + (i & 0xFF)
        acc ^= (key << 3) ^ len(table)
    return acc


class Sampler:
    """Reference-loop timings ``(start, seconds)`` taken every *period*
    seconds between ``__enter__`` and ``__exit__``."""

    def __init__(self, period: float = PERIOD) -> None:
        self.period = period
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        _loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def nominal_seconds(self, start: float, end: float) -> float:
        """The seconds from *start* to *end* at nominal host speed.  With
        no sample inside the interval the next one (or the last) stands
        for it; with no samples at all the seconds are as measured."""
        if not self.samples:
            return end - start
        starts = [t for t, _ in self.samples]
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_right(starts, end)
        if hi == lo:
            lo = min(lo, len(self.samples) - 1)
            hi = lo + 1
        inside = self.samples[lo:hi]
        return (end - start) * statistics.mean(NOMINAL_S / s for _, s in inside)
