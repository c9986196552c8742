"""Processor-speed calibration for the benchmark's timings.

The machines this runs on share their cores with other guests, and their
speed drifts by 10-40% over seconds to minutes. A fixed piece of
pure-Python work of the kinds strata does (small calls and allocations,
integer elimination, Fraction sums), independent of strata, is timed
three times before and after every pass and, from a timer signal, every
INTERVAL_S seconds while the pass runs; the time those samples take is
taken out of the calls they interrupted. Each call's time is multiplied
by REFERENCE_S / (mean time of the samples taken within INTERVAL_S of the
call); set-up and per-layer times by REFERENCE_S / (median sample of the
pass). Times are then seconds at the speed at which the loop takes
REFERENCE_S. Drift cancels, because it slows the loop and strata alike,
while a change to strata does not touch the loop.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.00975  # the loop's median time on a 2.1 GHz Xeon guest
INTERVAL_S = 0.2


def _cell(i, j):
    return (i, j, [i * j % 5] * 3)


def _work():
    # many small calls and allocations, as in the many tiny Hom systems
    cells = 0
    for i in range(2500):
        cells += len(_cell(i, i + 1)[2])
    n = 16
    rows = [[(i * 7 + j * 13 + i * j) % 17 - 8 for j in range(n)] for i in range(n)]
    prev = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        p = rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c]
            rows[r] = [(x * p - f * y) // prev for x, y in zip(rows[r], rows[c])]
        prev = p
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return cells, prev, total


def timed_run():
    """(start, end) of one run of the loop. The loop makes no reference
    cycles, so the collector is paused: how many objects the pass holds
    must not change the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return start, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Calibration samples taken from SIGALRM while the context is active.

    Python runs the handler between two bytecodes of whatever the pass is
    doing, so each sample's [start, end) lies wholly inside or wholly
    outside any interval the pass times. `on_sample(start, end)` lets a
    tracer take the sample out of its spans too.
    """

    def __init__(self, on_sample=None):
        self.intervals = []
        self.on_sample = on_sample

    def _handler(self, signum, frame):
        start, end = timed_run()
        self.intervals.append((start, end))
        if self.on_sample is not None:
            self.on_sample(start, end)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, start: float, end: float) -> float:
        """Seconds of calibration between start and end."""
        return sum(e - s for s, e in self.intervals if start <= s and e <= end)


def scales(samples, windows):
    """REFERENCE_S / (mean duration of the samples whose midpoint lies
    within INTERVAL_S of the window), for each [start, end) window."""
    samples = sorted(((s + e) / 2, e - s) for s, e in samples)
    mids = [m for m, _ in samples]
    out = []
    for start, end in windows:
        lo = bisect.bisect_left(mids, start - INTERVAL_S)
        hi = bisect.bisect_right(mids, end + INTERVAL_S)
        if lo == hi:  # no sample close by: take the nearest one
            i = min(max(lo, 0), len(mids) - 1)
            lo, hi = i, i + 1
        near = [d for _, d in samples[lo:hi]]
        out.append(REFERENCE_S * len(near) / sum(near))
    return out
