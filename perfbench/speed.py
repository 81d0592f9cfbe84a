"""CPU-speed normalisation of the benchmark's timings.

The host the benchmark was written on gives each process a share of a
shared core whose speed changes by up to 2x for seconds to tens of seconds,
independently on each CPU.  Two sets of runs a few minutes apart can then
differ by a third in plain wall time while the code is the same.  So every
timed region is bracketed by a fixed pure-Python reference kernel, run on
the same pinned CPU just before and just after it, and the time is reported
at reference speed:

    normalised = wall * REF_NOMINAL_S / mean(reference before, reference after)

The kernel is the benchmark's own code (tuple, dict and Fraction work, like
ghckit's inner loops), so no change to ghckit can move it; a
change that makes ghckit faster or slower moves the normalised time by the
same share as the wall time.  REF_NOMINAL_S is a fixed scale: normalised
times are the wall times the regions would take on a core that runs the
kernel in that time.  On the 2-core x86 host (CPython 3.11) the kernel took
0.5-0.9 ms.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.0006  # reference kernel time that normalised times are scaled to
REF_REPEAT = 3  # kernel runs per reference sample; the sample is their median


_RNG = random.Random(0)
_TUPLES = [tuple(_RNG.sample(range(40), 6)) for _ in range(600)]


def kernel() -> int:
    """Sort and count small tuples, with some Fraction sums: the mix of
    ghckit's root-subset and exact-arithmetic loops, with a working set of
    a few hundred objects."""
    seen, total = {}, Fraction(0)
    for j, t in enumerate(_TUPLES):
        key = tuple(sorted(t))
        seen[key] = seen.get(key, 0) + 1
        if j % 8 == 0:
            total += Fraction(t[0] - 20, t[1] + 1)
    return len(seen)


def reference() -> float:
    """Seconds the reference kernel takes here and now (median of a few runs)."""
    times = []
    for _ in range(REF_REPEAT):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pin_fastest(cpus: list[int]) -> float:
    """Pin this process (and the children it starts next) to the allowed CPU
    that runs the reference kernel fastest right now; return that CPU's
    reference time."""
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((reference(), cpu))
    best, cpu = min(timings)
    os.sched_setaffinity(0, {cpu})
    return best


class Clock:
    """Times regions at reference speed.  Regions are grouped in windows of
    about ``window_s`` of wall time; each window runs on one pinned CPU
    between two reference samples, and its regions are scaled by their mean.
    ``time(key, fn, *a)`` runs fn now and returns its result; the scaled time
    reaches ``sink(key, seconds)`` when the window closes, right after the
    region that fills it (or on ``flush()``)."""

    def __init__(self, sink, window_s: float = 0.1):
        self.sink = sink
        self.window_s = window_s
        self.cpus = sorted(os.sched_getaffinity(0))
        self.pending: list = []
        self.opened = 0.0
        self.ref_open = 0.0
        self.wall_s = 0.0  # plain wall time of every timed region
        self.refs: list[float] = []  # every reference sample, for the detail line

    def _open(self) -> None:
        self.ref_open = pin_fastest(self.cpus)
        self.refs.append(self.ref_open)
        self.opened = time.perf_counter()

    def flush(self) -> None:
        if not self.pending:
            return
        ref_close = reference()
        self.refs.append(ref_close)
        scale = REF_NOMINAL_S / ((self.ref_open + ref_close) / 2)
        for key, wall in self.pending:
            self.sink(key, wall * scale)
        self.pending = []

    def time(self, key, fn, *a):
        if not self.pending:
            self._open()
        t0 = time.perf_counter()
        try:
            return fn(*a)
        finally:
            wall = time.perf_counter() - t0
            self.wall_s += wall
            self.pending.append((key, wall))
            if time.perf_counter() - self.opened >= self.window_s:
                self.flush()
