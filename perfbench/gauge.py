"""A fixed pure-Python loop that gauges how fast the machine runs now.

The shared 2-core machine the benchmark was built on changes speed by up
to 1.9x, often for minutes: its vCPU flips between a fast and a slow mode
many times a second, and the share of time spent slow drifts.  That moves
whole runs together, in CPU time as well as wall time, and no repeat
inside one run can undo it.

A worker times this loop (0.3 ms) after every 20 ms of item time, and
before and after its set-up, interleaved with its own work.  run.py
scales the pass's times by REFERENCE_S over the mean loop time of the pass
(set-up times by that of their own process), so times read as on a
machine where the loop takes REFERENCE_S.  The loop indexes lists and adds
small ints, as pglab's inner loops do, allocates nothing the garbage
collector tracks, and calls no pglab code, so a change to pglab cannot
move it.  On one series of 17 sweep passes, pass times varied 7.6-9.9 s
(coefficient of variation 8%) and the scaled times by 3%.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.3e-3
EVERY_S = 0.02
_TABLE = [[(a * 5 + b * 7 + a * b) % 19 for b in range(19)] for a in range(19)]


def sample() -> tuple[float, float]:
    """(perf_counter at the start, seconds the loop takes now)."""
    t0 = perf_counter()
    t, x, acc = _TABLE, 1, 0
    for i in range(4000):
        x = t[x][i % 19]
        acc += x
    return t0, perf_counter() - t0


def samples(k: int) -> list[tuple[float, float]]:
    return [sample() for _ in range(k)]
