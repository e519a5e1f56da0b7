"""Wall time scaled to a nominal host speed.

The host this benchmark was sized on changes speed in phases of
seconds to minutes: the same ``des`` pass takes 0.7 s in one minute
and 1.3 s in the next (STABILITY.md).  No run of a few seconds
outlasts such a phase, so medians alone cannot remove it.

A fixed pure-Python reference, timed before and after each stretch of
measured work, slows down with the host.  :class:`HostClock` reports a
stretch as its wall time times ``REF_NOMINAL_S`` over the mean of the
two reference times: the seconds the stretch would take on a host
where the reference takes ``REF_NOMINAL_S``.

The reference is this benchmark's own code and calls nothing in the
program, so a change to the program cannot move it: a program that
gets faster reads faster.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

__all__ = ["REF_NOMINAL_S", "HostClock", "reference_s"]

#: about what the reference takes on the sizing host in a fast phase,
#: so scaled times read close to wall times there
REF_NOMINAL_S = 0.009


class _Event:
    __slots__ = ("t", "kind", "data")

    def __init__(self, t: int, kind: int, data: list):
        self.t = t
        self.kind = kind
        self.data = data


def _arithmetic(n: int = 33_000) -> float:
    acc = 0.0
    for i in range(n):
        acc += 1.000001 * i - (i >> 1)
    return acc


def _events(n: int = 5_000) -> int:
    """A toy event loop: heap of tuples, slotted events, a dict."""
    heap = [(i % 7, i, _Event(i, i % 5, [i])) for i in range(64)]
    heapq.heapify(heap)
    state = {}
    seq = len(heap)
    for _ in range(n):
        t, _, ev = heapq.heappop(heap)
        key = (ev.kind, ev.t & 63)
        state[key] = state.get(key, 0) + len(ev.data)
        data = ev.data + [t] if len(ev.data) < 8 else [t]
        seq += 1
        heapq.heappush(heap, (t + 1 + seq % 3, seq,
                              _Event(ev.t + 1, (ev.kind + 1) % 5, data)))
    return len(state)


def reference_s() -> float:
    """Seconds one run of the reference takes now: the median of three
    timings, so that a blip shorter than one timing does not count.

    An arithmetic loop tracks the FEM mesh code's slow phases best, a
    small event loop the simulator's; the sum tracks both (STABILITY.md).
    The collector is off during the run, so the program's ``gc``
    settings cannot reach it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _arithmetic()
            _events()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Scales stretches of wall time by the reference sampled at both
    ends.  ``samples`` holds every reference time taken, in order."""

    def __init__(self):
        self.samples: List[float] = [reference_s()]

    def scale(self, wall_s: float) -> float:
        """``wall_s`` of work that ended just now, scaled by the
        reference sampled before it (at the previous call) and now."""
        before = self.samples[-1]
        self.samples.append(reference_s())
        return wall_s * 2 * REF_NOMINAL_S / (before + self.samples[-1])
