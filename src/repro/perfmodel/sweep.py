"""Scaling-study helpers shared by the figure experiments."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core.metrics import ScalingCurve, ScalingPoint
from .model import RunResult

__all__ = ["scaling_study", "efficiency_table"]


def scaling_study(run: Callable[[int], RunResult],
                  processor_counts: Sequence[int],
                  label: str = "",
                  point: Optional[Callable] = None) -> ScalingCurve:
    """Run a workload at each processor count; returns a ScalingCurve.

    ``run(p)`` must return a :class:`RunResult`; each count is executed
    exactly once.  ``point(key, fn)`` — the execution fabric's
    memoisation protocol (see :mod:`repro.exec`) — lets a parallel,
    cached or journaled run serve counts already computed; the value
    memoised per count is the ``(time_ns, flops)`` pair.
    """
    if not processor_counts:
        raise ValueError("no processor counts given")
    name = label or "scaling"

    def measure(p):
        result = run(p)
        return (result.time_ns, result.flops)

    points = []
    for p in processor_counts:
        if point is not None:
            time_ns, flops = point(f"{name}:{p}", lambda p=p: measure(p))
        else:
            time_ns, flops = measure(p)
        points.append(ScalingPoint(processors=p, time_ns=time_ns,
                                   flops=flops))
    return ScalingCurve(name, points)


def efficiency_table(curve: ScalingCurve) -> list:
    """(processors, speedup, efficiency) rows for a curve with a p=1 point."""
    baseline = curve.time_at(curve.processors[0])
    base_p = curve.processors[0]
    if baseline == 0:
        raise ValueError(
            f"curve {curve.label!r} has a zero baseline time at "
            f"p={base_p}; speed-up against it is undefined")
    rows = []
    for pt in curve.points:
        if pt.time_ns == 0:
            raise ValueError(
                f"curve {curve.label!r} has a zero time at "
                f"p={pt.processors}; speed-up is undefined")
        speedup = baseline / pt.time_ns * base_p
        rows.append((pt.processors, speedup, speedup / pt.processors))
    return rows
