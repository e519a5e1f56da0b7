"""Performance metrics used throughout the evaluation.

:func:`mflops` is the sustained rate the paper reports for every
application.
"""

from __future__ import annotations

from .units import to_seconds

__all__ = ["mflops"]


def mflops(flops: float, time_ns: float) -> float:
    """Sustained MFLOP/s for ``flops`` floating-point operations in ``time_ns``."""
    if time_ns <= 0:
        raise ValueError("time must be positive")
    return flops / to_seconds(time_ns) / 1e6
