"""Thread runtime on the simulated SPP-1000 (CPSlib analogue, paper §3).

Public surface:

* :class:`Runtime` — creates threads, owns sync-word pools
* :class:`ThreadEnv` — a thread's bound handle on the machine
* :class:`Placement`, :func:`assign` — high-locality / uniform placement
* :class:`Barrier` — the §4.2 semaphore+spin barrier

The placement policies (:mod:`.scheduler`) load with the package; the
performance model reads them.  :class:`Runtime`, :class:`ThreadEnv` and
:class:`Barrier` run on the simulated machine, so they, and the
machine, load on first use.
"""

from .scheduler import Placement, assign, hypernodes_used

__all__ = [
    "Runtime", "ThreadEnv", "Placement", "assign", "hypernodes_used",
    "Barrier",
]


def __getattr__(name):
    if name in ("Runtime", "ThreadEnv"):
        from . import runtime
        return getattr(runtime, name)
    if name == "Barrier":
        from .barrier import Barrier
        return Barrier
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
