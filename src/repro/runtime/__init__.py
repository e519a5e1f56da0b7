"""Thread runtime on the simulated SPP-1000 (CPSlib analogue, paper §3).

Public surface:

* :class:`Runtime` — creates threads, owns sync-word pools
* :class:`ThreadEnv` — a thread's bound handle on the machine
* :class:`Placement`, :func:`assign` — high-locality / uniform placement
* :class:`Barrier` — the §4.2 semaphore+spin barrier
"""

from .barrier import Barrier
from .runtime import Runtime, ThreadEnv
from .scheduler import Placement, assign, hypernodes_used

__all__ = [
    "Runtime", "ThreadEnv", "Placement", "assign", "hypernodes_used",
    "Barrier",
]
