"""ConvexPVM-style message passing on the simulated SPP-1000 (paper §3.1).

Public surface:

* :class:`PvmSystem` — task registry, buffer pool, ``run_tasks`` driver
* :class:`PvmTask` — per-task ``send`` / ``recv``
* :data:`ANY_SOURCE`, :data:`ANY_TAG` — receive wildcards
* :class:`BufferPool`, :class:`Message` — internals, exposed for tests
"""

from .buffers import BufferLease, BufferPool
from .message import ANY_SOURCE, ANY_TAG, Message, matches
from .system import PvmSystem, PvmTask, TaskFailedError

__all__ = [
    "PvmSystem", "PvmTask", "TaskFailedError",
    "ANY_SOURCE", "ANY_TAG",
    "Message", "matches", "BufferPool", "BufferLease",
]
