"""Shared resources for simulated processes.

A :class:`Resource` is a *simulation-time* coordination object used
internally by the machine model (e.g. a crossbar port or a ring link).
It is distinct from the SPP-1000 *runtime* synchronisation in
:mod:`repro.runtime`, which is implemented on top of the simulated
memory system and is itself an object of study.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .engine import Event, Simulator
from .errors import SimulationError

__all__ = ["Resource"]


class Resource:
    """A counted resource with FIFO granting (capacity >= 1).

    Usage from a process::

        grant = yield resource.acquire()
        try:
            yield sim.timeout(cost)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # what acquire() returns for a free slot: an event that has
        # already succeeded and left the queue
        self._granted = granted = Event(sim)
        granted._ok, granted._value, granted.callbacks = True, None, None

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that succeeds when a slot is granted.

        A free slot is granted at once: the event returned is one this
        resource keeps for the purpose, already triggered and processed,
        so no event is scheduled.  A process that yields it resumes
        through a zero-delay wake, in the heap slot a freshly scheduled
        grant would have taken, and runs on inline when nothing else is
        due first (see :mod:`repro.sim.process`).  A busy resource
        returns a new event that succeeds when :meth:`release` hands it
        the slot, oldest waiter first.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return self._granted
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free one slot, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
