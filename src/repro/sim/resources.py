"""Shared resources for simulated processes.

These are *simulation-time* coordination objects used internally by the
machine model (e.g. a crossbar port is a :class:`Resource`, a ring link is a
:class:`Resource`, a mailbox is a :class:`Store`).  They are distinct from
the SPP-1000 *runtime* synchronisation primitives in :mod:`repro.runtime`,
which are implemented on top of the simulated memory system and are
themselves objects of study.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .engine import Event, Simulator
from .errors import SimulationError

__all__ = ["Resource", "Store", "PriorityStore"]


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
    def in_use(self) -> int:
        return self._in_use

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

    def use(self, hold_time: float):
        """Process helper: acquire, hold for ``hold_time`` ns, release."""
        def _use():
            yield self.acquire()
            try:
                yield self.sim.timeout(hold_time)
            finally:
                self.release()
        return self.sim.process(_use())


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks (the machine model applies transfer latencies
    explicitly before putting).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item) -> None:
        """Deposit ``item``, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event yielding the next item (immediately if present)."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[object]:
        """Non-blocking get: an item, or None if the store is empty."""
        if self._items:
            return self._items.popleft()
        return None


class PriorityStore(Store):
    """A :class:`Store` that hands out the smallest item first.

    Items must be mutually orderable; ties break FIFO via an internal
    sequence number.
    """

    def __init__(self, sim: Simulator):
        super().__init__(sim)
        self._seq = 0

    def put(self, item) -> None:
        import heapq

        if self._getters:
            self._getters.popleft().succeed(item)
            return
        heapq.heappush(self._items_heap(), (item, self._seq))
        self._seq += 1

    def _items_heap(self):
        # Reuse the deque slot as a list-backed heap.
        if not isinstance(self._items, list):
            self._items = list(self._items)
        return self._items

    def get(self) -> Event:
        import heapq

        ev = Event(self.sim)
        if self._items:
            item, _ = heapq.heappop(self._items_heap())
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self):
        import heapq

        if self._items:
            item, _ = heapq.heappop(self._items_heap())
            return item
        return None
