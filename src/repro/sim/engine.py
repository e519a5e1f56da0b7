"""Discrete-event simulation kernel.

The kernel is a classic event-heap simulator in the style of SimPy, reduced
to exactly what the SPP-1000 machine model needs: events, timeouts,
generator-based processes, and condition events (``all_of`` / ``any_of``).

Simulated time is a ``float`` measured in **nanoseconds** throughout this
project (the SPP-1000 has a 10 ns clock, so one CPU cycle = 10.0).

Typical use::

    sim = Simulator()

    def worker(sim, out):
        yield sim.timeout(25.0)
        out.append(sim.now)

    out = []
    sim.process(worker(sim, out))
    sim.run()
    assert out == [25.0]
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Generator, Iterable, Optional

from .errors import (
    DeadlockError,
    EventAlreadyTriggered,
    SimulationError,
)

__all__ = ["Event", "Timeout", "Condition", "Simulator"]

_UNSET = object()


def _ambient_hostscope():
    """Lazy lookup of the ambient host-time profiler, avoiding the
    ``sim -> obs -> tools -> machine -> sim`` import cycle at load."""
    from ..obs.hostscope import active_hostscope
    return active_hostscope()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    triggers it and schedules its callbacks to run at the current simulation
    time.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "defused", "_value", "_ok", "_scheduled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: callables invoked with this event once it has been processed
        self.callbacks: Optional[list] = []
        #: set True by a waiter that handled this event's failure itself
        self.defused = False
        self._value = _UNSET
        self._ok: Optional[bool] = None
        self._scheduled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _UNSET

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event has left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self):
        """The success value or failure exception carried by the event."""
        if self._value is _UNSET:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value=None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._value is not _UNSET:
            raise EventAlreadyTriggered(repr(self))
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception thrown into waiting processes."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _UNSET:
            raise EventAlreadyTriggered(repr(self))
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that succeeds ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ and Simulator._schedule, inlined: a timeout is
        # the kernel's most frequent event
        self.sim = sim
        self.callbacks = []
        self.defused = False
        self._ok = True
        self._value = value
        self._scheduled = True
        self.delay = delay
        queue = sim._queue
        heapq.heappush(queue, (sim._now + delay, next(sim._seq), self))
        if sim.hostscope is not None:
            sim.hostscope.note_push(len(queue))


class Condition(Event):
    """An event that triggers when a predicate over child events holds.

    Used through :meth:`Simulator.all_of` / :meth:`Simulator.any_of`.  The
    value of a condition is a dict mapping each *triggered* child event to
    its value.
    """

    __slots__ = ("_events", "_need", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event], need: int):
        super().__init__(sim)
        self._events = tuple(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from simulators")
        self._need = min(need, len(self._events))
        self._count = 0
        if not self._events or self._need <= 0:
            self.succeed({})
            return
        for ev in self._events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True  # suppress "unhandled failure" semantics
            self.fail(event.value)
            return
        self._count += 1
        if self._count >= self._need:
            self.succeed(
                {ev: ev.value for ev in self._events if ev.triggered and ev.ok}
            )


class Simulator:
    """The event loop: an event heap ordered by (time, sequence)."""

    def __init__(self):
        self._now = 0.0
        self._queue: list = []
        self._seq = itertools.count()
        #: the event whose *last* callback is running, unless that event
        #: is the target of ``run(until=...)``: while it is, the running
        #: process may take its zero-delay wakes inline
        #: (:meth:`~repro.sim.process.Process._resume`)
        self._tail: Optional[Event] = None
        #: the event the latest ``run(until=...)`` stops after
        self._until: Optional[Event] = None
        #: the time ``run(until=<time>)`` stops at: a bare delay that
        #: would end past it is queued, not taken inline
        self._horizon = float("inf")
        #: optional :class:`~repro.sim.trace.Tracer` counting event
        #: dispatches under ``"sim.dispatch"``.  Left ``None`` by default
        #: so the hot loop pays nothing; the machine model attaches its
        #: tracer here when tracing is enabled.
        self.tracer = None
        #: optional :class:`~repro.faults.watchdog.Watchdog` whose report
        #: enriches deadlock diagnostics; attached by the machine model
        #: when a fault plan configures one.
        self.watchdog = None
        #: live (unfinished) :class:`~repro.sim.process.Process` count,
        #: maintained by the processes themselves — deadlock context.
        self.alive_processes = 0
        #: optional :class:`~repro.obs.hostscope.HostScope` attributing
        #: *host* wall-time to simulator subsystems.  Adopted from the
        #: ambient ``use_hostscope`` scope at construction; ``None`` by
        #: default so the hot loop pays exactly one ``is None`` check.
        self.hostscope = _ambient_hostscope()
        if self.hostscope is not None:
            self.hostscope.simulators += 1

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> Condition:
        """An event that fires once *all* ``events`` have succeeded."""
        events = tuple(events)
        return Condition(self, events, need=len(events))

    def any_of(self, events: Iterable[Event]) -> Condition:
        """An event that fires once *any one* of ``events`` has succeeded."""
        return Condition(self, tuple(events), need=1)

    def process(self, generator: Generator, region: "str | None" = None):
        """Start a new :class:`~repro.sim.process.Process` from a generator.

        ``region`` names the :mod:`~repro.obs.hostscope` host-time region
        the process's generator slices are attributed to (default
        ``"app"``); it has no effect on simulated time.
        """
        return Process(self, generator, region=region)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), event))
        if self.hostscope is not None:
            self.hostscope.note_push(len(self._queue))

    def schedule_callback(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn()`` after ``delay`` ns; returns the underlying event."""
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    # -- execution --------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Dispatch exactly one event from the queue.

        Its last callback may go on to run zero-delay wakes and bare
        delays inline (see :mod:`repro.sim.process`), so one step can run
        several generator slices and advance the clock past the popped
        event's time, never past the next queued event.
        """
        if self.hostscope is not None:
            self._step_profiled(self.hostscope)
            return
        time, _seq, event = heapq.heappop(self._queue)
        if time < self._now - 1e-12:
            raise SimulationError("event scheduled in the past")
        self._now = time
        if self.tracer is not None:
            self.tracer.emit(time, "sim.dispatch")
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            last = callbacks.pop()
            for callback in callbacks:
                callback(event)
            if event is not self._until:
                self._tail = event
            last(event)
        if not event._ok and not event.defused:
            # A failed event nobody waited on: surface the error loudly
            # rather than silently dropping it.
            raise event._value

    def _step_profiled(self, hs) -> None:
        """:meth:`step` with host-time accounting (hostscope installed)."""
        detail = hs.detail
        queue = self._queue
        hs.events += 1
        hs.depth_sum += len(queue)
        if detail:
            hs.enter("event_heap")
            time, _seq, event = heapq.heappop(queue)
            hs.exit()
        else:
            time, _seq, event = heapq.heappop(queue)
        if time < self._now - 1e-12:
            raise SimulationError("event scheduled in the past")
        if time > self._now:
            hs.sim_ns += time - self._now
        self._now = time
        if self.tracer is not None:
            self.tracer.emit(time, "sim.dispatch")
        callbacks, event.callbacks = event.callbacks, None
        if detail:
            hs.enter("dispatch")
        try:
            if callbacks:
                last = callbacks.pop()
                for callback in callbacks:
                    callback(event)
                if event is not self._until:
                    self._tail = event
                last(event)
        finally:
            if detail:
                hs.exit()
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until: "float | Event | None" = None):
        """Run the event loop.

        ``until`` may be ``None`` (drain the queue), a time (run up to and
        including that instant), or an :class:`Event` (run until it has been
        processed, returning its value; raises :class:`DeadlockError` if the
        queue drains first).
        """
        if until is None:
            while self._queue:
                self.step()
            return None
        if isinstance(until, Event):
            # its callbacks must not run wakes inline: run() stops
            # after them, and a wake belongs to the next run
            sentinel = self._until = until
            while sentinel.callbacks is not None:
                if not self._queue:
                    raise DeadlockError(
                        "event queue drained before target event triggered",
                        now=self._now, pending=self.alive_processes,
                        report=(self.watchdog.report(self._now)
                                if self.watchdog is not None else None))
                self.step()
            if sentinel._ok:
                return sentinel._value
            raise sentinel._value
        horizon = float(until)
        if horizon < self._now:
            raise ValueError("cannot run backwards in time")
        outer, self._horizon = self._horizon, horizon
        try:
            while self._queue and self._queue[0][0] <= horizon:
                self.step()
        finally:
            self._horizon = outer
        self._now = max(self._now, horizon)
        return None


# process.py builds on Event and Simulator, so it is imported last.
from .process import Process  # noqa: E402
