"""Generator-based simulated processes.

A process wraps a Python generator.  The generator ``yield``s
:class:`~repro.sim.engine.Event` objects; the process sleeps until each
yielded event triggers, then resumes with the event's value (or has the
event's exception thrown into it).  A :class:`Process` is itself an event
that succeeds with the generator's return value, so processes can wait on
each other::

    def child(sim):
        yield sim.timeout(10.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        assert value == 42

A generator may also yield another *generator*: a **sub-operation**.  It
runs on the same process, and the yield evaluates to its return value
(or raises its exception), as if it had been a child process::

    def parent(sim):
        value = yield child(sim)     # no Process object is built
        assert value == 42

A sub-operation keeps the event order of a child process exactly.  Where
the child's start event and completion event took their heap slots, the
sub-operation schedules a zero-delay *wake*; the completion wake carries
the return value or exception.

Third, a generator may yield a ``float``: a **bare delay** of that many
nanoseconds, which stands for ``yield sim.timeout(delay)``::

    def op(sim):
        yield 30.0                   # no Timeout object is built
        return sim.now

A negative delay throws the ``ValueError`` ``sim.timeout`` would raise
into the generator.  Only a ``float`` is a delay: an ``int`` or a NumPy
scalar is a non-event.  A bare delay is a process's own sleep; use
``sim.timeout`` for an event other code can wait on.

A wake or a bare delay runs inline, without an event or a heap round
trip, exactly when the heap would dispatch its timeout next anyway.
That timeout would be queued behind every entry, so this holds when
three things do: the running callback is the last one of its event,
and that event is not the target of ``run(until=...)``; the delay ends
strictly before the earliest queued event (a tie goes to the older
entry); and it does not end past a ``run(until=<time>)`` horizon.  The
process then advances the clock itself and keeps running.  Otherwise
it queues a real timeout, which :meth:`Process.interrupt` can cut
short.  Inline wakes and delays are not dispatches: they are missing
from the ``sim.dispatch`` trace count and hostscope's event and push
counts, while hostscope's simulated time still counts every inline
delay.

Two loops apply this one rule.  :meth:`Process._resume` reads
``sim.hostscope`` once per call; without a profiler it runs a loop
that does no per-slice profiler work.  With one it hands the event to
``_resume_profiled``, the same loop with host-time accounting, as
:meth:`~repro.sim.engine.Simulator.step` hands off to
``_step_profiled``.  Both loops yield the same event order.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Generator

from .engine import Event, Simulator, Timeout
from .errors import Interrupt, SimulationError

__all__ = ["Process"]


class Process(Event):
    """A running simulated activity; also an event for its completion."""

    __slots__ = ("_generator", "_stack", "_target", "name", "region")

    def __init__(self, sim: Simulator, generator: Generator, name: str = "",
                 region: "str | None" = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?")
        super().__init__(sim)
        sim.alive_processes += 1
        #: the innermost running generator: the process's own, or the
        #: sub-operation it is inside
        self._generator = generator
        #: the suspended callers of ``_generator``, outermost first
        self._stack: list = []
        self.name = name or getattr(generator, "__name__", "process")
        #: hostscope region this process's generator slices bill to;
        #: sub-operation slices bill to ``memory``
        self.region = region or "app"
        if sim.hostscope is not None:
            sim.hostscope.processes += 1
        #: the event this process is currently waiting on (None when ready)
        self._target: Event | None = None
        # Kick-start at the current instant.
        start = Event(sim)
        start.callbacks.append(self._resume)
        start.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def succeed(self, value=None) -> "Event":
        result = super().succeed(value)
        self.sim.alive_processes -= 1
        return result

    def fail(self, exception: BaseException) -> "Event":
        result = super().fail(exception)
        self.sim.alive_processes -= 1
        return result

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must currently be waiting on an event; the event itself
        stays pending (the process simply stops waiting for it).  Inside a
        sub-operation the interrupt is thrown into the innermost generator;
        if that does not catch it, it reaches the caller like any other
        exception of a sub-operation.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already terminated")
        if self._target is None:
            raise SimulationError(f"{self!r} cannot be interrupted right now")
        target, self._target = self._target, None
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        wakeup = Event(self.sim)
        wakeup.defused = True
        wakeup.callbacks.append(self._resume)
        wakeup.fail(Interrupt(cause))

    # -- internal -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Off path (no profiler): one hostscope read per call, and no
        # per-slice profiler work in the loop (see the module docstring).
        sim = self.sim
        hs = sim.hostscope
        if hs is not None:
            self._resume_profiled(event, hs)
            return
        self._target = None
        ok = event._ok
        value = event._value
        if not ok:
            event.defused = True
        gen = self._generator
        stack = self._stack
        queue = sim._queue
        while True:
            delay = 0.0
            try:
                if ok:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(value)
            except StopIteration as stop:
                if not stack:
                    self.succeed(stop.value)
                    return
                # sub-operation returned: wake its caller with the value
                ok, value = True, stop.value
                gen = self._generator = stack.pop()
            except BaseException as exc:
                if not stack:
                    self.fail(exc)
                    return
                ok, value = False, exc
                gen = self._generator = stack.pop()
            else:
                if type(yielded) is float:
                    # bare delay: ``sim.timeout(yielded)`` with no event
                    # unless one has to be queued
                    if yielded < 0:
                        ok, value = False, ValueError(
                            f"negative timeout delay: {yielded}")
                    else:
                        delay = yielded
                        ok, value = True, None
                elif type(yielded) is GeneratorType:
                    # sub-operation: start it with a wake
                    stack.append(gen)
                    gen = self._generator = yielded
                    ok, value = True, None
                elif isinstance(yielded, Event) and yielded.sim is sim:
                    callbacks = yielded.callbacks
                    if callbacks is not None:
                        callbacks.append(self._resume)
                        self._target = yielded
                        return
                    # already processed: resume with its outcome, at the
                    # current instant, so ordering stays FIFO
                    ok, value = yielded._ok, yielded._value
                    if not ok:
                        yielded.defused = True
                else:
                    exc = self._bad_yield(gen, yielded)
                    if not stack:
                        self.fail(exc)
                        return
                    ok, value = False, exc
                    gen = self._generator = stack.pop()
            # Deliver (ok, value) to ``gen`` ``delay`` ns from now: a
            # zero-delay wake or a bare delay, inline when the heap would
            # dispatch its timeout next anyway.
            t = sim._now + delay
            if (sim._tail is event and t <= sim._horizon
                    and (not queue or t < queue[0][0])):
                sim._now = t
                continue
            if ok:
                wake = Timeout(sim, delay, value)
            else:
                wake = Event(sim)
                wake.fail(value)
            wake.callbacks.append(self._resume)
            self._target = wake
            return

    def _resume_profiled(self, event: Event, hs) -> None:
        """:meth:`_resume` with host-time accounting (hostscope installed).

        Each generator slice bills to the process's hostscope region
        (``memory`` inside a sub-operation), and every inline delay adds
        to hostscope's simulated time.
        """
        sim = self.sim
        self._target = None
        ok = event._ok
        value = event._value
        if not ok:
            event.defused = True
        gen = self._generator
        stack = self._stack
        while True:
            delay = 0.0
            hs.enter("memory" if stack else self.region)
            try:
                try:
                    if ok:
                        yielded = gen.send(value)
                    else:
                        yielded = gen.throw(value)
                except StopIteration as stop:
                    if not stack:
                        self.succeed(stop.value)
                        return
                    ok, value = True, stop.value
                    gen = self._generator = stack.pop()
                except BaseException as exc:
                    if not stack:
                        self.fail(exc)
                        return
                    ok, value = False, exc
                    gen = self._generator = stack.pop()
                else:
                    if type(yielded) is float:
                        if yielded < 0:
                            ok, value = False, ValueError(
                                f"negative timeout delay: {yielded}")
                        else:
                            delay = yielded
                            ok, value = True, None
                    elif type(yielded) is GeneratorType:
                        stack.append(gen)
                        gen = self._generator = yielded
                        ok, value = True, None
                    elif isinstance(yielded, Event) and yielded.sim is sim:
                        callbacks = yielded.callbacks
                        if callbacks is not None:
                            callbacks.append(self._resume)
                            self._target = yielded
                            return
                        ok, value = yielded._ok, yielded._value
                        if not ok:
                            yielded.defused = True
                    else:
                        exc = self._bad_yield(gen, yielded)
                        if not stack:
                            self.fail(exc)
                            return
                        ok, value = False, exc
                        gen = self._generator = stack.pop()
                now = sim._now
                t = now + delay
                queue = sim._queue
                if (sim._tail is event and t <= sim._horizon
                        and (not queue or t < queue[0][0])):
                    if t != now:
                        hs.sim_ns += t - now
                        sim._now = t
                    continue
                if ok:
                    wake = Timeout(sim, delay, value)
                else:
                    wake = Event(sim)
                    wake.fail(value)
                wake.callbacks.append(self._resume)
                self._target = wake
                return
            finally:
                hs.exit()

    def _bad_yield(self, gen, yielded) -> SimulationError:
        """Close ``gen``, which yielded something other than an event of
        this simulator, a generator or a ``float``; the error to raise
        in its caller."""
        gen.close()
        if isinstance(yielded, Event):
            problem = "an event from another simulator"
        else:
            problem = f"a non-event ({type(yielded).__name__})"
        return SimulationError(f"process {self.name!r} yielded {problem}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
