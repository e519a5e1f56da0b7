"""Exception types raised by the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by :mod:`repro.sim`."""


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed more than once."""


class DeadlockError(SimulationError):
    """``run()`` was asked to reach a condition but the event queue drained.

    Carries the drained-queue context when available:

    * ``now`` — simulated time (ns) at which progress stopped;
    * ``pending`` — live process count still waiting on events;
    * ``report`` — a watchdog diagnostic naming every blocked waiter
      (see :class:`repro.faults.watchdog.Watchdog`), or ``None``.
    """

    def __init__(self, message: str = "deadlock", *,
                 now: "float | None" = None,
                 pending: "int | None" = None,
                 report: "str | None" = None):
        parts = [message]
        if now is not None:
            parts.append(f"at t={now / 1000.0:.3f} us")
        if pending is not None:
            parts.append(f"with {pending} live process(es)")
        text = " ".join(parts)
        if report:
            text += "\n" + report
        super().__init__(text)
        self.now = now
        self.pending = pending
        self.report = report
