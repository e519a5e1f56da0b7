"""Discrete-event simulation kernel used by the SPP-1000 machine model.

Public surface:

* :class:`Simulator` — the event loop (time in nanoseconds)
* :class:`Event`, :class:`Timeout` — awaitables
* :class:`Process` — generator-based simulated activities
* :class:`Resource` — a sim-time counted resource used inside the
  machine model
* :class:`Tracer` — trace/counter collection
"""

from .engine import Event, Simulator, Timeout
from .errors import DeadlockError, EventAlreadyTriggered, SimulationError
from .process import Process
from .resources import Resource
from .trace import TraceEvent, TraceRecord, Tracer, active_tracer, use_tracer

__all__ = [
    "Simulator", "Event", "Timeout", "Process", "Resource", "Tracer",
    "TraceRecord", "TraceEvent", "active_tracer", "use_tracer",
    "SimulationError", "DeadlockError", "EventAlreadyTriggered",
]
