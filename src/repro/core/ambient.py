"""Context-local install slots: the one mechanism behind every ``use_*``.

The tracer, the fault plan, the three profilers and the end-to-end trace
context all reach code built deep inside an experiment the same way: a
``with use_x(value):`` block installs ``value``, and the component that
needs it (a :class:`~repro.machine.system.Machine`, a
:class:`~repro.sim.engine.Simulator`, :func:`repro.exec.execute`) reads
``active_x()`` once.  Each of those pairs is a thin alias of one
:class:`Slot`.

A slot keeps its value in a :class:`contextvars.ContextVar`, so an
install is visible only in the context that made it: the installing
thread (or asyncio task), never a concurrently running one.  A new
thread starts with every slot empty.  This is what lets the job server
run several observed or fault-injected jobs on worker threads at once.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Generic, Iterator, Optional, TypeVar

__all__ = ["Slot"]

T = TypeVar("T")


class Slot(Generic[T]):
    """One context-local ambient value, ``None`` until installed.

    ``slot.get()`` reads the value installed in the current context (one
    C call).  ``with slot.use(value):`` installs ``value`` for the
    dynamic extent and restores the previous value on exit, so installs
    nest; installing ``None`` masks an outer value.
    """

    __slots__ = ("_var", "get")

    def __init__(self, name: str):
        self._var: ContextVar[Optional[T]] = ContextVar(name, default=None)
        self.get = self._var.get

    @contextmanager
    def use(self, value: Optional[T]) -> Iterator[Optional[T]]:
        """Install ``value`` in the current context for the block."""
        token = self._var.set(value)
        try:
            yield value
        finally:
            self._var.reset(token)
