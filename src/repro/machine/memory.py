"""Memory banks: per-(hypernode, FU, bank) contended storage.

Every functional unit carries two physical banks (up to 16 MB each in the
real machine).  A bank serves one line at a time; contention between CPUs
hammering the same bank — the "memory bank conflicts" the paper names as
the source of the 50-60 cycle spread — emerges from the bank's resource
queue.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.config import MachineConfig
from ..sim import Resource, Simulator
from .address import HomeLocation

__all__ = ["MemoryBank", "MemorySubsystem"]


class MemoryBank:
    """One physical bank; serves one line per ``bank_cycles``."""

    #: optional :class:`~repro.obs.memscope.MemScope` wired by the
    #: Machine; class attribute so the unprofiled path costs one check.
    memscope = None

    def __init__(self, sim: Simulator, config: MachineConfig,
                 home: HomeLocation):
        self.sim = sim
        self.config = config
        self.home = home
        self._port = Resource(sim)
        #: how long serving one line holds the bank, in ns
        self.line_ns = config.cycles(config.bank_cycles)

    def service(self, lines: int = 1):
        """Sub-operation: occupy the bank long enough to read/write
        ``lines``."""
        return self.occupy(self.line_ns * lines, lines)

    def occupy(self, hold_ns: float, lines: int = 1):
        """Sub-operation: hold the bank port for an explicit duration.

        Bulk (page-mode) transfers stream lines faster than the random
        per-line latency; the caller supplies the pipelined duration.
        """
        yield self._port.acquire()
        ms = self.memscope
        start = self.sim._now if ms is not None else 0.0
        try:
            yield hold_ns
        finally:
            self._port.release()
        if ms is not None:
            ms.bank_busy(self.home, start, hold_ns, lines)


class MemorySubsystem:
    """All banks of the machine, addressed by :class:`HomeLocation`."""

    def __init__(self, sim: Simulator, config: MachineConfig):
        self.sim = sim
        self.config = config
        self._banks: Dict[Tuple[int, int, int], MemoryBank] = {}
        for hn in range(config.n_hypernodes):
            for fu in range(config.fus_per_hypernode):
                for bank in range(config.banks_per_fu):
                    home = HomeLocation(hn, fu, bank)
                    self._banks[(hn, fu, bank)] = MemoryBank(sim, config, home)

    def bank(self, home: HomeLocation) -> MemoryBank:
        return self._banks[(home.hypernode, home.fu, home.bank)]

    @property
    def banks(self) -> tuple:
        return tuple(self._banks.values())
