"""Topology arithmetic: naming CPUs, functional units, banks, and rings.

A CPU is identified by a single global integer ``0 .. n_cpus-1``.  The
mapping to the hierarchy follows the hardware: consecutive pairs of CPUs
share a functional unit, four functional units form a hypernode, and
functional unit *i* of every hypernode attaches to SCI ring *i*.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import MachineConfig

__all__ = ["CpuLocation", "Topology"]


@dataclass(frozen=True, order=True)
class CpuLocation:
    """Structural coordinates of one CPU."""

    hypernode: int
    fu: int        #: functional-unit index within the hypernode (== ring id)
    slot: int      #: 0 or 1 within the functional unit


class Topology:
    """Pure functions mapping between global ids and structural coordinates."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self._locations = tuple(
            CpuLocation(hn, fu, slot)
            for hn in range(config.n_hypernodes)
            for fu in range(config.fus_per_hypernode)
            for slot in range(config.cpus_per_fu))

    def locate(self, cpu: int) -> CpuLocation:
        """Global CPU id -> (hypernode, functional unit, slot)."""
        if not 0 <= cpu < len(self._locations):
            raise ValueError(
                f"cpu {cpu} out of range 0..{len(self._locations) - 1}")
        return self._locations[cpu]

    def cpu_id(self, hypernode: int, fu: int, slot: int) -> int:
        """(hypernode, functional unit, slot) -> global CPU id."""
        cfg = self.config
        if not 0 <= hypernode < cfg.n_hypernodes:
            raise ValueError(f"hypernode {hypernode} out of range")
        if not 0 <= fu < cfg.fus_per_hypernode:
            raise ValueError(f"functional unit {fu} out of range")
        if not 0 <= slot < cfg.cpus_per_fu:
            raise ValueError(f"slot {slot} out of range")
        return (hypernode * cfg.cpus_per_hypernode
                + fu * cfg.cpus_per_fu + slot)

    def hypernode_of(self, cpu: int) -> int:
        return self.locate(cpu).hypernode

    def cpus_of_hypernode(self, hypernode: int) -> range:
        """All CPU ids belonging to one hypernode."""
        cfg = self.config
        start = hypernode * cfg.cpus_per_hypernode
        return range(start, start + cfg.cpus_per_hypernode)

    def ring_of_fu(self, fu: int) -> int:
        """Functional unit *i* talks on ring *i* (paper §2.5)."""
        if not 0 <= fu < self.config.fus_per_hypernode:
            raise ValueError(f"functional unit {fu} out of range")
        return fu

    def ring_hops(self, src_hn: int, dst_hn: int) -> int:
        """Hops on a unidirectional ring from ``src_hn`` to ``dst_hn``."""
        n = self.config.n_hypernodes
        return (dst_hn - src_hn) % n
