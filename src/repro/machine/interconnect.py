"""Crossbars and SCI rings as contended simulation resources.

* Each hypernode has a 5-port crossbar; we model one port
  :class:`~repro.sim.resources.Resource` per functional unit (the fifth,
  I/O, port is instantiated but unused by compute traffic).  A memory
  request holds the *destination* FU's port for ``crossbar_cycles``.
* Each of the four rings is a unidirectional token path; a transfer holds
  the ring for ``hops * ring_hop_cycles``.  Modelling the whole ring as a
  single resource is coarser than per-link occupancy but preserves what
  matters here: global traffic serialises per-ring while the four rings
  run in parallel.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.config import MachineConfig
from ..sim import Resource, Simulator

__all__ = ["Crossbar", "Ring", "Interconnect"]


class Crossbar:
    """The 5-port crossbar of one hypernode."""

    IO_PORT = "io"

    #: optional :class:`~repro.obs.memscope.MemScope` wired by the
    #: Machine; class attribute so the unprofiled path costs one check.
    memscope = None

    def __init__(self, sim: Simulator, config: MachineConfig, hypernode: int):
        self.sim = sim
        self.config = config
        self.hypernode = hypernode
        self.ports: Dict[object, Resource] = {
            fu: Resource(sim) for fu in range(config.fus_per_hypernode)
        }
        self.ports[self.IO_PORT] = Resource(sim)
        #: how long one traversal holds its port, in ns
        self.hold_ns = config.cycles(config.crossbar_cycles)

    def traverse(self, dst_fu: int):
        """Sub-operation: one traversal to functional unit ``dst_fu``."""
        port = self.ports[dst_fu]
        yield port.acquire()
        ms = self.memscope
        start = self.sim._now if ms is not None else 0.0
        try:
            yield self.hold_ns
        finally:
            port.release()
        if ms is not None:
            ms.crossbar_busy(self.hypernode, dst_fu, start, self.hold_ns)


class Ring:
    """One of the four SCI rings."""

    #: optional :class:`~repro.obs.memscope.MemScope` wired by the
    #: Machine; class attribute so the unprofiled path costs one check.
    memscope = None

    def __init__(self, sim: Simulator, config: MachineConfig, ring_id: int):
        self.sim = sim
        self.config = config
        self.ring_id = ring_id
        self._bus = Resource(sim)
        #: how long one hop holds the ring, in ns
        self.hop_ns = config.cycles(config.ring_hop_cycles)

    def transfer(self, src_hn: int, dst_hn: int, extra_ns: float = 0.0):
        """Sub-operation: move one packet from ``src_hn`` to ``dst_hn``.

        ``extra_ns`` adds a per-packet detour cost (degraded-mode
        rerouting around a failed ring charges it here so the surviving
        ring's occupancy reflects the extra load).
        """
        hops = (dst_hn - src_hn) % self.config.n_hypernodes
        # a bare delay must be a Python float; hypernode ids derived from
        # NumPy addresses are NumPy integers
        hold = float(self.hop_ns * max(hops, 1) + extra_ns)
        yield self._bus.acquire()
        ms = self.memscope
        start = self.sim._now if ms is not None else 0.0
        try:
            yield hold
        finally:
            self._bus.release()
        if ms is not None:
            ms.ring_busy(self.ring_id, start, hold, hops)


class Interconnect:
    """All crossbars and rings of the machine."""

    def __init__(self, sim: Simulator, config: MachineConfig):
        self.sim = sim
        self.config = config
        self.crossbars: List[Crossbar] = [
            Crossbar(sim, config, hn) for hn in range(config.n_hypernodes)
        ]
        self.rings: List[Ring] = [
            Ring(sim, config, r) for r in range(config.n_rings)
        ]
        #: optional :class:`~repro.faults.state.FaultState`; when set,
        #: :meth:`transfer` consults it for degraded routing.
        self.faults = None

    def crossbar(self, hypernode: int) -> Crossbar:
        return self.crossbars[hypernode]

    def ring(self, ring_id: int) -> Ring:
        return self.rings[ring_id]

    def transfer(self, ring_id: int, src_hn: int, dst_hn: int):
        """Sub-operation: one packet on ``ring_id``, rerouted if that ring
        is down.

        This is the fault-aware front door the machine model uses; with no
        fault state attached it is exactly ``self.rings[ring_id].transfer``.
        Routing happens at the call, so a partitioned network raises
        :class:`~repro.faults.state.NetworkPartitionedError` here rather
        than when the sub-operation first runs.
        """
        if self.faults is None:
            return self.rings[ring_id].transfer(src_hn, dst_hn)
        actual, extra = self.faults.route(ring_id)
        return self.rings[actual].transfer(
            src_hn, dst_hn, extra_ns=self.config.cycles(extra))
