"""Workload characterisation: phases, locality mixes, team specifications.

The applications in :mod:`repro.apps` are real numerical codes; what the
SPP-1000 decides is how *fast* they run.  Each application driver breaks
one timestep into per-thread :class:`Phase` records — floating-point
work, memory traffic split by where it is homed, working-set size,
access pattern, and messages — and the performance model
(:mod:`repro.perfmodel.model`) executes those records against the
machine configuration.  This is the standard phase-level performance
modelling substitution documented in DESIGN.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, List, Tuple

from ..core.config import MachineConfig
from ..runtime.scheduler import Placement, assign, team_geometry

__all__ = ["Access", "LocalityMix", "Msg", "Phase", "StepWork", "TeamSpec"]


class Access(enum.Enum):
    """Dominant access pattern of a phase."""

    STREAM = "stream"    #: sequential sweeps (unit-stride arrays)
    RANDOM = "random"    #: indirect addressing (gather/scatter, tree walks)


@dataclass(frozen=True)
class LocalityMix:
    """Fractions of a phase's traffic by home location (must sum to 1)."""

    private: float = 1.0   #: thread-private / node-local to the accessor
    node: float = 0.0      #: shared, homed on the accessor's hypernode
    remote: float = 0.0    #: shared, homed on another hypernode

    def __post_init__(self):
        total = self.private + self.node + self.remote
        if not 0.999 <= total <= 1.001:
            raise ValueError(f"locality fractions sum to {total}, not 1")
        if min(self.private, self.node, self.remote) < 0:
            raise ValueError("locality fractions must be non-negative")


@dataclass(frozen=True)
class Msg:
    """One message operation inside a phase."""

    nbytes: int
    remote: bool           #: peer on another hypernode?
    kind: str = "send"     #: "send" or "recv"

    def __post_init__(self):
        if self.nbytes <= 0:
            raise ValueError("message size must be positive")
        if self.kind not in ("send", "recv"):
            raise ValueError(f"unknown message kind {self.kind!r}")


@dataclass(frozen=True)
class Phase:
    """One computational phase of one thread within one timestep."""

    name: str
    flops: float = 0.0
    traffic_bytes: float = 0.0       #: bytes loaded+stored during the phase
    working_set_bytes: float = 0.0   #: distinct bytes the phase revisits
    locality: LocalityMix = LocalityMix()
    access: Access = Access.STREAM
    messages: Tuple[Msg, ...] = ()
    #: fraction of remote-homed traffic served by the hypernode's global
    #: cache buffer at local cost (read-mostly data stays GCB-resident;
    #: write-shared data is invalidated every step and gets no reuse)
    remote_reuse: float = 0.0

    def __post_init__(self):
        if self.flops < 0 or self.traffic_bytes < 0 \
                or self.working_set_bytes < 0:
            raise ValueError("phase quantities must be non-negative")
        if not 0.0 <= self.remote_reuse <= 1.0:
            raise ValueError("remote_reuse must be in [0, 1]")


@dataclass
class StepWork:
    """The work of one timestep: a phase sequence per thread + barriers.

    Threads may share one phase list object.  The model prices a shared
    list once per hypernode and hands each of its threads that price,
    the same result as pricing each thread; threads with separate but
    equal lists are priced once each.
    """

    thread_phases: List[List[Phase]]
    barriers: int = 1

    @property
    def n_threads(self) -> int:
        return len(self.thread_phases)

    @property
    def total_flops(self) -> float:
        return sum(p.flops for phases in self.thread_phases for p in phases)


@dataclass(frozen=True)
class TeamSpec:
    """A thread team mapped onto the machine.

    Its geometry is computed on first use and kept: the model asks for
    it in every phase of every thread.
    """

    config: MachineConfig
    n_threads: int
    placement: Placement = Placement.HIGH_LOCALITY

    @cached_property
    def cpus(self) -> List[int]:
        return assign(self.config, self.n_threads, self.placement)

    @cached_property
    def _threads_per_hypernode(self) -> Dict[int, int]:
        return team_geometry(self.config, self.cpus)

    @cached_property
    def hypernodes(self) -> List[int]:
        """Hypernodes in use, in order of first assignment."""
        return list(self._threads_per_hypernode)

    @property
    def n_hypernodes_used(self) -> int:
        return len(self.hypernodes)

    def threads_on_hypernode(self, hn: int) -> int:
        return self._threads_per_hypernode.get(hn, 0)

    def hypernode_of_thread(self, tid: int) -> int:
        return self.cpus[tid] // self.config.cpus_per_hypernode

    def __getstate__(self):
        # the cached geometry is derived: pickle the fields alone
        return {f.name: getattr(self, f.name) for f in fields(self)}
