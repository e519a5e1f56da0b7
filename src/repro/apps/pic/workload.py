"""Performance workload of the PIC code (paper §5.1, Figure 6, Table 1).

This module characterises one PIC timestep as per-thread phases for the
performance model, for both programming styles the paper measured:

* **shared memory** — particles and mesh live in far-shared memory;
  every thread deposits/gathers against the one shared mesh, the FFT
  solve is divided among threads, and four barriers close the phases.
* **PVM** — each task owns a private full-size mesh copy and a fixed
  particle block; after the local deposit the copies are summed by a
  recursive-doubling all-reduce, and *every task redundantly solves the
  full FFT* on its private copy.  This classic replicated-mesh PVM
  structure is what produces the paper's observation that the PVM code
  achieves "almost one half the performance" of the shared-memory code.

The paper's problems store 11 words per particle and were sized so the
small problem "barely fills the cache on the 16 processor machine" —
which pins the word size at 4 bytes (294 912 x 11 x 4 B = 13 MB against
16 x 1 MB of aggregate cache).  The workload therefore uses 4-byte words
even though the numerical reference implementation computes in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...core.config import MachineConfig
from ...perfmodel import (
    Access,
    C90Model,
    C90Profile,
    LocalityMix,
    Msg,
    PerformanceModel,
    Phase,
    RunResult,
    StepWork,
    TeamSpec,
)
from ...runtime import Placement
from .counts import (
    DEPOSIT_FLOPS_PER_PARTICLE,
    GATHER_FLOPS_PER_PARTICLE,
    PUSH_FLOPS_PER_PARTICLE,
    GridShape,
    fft_flops,
)

__all__ = ["PICProblem", "PICWorkload", "small_problem", "large_problem",
           "C90_PIC_PROFILE"]

#: calibrated so the C90 reference sustains the paper's 355-369 MFLOP/s
C90_PIC_PROFILE = C90Profile(vector_fraction=0.97, avg_vector_length=64.0,
                             gather_fraction=0.45)

_WORD = 4                       #: paper's single-precision words
_PARTICLE_WORDS = 11            #: paper §5.1: 11 words per particle


@dataclass(frozen=True)
class PICProblem:
    """One of the paper's two PIC calculations."""

    grid: GridShape
    particles_per_cell: int = 9    #: 8 plasma + 1 beam electrons per cell
    n_steps: int = 500
    label: str = ""

    @property
    def n_particles(self) -> int:
        return self.grid.n_cells * self.particles_per_cell

    @property
    def particle_bytes(self) -> int:
        return self.n_particles * _PARTICLE_WORDS * _WORD

    @property
    def grid_bytes(self) -> int:
        return self.grid.n_cells * _WORD


def small_problem() -> PICProblem:
    """32 x 32 x 32 mesh, 294 912 particles (Table 1 row 1)."""
    return PICProblem(GridShape(32, 32, 32), label="32x32x32")


def large_problem() -> PICProblem:
    """64 x 64 x 32 mesh, 1 179 648 particles (Table 1 row 2)."""
    return PICProblem(GridShape(64, 64, 32), label="64x64x32")


class PICWorkload:
    """Builds StepWork records and runs them through the machine model."""

    def __init__(self, problem: PICProblem, config: MachineConfig):
        self.problem = problem
        self.config = config
        self.model = PerformanceModel(config)

    # -- shared quantities -------------------------------------------------
    def flops_per_step(self) -> float:
        n = self.problem.n_particles
        per_particle = (DEPOSIT_FLOPS_PER_PARTICLE
                        + GATHER_FLOPS_PER_PARTICLE
                        + PUSH_FLOPS_PER_PARTICLE)
        return n * per_particle + fft_flops(self.problem.grid)

    def _far_shared_mix(self, team: TeamSpec) -> LocalityMix:
        """Far-shared data: pages round-robin over the hypernodes in use."""
        hns = team.n_hypernodes_used
        remote = 1.0 - 1.0 / hns
        return LocalityMix(private=0.0, node=1.0 - remote, remote=remote)

    # -- shared-memory version ------------------------------------------------
    def shared_step(self, team: TeamSpec) -> StepWork:
        prob = self.problem
        n = team.n_threads
        chunk = prob.n_particles / n
        mix = self._far_shared_mix(team)
        chunk_bytes = chunk * _PARTICLE_WORDS * _WORD
        grid_b = prob.grid_bytes

        phases = [
            # 1. deposit: stream the particle block, scatter to the mesh.
            # A thread's particle block is only ever touched by its owner,
            # so its remote-homed pages stay resident in the hypernode's
            # global cache buffer between steps.
            Phase("deposit/particles", flops=chunk * 24,
                  traffic_bytes=chunk * 6 * _WORD,
                  working_set_bytes=chunk_bytes,
                  locality=mix, access=Access.STREAM, remote_reuse=0.9),
            # The charge mesh is write-shared by every thread each step:
            # no reuse survives the invalidations.
            Phase("deposit/scatter",
                  flops=chunk * (DEPOSIT_FLOPS_PER_PARTICLE - 24),
                  traffic_bytes=chunk * 27 * 2 * _WORD,
                  working_set_bytes=grid_b,
                  locality=mix, access=Access.RANDOM, remote_reuse=0.0),
            # 2. field solve: FFT work divided among the threads;
            # transposes rewrite the mesh, limited reuse.
            Phase("solve/fft", flops=fft_flops(prob.grid) / n,
                  traffic_bytes=10.0 * grid_b / n,
                  working_set_bytes=4.0 * grid_b,
                  locality=mix, access=Access.STREAM, remote_reuse=0.3),
            # 3. gather: the field arrays are written once by the solve
            # and then read-only; after a hypernode's first touch they are
            # GCB-resident.
            Phase("gather", flops=chunk * GATHER_FLOPS_PER_PARTICLE,
                  traffic_bytes=chunk * (27 * 3 + 6) * _WORD,
                  working_set_bytes=3.0 * grid_b + chunk_bytes,
                  locality=mix, access=Access.RANDOM, remote_reuse=0.8),
            # 4. push: owner-only particle data again
            Phase("push", flops=chunk * PUSH_FLOPS_PER_PARTICLE,
                  traffic_bytes=chunk * 12 * _WORD,
                  working_set_bytes=chunk_bytes,
                  locality=mix, access=Access.STREAM, remote_reuse=0.9),
        ]
        # every thread runs the one phase list: the model prices it once
        # per hypernode
        return StepWork([phases] * n, barriers=4)

    # -- PVM version ---------------------------------------------------------
    def pvm_step(self, team: TeamSpec) -> StepWork:
        prob = self.problem
        n = team.n_threads
        chunk = prob.n_particles / n
        private = LocalityMix(private=1.0)
        chunk_bytes = chunk * _PARTICLE_WORDS * _WORD
        grid_b = prob.grid_bytes

        stages = max(0, math.ceil(math.log2(n))) if n > 1 else 0
        msgs = []
        if stages:
            # recursive doubling: at most one stage crosses hypernodes
            remote_stages = 1 if team.n_hypernodes_used > 1 else 0
            for s in range(stages):
                remote = s < remote_stages
                msgs.append(Msg(grid_b, remote=remote, kind="send"))
                msgs.append(Msg(grid_b, remote=remote, kind="recv"))
        phases = [
            Phase("deposit/particles", flops=chunk * 24,
                  traffic_bytes=chunk * 6 * _WORD,
                  working_set_bytes=chunk_bytes,
                  locality=private, access=Access.STREAM),
            Phase("deposit/scatter",
                  flops=chunk * (DEPOSIT_FLOPS_PER_PARTICLE - 24),
                  traffic_bytes=chunk * 27 * 2 * _WORD,
                  working_set_bytes=grid_b,
                  locality=private, access=Access.RANDOM),
            # all-reduce of the replicated charge mesh
            Phase("allreduce/rho",
                  flops=prob.grid.n_cells * stages,
                  traffic_bytes=2.0 * grid_b * max(stages, 1),
                  working_set_bytes=grid_b,
                  locality=private, access=Access.STREAM,
                  messages=tuple(msgs)),
            # REDUNDANT full-mesh solve on every task
            Phase("solve/fft-redundant", flops=fft_flops(prob.grid),
                  traffic_bytes=10.0 * grid_b,
                  working_set_bytes=4.0 * grid_b,
                  locality=private, access=Access.STREAM),
            Phase("gather", flops=chunk * GATHER_FLOPS_PER_PARTICLE,
                  traffic_bytes=chunk * (27 * 3 + 6) * _WORD,
                  working_set_bytes=3.0 * grid_b + chunk_bytes,
                  locality=private, access=Access.RANDOM),
            Phase("push", flops=chunk * PUSH_FLOPS_PER_PARTICLE,
                  traffic_bytes=chunk * 12 * _WORD,
                  working_set_bytes=chunk_bytes,
                  locality=private, access=Access.STREAM),
        ]
        # every task sends the same messages, so all run one phase list;
        # PVM tasks synchronise through the all-reduce, not barriers
        return StepWork([phases] * n, barriers=0)

    # -- runs -------------------------------------------------------------------
    def run_shared(self, n_threads: int,
                   placement: Placement = Placement.HIGH_LOCALITY
                   ) -> RunResult:
        team = TeamSpec(self.config, n_threads, placement)
        step = self.shared_step(team)
        return self.model.run([step], team, repeat=self.problem.n_steps,
                              step_flops=step.total_flops)

    def run_pvm(self, n_tasks: int,
                placement: Placement = Placement.HIGH_LOCALITY) -> RunResult:
        team = TeamSpec(self.config, n_tasks, placement)
        # MFLOP/s bookkeeping: the redundant solves do not count as
        # useful work; report useful flops only.
        return self.model.run([self.pvm_step(team)], team,
                              repeat=self.problem.n_steps,
                              step_flops=self.flops_per_step())

    def run_c90(self, model: C90Model = C90Model()) -> float:
        """C90 single-head time for the full calculation, in ns."""
        return model.time_ns(
            self.flops_per_step() * self.problem.n_steps, C90_PIC_PROFILE)
