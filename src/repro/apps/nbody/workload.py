"""Performance workload of the tree code (paper §5.3.2, Figure 8).

The shared-memory version mirrors the paper's port: particle work is
divided evenly among threads, intermediate variables are thread private,
and all indirect accesses during the tree search go to tree data "stored
in global shared memory" — fine-grained reads in the innermost loop.
Because the tree is read-only during the force phase, remote lines stay
resident in each hypernode's global cache buffer, which is why the paper
measures only a 2-7% degradation across two hypernodes.

The PVM version follows the paper's observation: its purely private data
gives it the fastest single-processor rate, but exchanging particle data
through messages ("the overheads of packing and sending messages ...
are prohibitive") erodes parallel performance below the shared-memory
version.

Problem sizes are the paper's 32K / 256K / 2M particles; the
single-processor yardstick is 27.5 MFLOP/s and the vectorised C90 tree
code reference is 120 MFLOP/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

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
from .counts import FLOPS_PER_INTERACTION

__all__ = ["NBodyProblem", "NBodyWorkload", "problem_32k", "problem_256k",
           "problem_2m", "C90_TREE_PROFILE"]

#: calibrated to the paper's 120 MFLOP/s vectorised tree code [14]
C90_TREE_PROFILE = C90Profile(vector_fraction=0.88, avg_vector_length=24.0,
                              gather_fraction=0.9)

_WORD = 8
_BODY_WORDS = 7          #: position(3) + velocity(3) + mass
_NODE_BYTES = 80.0       #: com, mass, centre, size, children pointer block
_NODES_PER_BODY = 0.125  #: ~N/8 nodes at leaf size 16
_BUILD_FLOPS_PER_BODY = 40.0
_KICK_FLOPS_PER_BODY = 12.0


@dataclass(frozen=True)
class NBodyProblem:
    """One Figure 8 problem size."""

    n_bodies: int
    label: str
    n_steps: int = 10

    @property
    def body_bytes(self) -> float:
        return self.n_bodies * _BODY_WORDS * _WORD

    @property
    def tree_bytes(self) -> float:
        return self.n_bodies * _NODES_PER_BODY * _NODE_BYTES

    def interactions_per_body(self) -> float:
        """Monopole+direct interactions per body per step (theta ~ 0.6)."""
        return 45.0 * math.log2(self.n_bodies)

    def force_flops(self) -> float:
        return (self.n_bodies * self.interactions_per_body()
                * FLOPS_PER_INTERACTION)


def problem_32k() -> NBodyProblem:
    return NBodyProblem(32 * 1024, "32K")


def problem_256k() -> NBodyProblem:
    return NBodyProblem(256 * 1024, "256K")


def problem_2m() -> NBodyProblem:
    return NBodyProblem(2 * 1024 * 1024, "2M")


class NBodyWorkload:
    """Builds StepWork records and runs them through the machine model."""

    def __init__(self, problem: NBodyProblem, config: MachineConfig):
        self.problem = problem
        self.config = config
        self.model = PerformanceModel(config)

    def flops_per_step(self) -> float:
        n = self.problem.n_bodies
        return (self.problem.force_flops()
                + n * (_BUILD_FLOPS_PER_BODY + _KICK_FLOPS_PER_BODY))

    def _mix(self, team: TeamSpec) -> LocalityMix:
        hns = team.n_hypernodes_used
        remote = 1.0 - 1.0 / hns
        return LocalityMix(private=0.0, node=1.0 - remote, remote=remote)

    # -- shared-memory version -------------------------------------------------
    def shared_step(self, team: TeamSpec) -> StepWork:
        prob = self.problem
        n = team.n_threads
        chunk = prob.n_bodies / n
        mix = self._mix(team)
        ipb = prob.interactions_per_body()
        # Static particle decomposition leaves statistical load imbalance
        # in the per-thread interaction counts; the slowest thread carries
        # ~1 + c/sqrt(chunk) of the mean (shrinks with task granularity —
        # the paper's "task granularity changes linearly with the problem
        # size" observation).
        imbalance = 1.0 + 3.0 / math.sqrt(chunk) if n > 1 else 1.0

        def phases_for(heavy: float):
            return [
                # tree build: Morton sort + insertion; the tree arrays
                # are write-shared while building, so no remote reuse
                Phase("tree/build", flops=chunk * _BUILD_FLOPS_PER_BODY,
                      traffic_bytes=chunk * (_BODY_WORDS * _WORD
                                             + _NODES_PER_BODY
                                             * _NODE_BYTES) * 2,
                      working_set_bytes=prob.tree_bytes
                      + chunk * _BODY_WORDS * _WORD,
                      locality=mix, access=Access.RANDOM, remote_reuse=0.0),
                # force walk: indirect reads of read-only tree data in
                # the innermost loop; the walk revisits the tree (its
                # true working set) while particles merely stream by;
                # GCB keeps remote tree lines resident.
                Phase("force/walk",
                      flops=chunk * heavy * ipb * FLOPS_PER_INTERACTION,
                      traffic_bytes=chunk * heavy * ipb * 4 * _WORD,
                      working_set_bytes=prob.tree_bytes,
                      locality=mix, access=Access.RANDOM, remote_reuse=0.95),
                # leapfrog update of the thread's own particles
                Phase("kick-drift", flops=chunk * _KICK_FLOPS_PER_BODY,
                      traffic_bytes=chunk * _BODY_WORDS * _WORD * 2,
                      working_set_bytes=chunk * _BODY_WORDS * _WORD,
                      locality=mix, access=Access.STREAM, remote_reuse=0.9),
            ]

        # thread 0 carries the imbalance; the rest share one phase list,
        # which the model prices once per hypernode
        rest = [phases_for(1.0)] * (n - 1)
        return StepWork([phases_for(imbalance)] + rest, barriers=3)

    # -- PVM version ---------------------------------------------------------------
    def pvm_step(self, team: TeamSpec) -> StepWork:
        prob = self.problem
        n = team.n_threads
        chunk = prob.n_bodies / n
        private = LocalityMix(private=1.0)
        ipb = prob.interactions_per_body()
        chunk_bytes = chunk * _BODY_WORDS * _WORD

        thread_phases: List[List[Phase]] = []
        for tid in range(n):
            msgs = []
            if n > 1:
                # allgather of particle data: every task packs its block
                # for every other task (the "prohibitive" overhead)
                for other in range(n):
                    if other == tid:
                        continue
                    remote = (team.hypernode_of_thread(other)
                              != team.hypernode_of_thread(tid))
                    msgs.append(Msg(int(chunk_bytes), remote, "send"))
                    msgs.append(Msg(int(chunk_bytes), remote, "recv"))
            phases = []
            if n > 1:
                phases.append(
                    Phase("exchange", flops=0.0,
                          traffic_bytes=2.0 * prob.body_bytes,
                          working_set_bytes=prob.body_bytes,
                          locality=private, access=Access.STREAM,
                          messages=tuple(msgs)))
            phases += [
                Phase("tree/build-local", flops=prob.n_bodies
                      * _BUILD_FLOPS_PER_BODY,   # full tree, every task
                      traffic_bytes=prob.n_bodies
                      * (_BODY_WORDS * _WORD
                         + _NODES_PER_BODY * _NODE_BYTES) * 2,
                      working_set_bytes=prob.tree_bytes + prob.body_bytes,
                      locality=private, access=Access.RANDOM),
                Phase("force/walk", flops=chunk * ipb * FLOPS_PER_INTERACTION,
                      traffic_bytes=chunk * ipb * 4 * _WORD,
                      working_set_bytes=prob.tree_bytes,
                      locality=private, access=Access.RANDOM),
                Phase("kick-drift", flops=chunk * _KICK_FLOPS_PER_BODY,
                      traffic_bytes=chunk_bytes * 2,
                      working_set_bytes=chunk_bytes,
                      locality=private, access=Access.STREAM),
            ]
            thread_phases.append(phases)
        return StepWork(thread_phases, barriers=0)

    # -- runs --------------------------------------------------------------------------
    def run_shared(self, n_threads: int,
                   placement: Placement = Placement.HIGH_LOCALITY
                   ) -> RunResult:
        team = TeamSpec(self.config, n_threads, placement)
        return self.model.run([self.shared_step(team)], team,
                              repeat=self.problem.n_steps,
                              step_flops=self.flops_per_step())

    def run_pvm(self, n_tasks: int,
                placement: Placement = Placement.HIGH_LOCALITY) -> RunResult:
        team = TeamSpec(self.config, n_tasks, placement)
        return self.model.run([self.pvm_step(team)], team,
                              repeat=self.problem.n_steps,
                              step_flops=self.flops_per_step())

    def run_c90(self, model: C90Model = C90Model()) -> float:
        return model.time_ns(self.flops_per_step() * self.problem.n_steps,
                             C90_TREE_PROFILE)
