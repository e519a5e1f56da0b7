"""Performance workload of the FEM code (paper §5.2.2, Figure 7).

One timestep of the solver decomposes into a CFL reduction, the element
phase (gather), the point phase (scatter-add) and the nodal update, with
barriers between them.  Points and elements are Morton-ordered (paper
§5.2.1), so the gathers and scatters traverse memory with strong
spatial locality — they are characterised as streaming passes whose
working sets decide the cache behaviour, not as uniformly random access.

The paper runs two codings of the same numerics on the small mesh
("small1"/"small2"): we model the second, vector-style coding as the
same useful flops with a larger traffic/temporary footprint, matching
its lower measured rate (31 vs 18 MFLOP/s serial, §5.2.2).

MFLOP/s uses the paper's own conversion factor of 437 useful flops per
point update.

The model reads only a mesh's point and element counts, so a problem
carries those counts, taken in closed form from the paper's quad grids
(:data:`~.mesh.SMALL_GRID`, :data:`~.mesh.LARGE_GRID`), never a mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.config import MachineConfig
from ...perfmodel import (
    Access,
    C90Model,
    C90Profile,
    LocalityMix,
    PerformanceModel,
    Phase,
    RunResult,
    StepWork,
    TeamSpec,
)
from ...runtime import Placement
from .gasdyn import FLOPS_PER_ELEMENT_UPDATE, FLOPS_PER_POINT_UPDATE
from .mesh import LARGE_GRID, SMALL_GRID
from .mesh import large_mesh, small_mesh  # noqa: F401 -- benchmarks/e2e counts builds here

__all__ = ["FEMProblem", "FEMWorkload", "small1_problem", "small2_problem",
           "large_problem", "C90_FEM_PROFILE"]

#: calibrated to the paper's 250 MFLOP/s C90 head for this algorithm
C90_FEM_PROFILE = C90Profile(vector_fraction=0.95, avg_vector_length=40.0,
                             gather_fraction=0.85)

_WORD = 8                    #: double-precision Fortran reals
_POINT_WORDS = 11            #: state(4) + residual(4) + coords(2) + mass(1)
_ELEM_WORDS = 11             #: vertices(3) + area + gradients(6) + h


@dataclass(frozen=True)
class FEMProblem:
    """One Figure 7 curve: a mesh size and a coding of the numerics."""

    n_points: int
    n_elements: int
    label: str
    traffic_factor: float = 1.0   #: the vector-style coding materialises
                                  #  extra temporaries
    n_steps: int = 100

    @property
    def point_bytes(self) -> float:
        return self.n_points * _POINT_WORDS * _WORD

    @property
    def element_bytes(self) -> float:
        return self.n_elements * _ELEM_WORDS * _WORD

    @property
    def footprint_bytes(self) -> float:
        return self.point_bytes + self.element_bytes


def _counts(grid) -> tuple:
    """``(n_points, n_elements)`` of ``rectangle_mesh(*grid)``."""
    nx, ny = grid
    return (nx + 1) * (ny + 1), 2 * nx * ny


def small1_problem() -> FEMProblem:
    """Small mesh, tight coding (Fig 7 curve 'small1')."""
    return FEMProblem(*_counts(SMALL_GRID), "small1")


def small2_problem() -> FEMProblem:
    """Small mesh, vector-style coding (Fig 7 curve 'small2')."""
    return FEMProblem(*_counts(SMALL_GRID), "small2", traffic_factor=1.8)


def large_problem() -> FEMProblem:
    """Large mesh (Fig 7 curve 'large')."""
    return FEMProblem(*_counts(LARGE_GRID), "large")


class FEMWorkload:
    """Builds StepWork records and runs them through the machine model.

    ``data_placement`` selects the §3.2 memory class backing the mesh
    data — the knob §6 laments was not yet operational:

    * ``"far_shared"`` (default, what the paper ran): pages round-robin
      over the hypernodes in use;
    * ``"near_shared"``: the whole mesh hosted by hypernode 0 — threads
      on other hypernodes find *all* their shared data remote;
    * ``"block_shared"``: blocks aligned with the partitioning — only
      partition-boundary traffic crosses hypernodes.
    """

    PLACEMENTS = ("far_shared", "near_shared", "block_shared")

    def __init__(self, problem: FEMProblem, config: MachineConfig,
                 data_placement: str = "far_shared"):
        if data_placement not in self.PLACEMENTS:
            raise ValueError(f"unknown data placement {data_placement!r}")
        self.problem = problem
        self.config = config
        self.data_placement = data_placement
        self.model = PerformanceModel(config)

    def flops_per_step(self) -> float:
        """Useful flops: the paper's 437 per point update."""
        return FLOPS_PER_POINT_UPDATE * self.problem.n_points

    def _mix(self, team: TeamSpec, hn: int) -> LocalityMix:
        """The mix of the threads on hypernode ``hn``."""
        hns = team.n_hypernodes_used
        if hns == 1:
            return LocalityMix(private=0.0, node=1.0, remote=0.0)
        if self.data_placement == "near_shared":
            remote = 0.0 if hn == team.hypernodes[0] else 1.0
        elif self.data_placement == "block_shared":
            remote = 0.05    # partition-boundary traffic only
        else:
            remote = 1.0 - 1.0 / hns
        return LocalityMix(private=0.0, node=1.0 - remote, remote=remote)

    def step(self, team: TeamSpec) -> StepWork:
        prob = self.problem
        n = team.n_threads
        tf = prob.traffic_factor
        chunk_p = prob.n_points / n
        chunk_e = prob.n_elements / n
        # per-thread working set: its slice of points and elements
        ws_thread = prob.footprint_bytes / n

        elem_flops = FLOPS_PER_ELEMENT_UPDATE * 150.0 / 220.0
        scatter_flops = FLOPS_PER_ELEMENT_UPDATE - elem_flops

        def phases_for(mix):
            return [
            # global max for the permissible timestep (class-1 reduction)
            Phase("cfl/reduce", flops=chunk_p * 5,
                  traffic_bytes=chunk_p * 3 * _WORD,
                  working_set_bytes=chunk_p * 4 * _WORD,
                  locality=mix, access=Access.STREAM, remote_reuse=0.8),
            # element phase: gather vertex states, evaluate fluxes.
            # Morton ordering makes the indirect reads spatially local.
            Phase("element/gather", flops=chunk_e * elem_flops,
                  traffic_bytes=chunk_e * 18 * _WORD * tf,
                  working_set_bytes=ws_thread,
                  locality=mix, access=Access.STREAM, remote_reuse=0.7),
            # point phase: scatter-add of element contributions; the
            # residual array is write-shared at partition boundaries, so
            # remote reuse is weaker.
            Phase("point/scatter", flops=chunk_e * scatter_flops,
                  traffic_bytes=chunk_e * 24 * _WORD * tf,
                  working_set_bytes=ws_thread,
                  locality=mix, access=Access.STREAM, remote_reuse=0.35),
            # nodal update
            Phase("point/update", flops=chunk_p * 12,
                  traffic_bytes=chunk_p * 10 * _WORD,
                  working_set_bytes=chunk_p * _POINT_WORDS * _WORD,
                  locality=mix, access=Access.STREAM, remote_reuse=0.9),
            ]

        # one phase list per distinct mix, shared by every thread that
        # reads with it: the model prices each once per hypernode
        by_mix = {}
        by_hn = {}
        for hn in team.hypernodes:
            mix = self._mix(team, hn)
            if mix not in by_mix:
                by_mix[mix] = phases_for(mix)
            by_hn[hn] = by_mix[mix]
        return StepWork([by_hn[team.hypernode_of_thread(tid)]
                         for tid in range(n)], barriers=3)

    def run(self, n_threads: int,
            placement: Placement = Placement.HIGH_LOCALITY) -> RunResult:
        team = TeamSpec(self.config, n_threads, placement)
        result = self.model.run([self.step(team)], team,
                                repeat=self.problem.n_steps)
        useful = self.flops_per_step() * self.problem.n_steps
        return RunResult(result.time_ns, useful, n_threads)

    def run_c90(self, model: C90Model = C90Model()) -> float:
        """One C90 head, in ns (paper: 250 MFLOP/s for this algorithm)."""
        return model.time_ns(self.flops_per_step() * self.problem.n_steps,
                             C90_FEM_PROFILE)
