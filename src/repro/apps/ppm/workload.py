"""Performance workload of the PPM code (paper §5.4, Table 2).

Each processor advances its share of tiles each step.  Per tile the
sweeps do the useful zone updates plus the frame work the stencil forces
(reconstruction reaches two cells into the frame per side, the face flux
one more: an effective ~2.2 extra columns/rows per side and sweep) and a
fixed per-tile sweep setup (temporaries, boundary copies) — together
these reproduce Table 2's lower rates for the 12 x 48 decomposition.
Ghost exchange moves a four-deep frame between adjacent tiles once per
step; with tiles processed one at a time, the working set is a tile, not
the grid, which is why PPM's rate is nearly independent of problem size
(Table 2's 240 x 960 row).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.config import MachineConfig
from ...perfmodel import (
    Access,
    LocalityMix,
    PerformanceModel,
    Phase,
    RunResult,
    StepWork,
    TeamSpec,
)
from ...runtime import Placement
from .sweep import FLOPS_PER_ZONE_PER_STEP, GHOST

__all__ = ["PPMProblem", "PPMWorkload", "TABLE2_PROBLEMS"]

_WORD = 8
_ZONE_WORDS = 16        #: state + temporaries per zone
#: per-tile, per-step sweep setup cost (loop startup, boundary copies,
#: temporary management), in flop-equivalents — calibrated against the
#: Table 2 gap between the 4x16 and 12x48 decompositions
TILE_OVERHEAD_FLOPS = 25_000.0
#: extra reconstruction/flux columns per side and sweep
FRAME_EXTRA = 2.2


@dataclass(frozen=True)
class PPMProblem:
    """One Table 2 configuration: grid and tile decomposition."""

    nx: int
    ny: int
    tiles_x: int
    tiles_y: int
    n_steps: int = 100

    def __post_init__(self):
        if self.nx % self.tiles_x or self.ny % self.tiles_y:
            raise ValueError("tiles must evenly divide the grid")

    @property
    def label(self) -> str:
        return (f"{self.nx}x{self.ny} grid, "
                f"{self.tiles_x}x{self.tiles_y} tiles")

    @property
    def n_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def tile_shape(self):
        return self.nx // self.tiles_x, self.ny // self.tiles_y

    @property
    def n_zones(self) -> int:
        return self.nx * self.ny

    def ghost_factor(self) -> float:
        """Work multiplier from frame computation (mean of both sweeps).

        Per sweep the stencil computes ~FRAME_EXTRA effective extra
        columns/rows (reconstruction 2 cells per side weighted by its
        share of the zone cost, plus the extra face flux).
        """
        w, h = self.tile_shape
        return 0.5 * ((1.0 + FRAME_EXTRA / w) + (1.0 + FRAME_EXTRA / h))

    def exchange_bytes_per_tile(self) -> float:
        w, h = self.tile_shape
        ghost_cells = (w + 2 * GHOST) * (h + 2 * GHOST) - w * h
        return ghost_cells * 4 * _WORD


#: the exact rows of Table 2 (processor counts handled by the runner)
TABLE2_PROBLEMS = {
    "120x480 / 4x16": PPMProblem(120, 480, 4, 16),
    "120x480 / 12x48": PPMProblem(120, 480, 12, 48),
    "240x960 / 4x16": PPMProblem(240, 960, 4, 16),
}


class PPMWorkload:
    """Builds StepWork records and runs them through the machine model."""

    def __init__(self, problem: PPMProblem, config: MachineConfig):
        self.problem = problem
        self.config = config
        self.model = PerformanceModel(config)

    def flops_per_step(self) -> float:
        """Useful flops (zone updates only, as Table 2 counts them)."""
        return FLOPS_PER_ZONE_PER_STEP * self.problem.n_zones

    def _mix(self, team: TeamSpec) -> LocalityMix:
        hns = team.n_hypernodes_used
        remote = 1.0 - 1.0 / hns
        return LocalityMix(private=0.0, node=1.0 - remote, remote=remote)

    def step(self, team: TeamSpec) -> StepWork:
        prob = self.problem
        n = team.n_threads
        if prob.n_tiles % n:
            raise ValueError(
                f"{prob.n_tiles} tiles do not divide over {n} processors")
        tiles_per_thread = prob.n_tiles // n
        zones_per_thread = prob.n_zones / n
        mix = self._mix(team)
        w, h = prob.tile_shape
        tile_bytes = (w + 2 * GHOST) * (h + 2 * GHOST) * _ZONE_WORDS * _WORD

        work_flops = (zones_per_thread * FLOPS_PER_ZONE_PER_STEP
                      * prob.ghost_factor()
                      + tiles_per_thread * TILE_OVERHEAD_FLOPS)
        phases = [
            # ghost exchange: the frame data of every owned tile; the
            # frames were written by neighbouring tiles last step, so no
            # cross-step reuse survives
            Phase("ghost/exchange", flops=0.0,
                  traffic_bytes=2.0 * tiles_per_thread
                  * prob.exchange_bytes_per_tile(),
                  working_set_bytes=tile_bytes,
                  locality=mix, access=Access.STREAM, remote_reuse=0.0),
            # the sweeps, one tile at a time: working set = one tile
            Phase("sweeps", flops=work_flops,
                  traffic_bytes=zones_per_thread * prob.ghost_factor()
                  * 5 * _ZONE_WORDS * _WORD,
                  working_set_bytes=tile_bytes,
                  locality=mix, access=Access.STREAM, remote_reuse=0.8),
            # CFL reduction over owned zones
            Phase("cfl", flops=zones_per_thread * 6,
                  traffic_bytes=zones_per_thread * 4 * _WORD,
                  working_set_bytes=tile_bytes,
                  locality=mix, access=Access.STREAM, remote_reuse=0.8),
        ]
        # every thread runs the one phase list: the model prices it once
        # per hypernode
        return StepWork([phases] * n, barriers=2)

    def run(self, n_threads: int,
            placement: Placement = Placement.HIGH_LOCALITY) -> RunResult:
        team = TeamSpec(self.config, n_threads, placement)
        result = self.model.run([self.step(team)], team,
                                repeat=self.problem.n_steps)
        useful = self.flops_per_step() * self.problem.n_steps
        return RunResult(result.time_ns, useful, n_threads)
