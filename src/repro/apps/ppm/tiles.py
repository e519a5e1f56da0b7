"""Tile decomposition of the PPM grid (paper §5.4).

The grid is divided into rectangular tiles, each surrounded by a
four-deep frame of ghost points; ghosts are refreshed **once per
timestep** (the paper: "four rows of values must be exchanged between
adjacent tiles once per time step"), after which every tile advances
independently: an x-sweep over its whole padded array (which keeps the
y-ghost rows consistent) followed by a y-sweep of the interior.

``TiledPPM.step`` is bit-identical to the monolithic
:class:`~repro.apps.ppm.solver.PPMSolver2D` — the integration tests
assert exact agreement, which is the correctness argument for the
decomposition the paper's performance table relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .counts import GHOST
from .eos import GammaLawEOS
from .solver import PPMSolver2D
from .sweep import max_wavespeed, sweep

__all__ = ["Tile", "TiledPPM"]


@dataclass
class Tile:
    """One tile: interior (w x h) plus a GHOST-deep frame."""

    ix: int
    iy: int
    x0: int
    y0: int
    w: int
    h: int
    data: np.ndarray   #: (4, w + 2*GHOST, h + 2*GHOST)

    @property
    def interior(self) -> np.ndarray:
        return self.data[:, GHOST:GHOST + self.w, GHOST:GHOST + self.h]

    @property
    def ghost_cells(self) -> int:
        padded = (self.w + 2 * GHOST) * (self.h + 2 * GHOST)
        return padded - self.w * self.h


class TiledPPM:
    """Periodic 2-D PPM advanced tile by tile."""

    def __init__(self, u: np.ndarray, tiles_x: int, tiles_y: int,
                 dx: float = 1.0, dy: float = 1.0,
                 eos: GammaLawEOS = GammaLawEOS(), cfl: float = 0.4):
        if u.ndim != 3 or u.shape[0] != 4:
            raise ValueError("state must be (4, nx, ny)")
        _, nx, ny = u.shape
        if nx % tiles_x or ny % tiles_y:
            raise ValueError(
                f"{tiles_x} x {tiles_y} tiles do not evenly divide the "
                f"{nx} x {ny} grid")
        w, h = nx // tiles_x, ny // tiles_y
        if w < GHOST or h < GHOST:
            raise ValueError("tiles must be at least as wide as the "
                             "ghost frame")
        self.nx, self.ny = nx, ny
        self.tiles_x, self.tiles_y = tiles_x, tiles_y
        self.dx, self.dy = dx, dy
        self.eos = eos
        self.cfl = cfl
        self.step_count = 0
        self.exchanged_bytes = 0
        self._global = u.astype(float).copy()
        self.tiles: List[Tile] = []
        for ix in range(tiles_x):
            for iy in range(tiles_y):
                self.tiles.append(Tile(
                    ix, iy, ix * w, iy * h, w, h,
                    np.zeros((4, w + 2 * GHOST, h + 2 * GHOST))))
        self.exchange_ghosts()

    # -- ghost exchange ------------------------------------------------------
    def exchange_ghosts(self) -> None:
        """Refresh every tile's padded array from the composed grid.

        Equivalent to pairwise neighbour (and corner) exchanges on the
        periodic tile topology; the byte counter records the volume a
        message/shared-memory implementation would move.
        """
        g = self._global
        xs = np.arange(-GHOST, 0)  # template reused below
        for tile in self.tiles:
            xi = (np.arange(tile.x0 - GHOST,
                            tile.x0 + tile.w + GHOST)) % self.nx
            yi = (np.arange(tile.y0 - GHOST,
                            tile.y0 + tile.h + GHOST)) % self.ny
            tile.data[:] = g[:, xi[:, None], yi[None, :]]
            self.exchanged_bytes += tile.ghost_cells * 4 * 8

    def _commit(self) -> None:
        for tile in self.tiles:
            self._global[:, tile.x0:tile.x0 + tile.w,
                         tile.y0:tile.y0 + tile.h] = tile.interior

    # -- stepping -----------------------------------------------------------------
    def stable_dt(self) -> float:
        speed = max_wavespeed(self._global, self.eos)
        return self.cfl * min(self.dx, self.dy) / speed

    def step(self) -> float:
        """One split step: global dt, one exchange, independent tiles."""
        dt = self.stable_dt()
        self.exchange_ghosts()
        for tile in self.tiles:
            swept = sweep(tile.data, dt, self.dx, self.eos, axis=1)
            swept = sweep(swept, dt, self.dy, self.eos, axis=2)
            tile.data = swept
        self._commit()
        self.step_count += 1
        return dt

    def run(self, n_steps: int) -> List[float]:
        return [self.step() for _ in range(n_steps)]

    # -- inspection ----------------------------------------------------------------
    def gather(self) -> np.ndarray:
        """The composed global state."""
        return self._global.copy()

    def totals(self) -> Dict[str, float]:
        cell = self.dx * self.dy
        g = self._global
        return {"mass": float(g[0].sum()) * cell,
                "momentum_x": float(g[1].sum()) * cell,
                "momentum_y": float(g[2].sum()) * cell,
                "energy": float(g[3].sum()) * cell}

    def reference_solver(self) -> PPMSolver2D:
        """A monolithic solver starting from the same state."""
        return PPMSolver2D(self.gather(), self.dx, self.dy, self.eos,
                           self.cfl)
