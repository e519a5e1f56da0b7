"""Monolithic (single-array) 2-D PPM driver with periodic boundaries.

The reference solver the tiled decomposition is validated against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .counts import GHOST
from .eos import GammaLawEOS
from .sweep import max_wavespeed, primitives, sweep

__all__ = ["PPMSolver2D", "sod_state", "uniform_state", "blast_state"]


def uniform_state(nx: int, ny: int, rho: float = 1.0, ux: float = 0.0,
                  uy: float = 0.0, p: float = 1.0,
                  gamma: float = 1.4) -> np.ndarray:
    """Uniform conserved state of shape (4, nx, ny)."""
    e = p / (gamma - 1.0) + 0.5 * rho * (ux * ux + uy * uy)
    u = np.empty((4, nx, ny))
    u[0] = rho
    u[1] = rho * ux
    u[2] = rho * uy
    u[3] = e
    return u


def sod_state(nx: int, ny: int, gamma: float = 1.4,
              axis: int = 0) -> np.ndarray:
    """Sod shock tube along one axis."""
    u = uniform_state(nx, ny, gamma=gamma)
    n = nx if axis == 0 else ny
    index = np.arange(n) >= n // 2
    low = np.array([0.125, 0.0, 0.0, 0.1 / (gamma - 1.0)])
    if axis == 0:
        u[:, index, :] = low[:, None, None]
    else:
        u[:, :, index] = low[:, None, None]
    return u


def blast_state(nx: int, ny: int, gamma: float = 1.4,
                pressure_jump: float = 100.0, radius: float = 0.1
                ) -> np.ndarray:
    """A central over-pressurised disc (Sedov-like blast)."""
    u = uniform_state(nx, ny, p=1.0, gamma=gamma)
    x = (np.arange(nx) + 0.5) / nx - 0.5
    y = (np.arange(ny) + 0.5) / ny - 0.5
    r2 = x[:, None] ** 2 + y[None, :] ** 2
    inside = r2 < radius ** 2
    u[3][inside] = pressure_jump / (gamma - 1.0)
    return u


class PPMSolver2D:
    """Dimensionally split PPM on a periodic rectangular grid."""

    def __init__(self, u: np.ndarray, dx: float = 1.0, dy: float = 1.0,
                 eos: GammaLawEOS = GammaLawEOS(), cfl: float = 0.4):
        if u.ndim != 3 or u.shape[0] != 4:
            raise ValueError("state must be (4, nx, ny)")
        if not 0 < cfl <= 1:
            raise ValueError("CFL must be in (0, 1]")
        self.u = u.astype(float).copy()
        self.dx = dx
        self.dy = dy
        self.eos = eos
        self.cfl = cfl
        self.step_count = 0

    @property
    def shape(self) -> Tuple[int, int]:
        return self.u.shape[1], self.u.shape[2]

    def stable_dt(self) -> float:
        speed = max_wavespeed(self.u, self.eos)
        return self.cfl * min(self.dx, self.dy) / speed

    def _padded_sweep(self, u: np.ndarray, dt: float, axis: int
                      ) -> np.ndarray:
        """Sweep with periodic wrap padding of GHOST cells."""
        pad = [(0, 0), (0, 0), (0, 0)]
        pad[axis] = (GHOST, GHOST)
        up = np.pad(u, pad, mode="wrap")
        spacing = self.dx if axis == 1 else self.dy
        swept = sweep(up, dt, spacing, self.eos, axis=axis)
        slicer = [slice(None)] * 3
        slicer[axis] = slice(GHOST, -GHOST)
        return swept[tuple(slicer)]

    def step(self) -> float:
        """One x-then-y split timestep; returns the dt used."""
        dt = self.stable_dt()
        self.u = self._padded_sweep(self.u, dt, axis=1)
        self.u = self._padded_sweep(self.u, dt, axis=2)
        self.step_count += 1
        return dt

    def run(self, n_steps: int) -> List[float]:
        return [self.step() for _ in range(n_steps)]

    def totals(self) -> Dict[str, float]:
        """Conserved totals (exact invariants on the periodic domain)."""
        cell = self.dx * self.dy
        return {
            "mass": float(self.u[0].sum()) * cell,
            "momentum_x": float(self.u[1].sum()) * cell,
            "momentum_y": float(self.u[2].sum()) * cell,
            "energy": float(self.u[3].sum()) * cell,
        }

    def primitive_fields(self):
        """(rho, ux, uy, p) for diagnostics/tests."""
        return primitives(self.u, self.eos)
