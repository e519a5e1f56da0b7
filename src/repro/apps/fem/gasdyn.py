"""First-order FEM compressible gas dynamics (paper §5.2.1).

A lumped-mass, first-order-in-space-and-time Galerkin scheme for the 2-D
Euler equations on an unstructured triangular mesh, matching the paper's
prototype ("a simple first-order in space (lumped mass matrix) and time,
unstructured, 2D, FEM, gas dynamics code").

Discretisation, per timestep:

1. a global reduction finds the largest permissible timestep (CFL);
2. the *element phase* gathers vertex states, forms element-average
   fluxes and wavespeeds (spatial derivatives via linear shape-function
   gradients);
3. the *point phase* scatter-adds element contributions to the points
   ("the scatter-add problem") and applies the lumped-mass update, with
   Rusanov-type artificial dissipation for stability.

Both the Galerkin term and the dissipation are telescopically
conservative: shape gradients sum to zero on each element and the
dissipation redistributes around the element mean, so total mass,
momentum and energy are conserved exactly on a periodic mesh (up to
rounding) — which the physics tests assert.

Flop accounting uses the paper's own measured conversion factors: 437
flops per point update (220 per element update), quoted in §5.2.2 as the
basis for "useful Mflop/s".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .counts import FLOPS_PER_POINT_UPDATE
from .mesh import TriMesh

__all__ = ["FEMState", "GasDynamicsFEM", "uniform_flow", "sod_tube"]

_NVAR = 4  # rho, rho*u, rho*v, E


@dataclass
class FEMState:
    """Conserved variables at mesh points: (P, 4) = rho, mx, my, E."""

    u: np.ndarray

    def __post_init__(self):
        if self.u.ndim != 2 or self.u.shape[1] != _NVAR:
            raise ValueError("state must be (P, 4)")

    @property
    def rho(self) -> np.ndarray:
        return self.u[:, 0]

    @property
    def velocity(self) -> np.ndarray:
        return self.u[:, 1:3] / self.u[:, 0:1]

    @property
    def energy(self) -> np.ndarray:
        return self.u[:, 3]

    def pressure(self, gamma: float = 1.4) -> np.ndarray:
        kinetic = 0.5 * (self.u[:, 1] ** 2 + self.u[:, 2] ** 2) / self.u[:, 0]
        return (gamma - 1.0) * (self.u[:, 3] - kinetic)

    def copy(self) -> "FEMState":
        return FEMState(self.u.copy())


def uniform_flow(mesh: TriMesh, rho: float = 1.0, u: float = 0.0,
                 v: float = 0.0, pressure: float = 1.0,
                 gamma: float = 1.4) -> FEMState:
    """A spatially uniform state (an exact steady solution)."""
    n = mesh.n_points
    energy = pressure / (gamma - 1.0) + 0.5 * rho * (u * u + v * v)
    state = np.tile([rho, rho * u, rho * v, energy], (n, 1))
    return FEMState(state)


def sod_tube(mesh: TriMesh, gamma: float = 1.4, axis: int = 0) -> FEMState:
    """Sod's shock tube along one axis: (1, 0, 0, 1) | (0.125, 0, 0, 0.1)."""
    coords = mesh.points[:, axis]
    mid = 0.5 * (coords.min() + coords.max())
    left = coords < mid
    u = np.empty((mesh.n_points, _NVAR))
    u[left] = [1.0, 0.0, 0.0, 1.0 / (gamma - 1.0)]
    u[~left] = [0.125, 0.0, 0.0, 0.1 / (gamma - 1.0)]
    return FEMState(u)


def _flux(u: np.ndarray, gamma: float) -> Tuple[np.ndarray, np.ndarray]:
    """Euler fluxes Fx, Fy for states ``u`` of shape (..., 4)."""
    rho = u[..., 0]
    vx = u[..., 1] / rho
    vy = u[..., 2] / rho
    p = (gamma - 1.0) * (u[..., 3] - 0.5 * rho * (vx ** 2 + vy ** 2))
    fx = np.stack([u[..., 1],
                   u[..., 1] * vx + p,
                   u[..., 2] * vx,
                   (u[..., 3] + p) * vx], axis=-1)
    fy = np.stack([u[..., 2],
                   u[..., 1] * vy,
                   u[..., 2] * vy + p,
                   (u[..., 3] + p) * vy], axis=-1)
    return fx, fy


class GasDynamicsFEM:
    """The FEM gas-dynamics solver on one mesh."""

    def __init__(self, mesh: TriMesh, gamma: float = 1.4, cfl: float = 0.3,
                 dissipation: float = 1.0):
        if not 1.0 < gamma < 3.0:
            raise ValueError("gamma out of range")
        if cfl <= 0 or cfl > 1:
            raise ValueError("CFL must be in (0, 1]")
        self.mesh = mesh
        self.gamma = gamma
        self.cfl = cfl
        self.dissipation = dissipation
        self.areas = mesh.areas()
        if np.any(self.areas <= 0):
            raise ValueError("mesh has non-positive element areas")
        self.bx, self.by = mesh.shape_gradients()
        self.mass = mesh.lumped_mass()
        self.h = np.sqrt(self.areas)           # element length scale
        self.step_count = 0

    # -- CFL ---------------------------------------------------------------
    def max_wavespeed(self, state: FEMState) -> float:
        """Global maximum |v| + c (the paper's class-1 global reduction)."""
        rho = state.rho
        v = state.velocity
        p = np.maximum(state.pressure(self.gamma), 1e-12)
        c = np.sqrt(self.gamma * p / rho)
        return float((np.hypot(v[:, 0], v[:, 1]) + c).max())

    def stable_dt(self, state: FEMState) -> float:
        return self.cfl * float(self.h.min()) / self.max_wavespeed(state)

    # -- one step -----------------------------------------------------------
    def step(self, state: FEMState, dt: Optional[float] = None
             ) -> Tuple[FEMState, float]:
        """Advance one timestep; returns (new state, dt used)."""
        if dt is None:
            dt = self.stable_dt(state)
        tris = self.mesh.triangles
        u_elem = state.u[tris]                    # gather: (E, 3, 4)
        u_bar = u_elem.mean(axis=1)               # (E, 4)
        fx, fy = _flux(u_bar, self.gamma)         # (E, 4)

        rho = u_bar[:, 0]
        speed = np.hypot(u_bar[:, 1] / rho, u_bar[:, 2] / rho)
        p_bar = np.maximum(
            (self.gamma - 1.0) * (u_bar[:, 3] - 0.5 * rho * speed ** 2),
            1e-12)
        lam = speed + np.sqrt(self.gamma * p_bar / rho)   # (E,)

        # Galerkin term: m_i dU_i/dt += A_e * grad(N_i) . F_bar
        galerkin = (self.areas[:, None, None]
                    * (self.bx[:, :, None] * fx[:, None, :]
                       + self.by[:, :, None] * fy[:, None, :]))  # (E, 3, 4)
        # Rusanov dissipation about the element mean
        diss = (self.dissipation
                * (self.areas / 3.0 * lam / self.h)[:, None, None]
                * (u_bar[:, None, :] - u_elem))                  # (E, 3, 4)

        residual = np.zeros_like(state.u)
        np.add.at(residual, tris.ravel(),
                  (galerkin + diss).reshape(-1, _NVAR))          # scatter-add

        new_u = state.u + dt * residual / self.mass[:, None]
        self.step_count += 1
        return FEMState(new_u), dt

    def run(self, state: FEMState, n_steps: int
            ) -> Tuple[FEMState, List[float]]:
        """Advance ``n_steps``; returns the final state and the dt history."""
        dts = []
        for _ in range(n_steps):
            state, dt = self.step(state)
            dts.append(dt)
        return state, dts

    # -- diagnostics ---------------------------------------------------------
    def totals(self, state: FEMState) -> Dict[str, float]:
        """Mass-weighted conserved totals (exact invariants when periodic)."""
        w = self.mass[:, None]
        sums = (w * state.u).sum(axis=0)
        return {"mass": float(sums[0]), "momentum_x": float(sums[1]),
                "momentum_y": float(sums[2]), "energy": float(sums[3])}

    def flops_per_step(self) -> float:
        """The paper's conversion: 437 flops per point update."""
        return FLOPS_PER_POINT_UPDATE * self.mesh.n_points
