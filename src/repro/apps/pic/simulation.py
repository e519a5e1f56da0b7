"""The complete PIC timestep loop (paper §5.1.1, Figure 5).

Each step performs the four phases of the flow chart:

1. deposit the particle charge on the mesh (scatter-add),
2. solve for phi and E on the mesh (FFT Poisson),
3. interpolate E to the particles (gather) and compute forces,
4. push the particles (second-order leap-frog).

The loop also keeps the flop ledger used by the performance workload and
the diagnostics used by the physics tests (charge conservation, momentum
conservation, field energy for the beam instability).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .counts import (
    DEPOSIT_FLOPS_PER_PARTICLE,
    GATHER_FLOPS_PER_PARTICLE,
    PUSH_FLOPS_PER_PARTICLE,
    fft_flops,
)
from .grid import Grid3D
from .interpolation import deposit_charge, gather_field
from .particles import ParticleSet
from .poisson import solve_fields

__all__ = ["PICSimulation"]


class PICSimulation:
    """Driver for the 3-D electrostatic PIC model."""

    def __init__(self, grid: Grid3D, particles: ParticleSet, dt: float = 0.2):
        if dt <= 0:
            raise ValueError("timestep must be positive")
        self.grid = grid
        self.particles = particles
        self.dt = dt
        self.step_count = 0
        self.rho: Optional[np.ndarray] = None
        self.fields: Optional[List[np.ndarray]] = None
        self.history: List[Dict[str, float]] = []

    # -- flop accounting -----------------------------------------------------
    def flops_per_step(self) -> float:
        """Total floating-point operations of one timestep."""
        n = self.particles.n
        per_particle = (DEPOSIT_FLOPS_PER_PARTICLE
                        + GATHER_FLOPS_PER_PARTICLE
                        + PUSH_FLOPS_PER_PARTICLE)
        return n * per_particle + fft_flops(self.grid)

    # -- one timestep ---------------------------------------------------------
    def step(self) -> Dict[str, float]:
        """Advance the system by ``dt``; returns step diagnostics."""
        p = self.particles
        # 1. charge deposit (scatter-add)
        self.rho = deposit_charge(p.positions, p.charge, self.grid)
        # 2. field solve
        phi, self.fields = solve_fields(self.rho, self.grid)
        # 3. gather E to particles, F = qE
        e_at_particles = gather_field(self.fields, p.positions, self.grid)
        # 4. leap-frog push
        p.velocities += (p.charge / p.mass) * e_at_particles * self.dt
        p.positions = self.grid.wrap(p.positions + p.velocities * self.dt)
        self.step_count += 1
        diag = self.diagnostics(phi)
        self.history.append(diag)
        return diag

    def run(self, n_steps: int) -> List[Dict[str, float]]:
        """Advance ``n_steps`` timesteps; returns the diagnostic history."""
        for _ in range(n_steps):
            self.step()
        return self.history

    # -- diagnostics -------------------------------------------------------------
    def diagnostics(self, phi: Optional[np.ndarray] = None) -> Dict[str, float]:
        total_charge = float(self.rho.sum()) if self.rho is not None else 0.0
        field_energy = 0.0
        if self.fields is not None:
            field_energy = 0.5 * float(
                sum(np.sum(f ** 2) for f in self.fields))
        return {
            "step": float(self.step_count),
            "total_charge": total_charge,
            "kinetic_energy": self.particles.kinetic_energy,
            "field_energy": field_energy,
            "momentum_x": float(self.particles.momentum[0]),
        }
