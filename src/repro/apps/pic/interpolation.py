"""TSC (triangular-shaped-cloud) particle-mesh interpolation.

The paper's particles are "finite sized charge clouds ... comparable in
size to a single cell of the mesh" — the classic TSC (quadratic spline)
shape.  Charge deposit (step 1 of §5.1.1, "a scatter with add") spreads
each particle over its 27 neighbouring mesh points; field gather (step 3)
reads the same 27-point stencil.

Both directions use the same weights, which guarantees momentum
conservation and exact charge conservation (the weights sum to one).
"""

from __future__ import annotations

import itertools
from typing import Tuple

import numpy as np

from .grid import Grid3D

__all__ = ["tsc_weights", "deposit_charge", "gather_field"]


def tsc_weights(positions: np.ndarray, grid: Grid3D
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest mesh points and one-dimensional TSC weights.

    Returns ``(centers, weights)`` where ``centers`` is (N, 3) int —
    the nearest grid point per dimension — and ``weights`` is (N, 3, 3):
    the quadratic-spline weight of offsets -1, 0, +1 per dimension.
    """
    centers = np.floor(positions + 0.5).astype(np.int64)
    dx = positions - centers          # in [-0.5, 0.5)
    w = np.empty(positions.shape + (3,))
    w[..., 0] = 0.5 * (0.5 - dx) ** 2
    w[..., 1] = 0.75 - dx ** 2
    w[..., 2] = 0.5 * (0.5 + dx) ** 2
    return centers, w


def deposit_charge(positions: np.ndarray, charge: float,
                   grid: Grid3D) -> np.ndarray:
    """Scatter-add particle charge to the mesh (periodic); returns rho."""
    rho = grid.zeros()
    centers, w = tsc_weights(positions, grid)
    dims = np.array(grid.shape)
    for ox, oy, oz in itertools.product((-1, 0, 1), repeat=3):
        ix = np.mod(centers[:, 0] + ox, dims[0])
        iy = np.mod(centers[:, 1] + oy, dims[1])
        iz = np.mod(centers[:, 2] + oz, dims[2])
        weight = w[:, 0, ox + 1] * w[:, 1, oy + 1] * w[:, 2, oz + 1]
        np.add.at(rho, (ix, iy, iz), charge * weight)
    return rho


def gather_field(field_components, positions: np.ndarray,
                 grid: Grid3D) -> np.ndarray:
    """Interpolate a vector field to particle positions; returns (N, 3)."""
    centers, w = tsc_weights(positions, grid)
    dims = np.array(grid.shape)
    out = np.zeros_like(positions)
    for ox, oy, oz in itertools.product((-1, 0, 1), repeat=3):
        ix = np.mod(centers[:, 0] + ox, dims[0])
        iy = np.mod(centers[:, 1] + oy, dims[1])
        iz = np.mod(centers[:, 2] + oz, dims[2])
        weight = w[:, 0, ox + 1] * w[:, 1, oy + 1] * w[:, 2, oz + 1]
        for c in range(3):
            out[:, c] += weight * field_components[c][ix, iy, iz]
    return out
