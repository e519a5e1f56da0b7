"""Directionally split PPM sweeps (paper §5.4).

One sweep performs, along one axis: primitive recovery, PPM
reconstruction, HLLC fluxes, and the conservative update.  Arrays carry
guard cells; the update stencil spans four cells each side (the paper's
"nine-point scheme", hence its four-deep ghost frames).

The sweep writes every cell with full stencil support, so tiles can run
an x-sweep over their whole padded array (keeping y-ghost rows valid)
followed by a y-sweep of the interior — exactly one ghost exchange per
timestep, as the paper describes.
"""

from __future__ import annotations

import numpy as np

from .counts import GHOST
from .eos import GammaLawEOS
from .reconstruct import ppm_reconstruct
from .riemann import hllc_flux

__all__ = ["primitives", "sweep", "max_wavespeed"]


def primitives(u: np.ndarray, eos: GammaLawEOS):
    """Conserved (4, ...) -> primitive (rho, ux, uy, p)."""
    rho = np.maximum(u[0], 1e-12)
    ux = u[1] / rho
    uy = u[2] / rho
    e_int = u[3] / rho - 0.5 * (ux * ux + uy * uy)
    p = np.maximum(eos.pressure(rho, e_int), 1e-12)
    return rho, ux, uy, p


def max_wavespeed(u: np.ndarray, eos: GammaLawEOS) -> float:
    """max(|v| + c) over all zones (for the CFL condition)."""
    rho, ux, uy, p = primitives(u, eos)
    c = eos.sound_speed(rho, p)
    return float((np.sqrt(ux * ux + uy * uy) + c).max())


def sweep(u: np.ndarray, dt: float, dx: float, eos: GammaLawEOS,
          axis: int) -> np.ndarray:
    """One PPM sweep along ``axis`` (1 = x, 2 = y of a (4, nx, ny) array).

    Returns a new array; cells without full stencil support keep their
    input values.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 (x) or 2 (y)")
    if axis == 2:
        # transpose so the sweep is along array axis 1, and swap the
        # momentum components so u[1] is always the normal momentum
        ut = u[[0, 2, 1, 3]].transpose(0, 2, 1)
        out = sweep(ut, dt, dx, eos, axis=1)
        return out[[0, 2, 1, 3]].transpose(0, 2, 1)

    n = u.shape[1]
    if n < 2 * GHOST + 1:
        raise ValueError("sweep needs at least 9 cells along the axis")
    rho, un, ut, p = primitives(u, eos)

    recon = [ppm_reconstruct(q) for q in (rho, un, ut, p)]
    # left/right states at the face between cells j and j+1 (index j)
    left_state = tuple(r[1][:-1] for r in recon)    # right edge of cell j
    right_state = tuple(r[0][1:] for r in recon)    # left edge of cell j+1
    flux = hllc_flux(left_state, right_state, eos)  # (4, n-1, m)

    out = u.copy()
    # update cells with full support: j in [GHOST-1, n-GHOST]
    lo, hi = GHOST - 1, n - GHOST
    out[:, lo:hi + 1] = u[:, lo:hi + 1] - (dt / dx) * (
        flux[:, lo:hi + 1] - flux[:, lo - 1:hi])
    return out
