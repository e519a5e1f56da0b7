"""Spectral Poisson solver for the PIC field solve (paper §5.1.1 step 2).

Solves ``laplacian(phi) = -rho`` with periodic boundaries by FFT — the
paper calls system VECLIB FFT routines; we call NumPy's.  The k=0 mode
is zeroed, which implements the uniform neutralising ion background of
the beam-plasma problem.  The electric field is obtained spectrally:
``E = -grad(phi)  =>  E_k = -i k phi_k``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .grid import Grid3D

__all__ = ["solve_fields"]


def solve_fields(rho: np.ndarray, grid: Grid3D
                 ) -> Tuple[np.ndarray, list]:
    """Solve for the potential and field from a charge density.

    Returns ``(phi, [Ex, Ey, Ez])``, all real arrays on the mesh.
    """
    if rho.shape != grid.shape:
        raise ValueError(f"rho shape {rho.shape} != grid {grid.shape}")
    rho_k = np.fft.fftn(rho)
    kx, ky, kz = grid.wavenumbers()
    k2 = kx ** 2 + ky ** 2 + kz ** 2
    k2[0, 0, 0] = 1.0                       # avoid divide-by-zero
    phi_k = rho_k / k2
    phi_k[0, 0, 0] = 0.0                    # neutralising background
    phi = np.real(np.fft.ifftn(phi_k))
    fields = []
    for k in (kx, ky, kz):
        e_k = -1j * k * phi_k
        fields.append(np.real(np.fft.ifftn(e_k)))
    return phi, fields

