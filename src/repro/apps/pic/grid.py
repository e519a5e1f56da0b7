"""Periodic 3-D mesh for the PIC field solve."""

from __future__ import annotations

import numpy as np

from .counts import GridShape

__all__ = ["Grid3D"]


class Grid3D(GridShape):
    """A :class:`~.counts.GridShape` with the array helpers the
    numerics use."""

    @property
    def dims(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz], dtype=float)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Map positions into the periodic domain."""
        return np.mod(positions, self.dims)

    def wavenumbers(self):
        """FFT wavenumber arrays (kx, ky, kz) broadcastable to the grid."""
        kx = 2.0 * np.pi * np.fft.fftfreq(self.nx)
        ky = 2.0 * np.pi * np.fft.fftfreq(self.ny)
        kz = 2.0 * np.pi * np.fft.fftfreq(self.nz)
        return (kx[:, None, None], ky[None, :, None], kz[None, None, :])
