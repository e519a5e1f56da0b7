"""The PIC code's flop counts and mesh shape, without NumPy.

The numerics and the performance workload both read these, each from
its one definition here, so the analytic experiments price the PIC
code without importing NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DEPOSIT_FLOPS_PER_PARTICLE", "GATHER_FLOPS_PER_PARTICLE",
           "PUSH_FLOPS_PER_PARTICLE", "GridShape", "fft_flops"]

#: analytic flop counts per particle (audited against
#: :mod:`.interpolation`): weights 3 dims x 8 flops = 24; 27 weight
#: products x 2 = 54; deposit: 27 multiply-adds = 54
DEPOSIT_FLOPS_PER_PARTICLE = 24 + 54 + 54
#: gather: 24 + 54 weight products + 27 points x 3 components x 2 = 162
GATHER_FLOPS_PER_PARTICLE = 24 + 54 + 162
#: leap-frog push: 3 x (v += (q/m) E dt: 2 flops) + 3 x (x += v dt: 2)
#: + periodic wrap arithmetic ~ 6
PUSH_FLOPS_PER_PARTICLE = 6 + 6 + 6


@dataclass(frozen=True)
class GridShape:
    """The shape of a periodic rectangular mesh with unit-cell spacing.

    Positions are measured in cell units: the domain is
    ``[0, nx) x [0, ny) x [0, nz)`` with periodic wrap-around, matching
    the paper's periodic boundary conditions in all three directions.
    """

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for n in (self.nx, self.ny, self.nz):
            if n < 4:
                raise ValueError("grid needs at least 4 cells per dimension "
                                 "(TSC support)")

    @property
    def shape(self) -> tuple:
        return (self.nx, self.ny, self.nz)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nz


def fft_flops(grid: GridShape) -> float:
    """Flops of one field solve: 5 FFTs (1 forward + 4 inverse) plus the
    spectral algebra, using the standard ``5 N log2 N`` per FFT."""
    n = grid.n_cells
    per_fft = 5.0 * n * math.log2(n)
    spectral = 10.0 * n   # k^2, divide, three -ik products
    return 5.0 * per_fft + spectral
