"""3-D electrostatic particle-in-cell plasma code (paper §5.1).

The package root is the performance workload: :class:`PICWorkload`
with the paper's two problem sizes (:func:`small_problem`,
:func:`large_problem`) and the shared-memory and PVM execution styles.
It imports no NumPy, so the analytic experiments load none.

The numerics live in their own modules: :class:`~.grid.Grid3D`,
:func:`~.particles.beam_plasma`, TSC deposit/gather
(:mod:`.interpolation`), the spectral Poisson solve (:mod:`.poisson`),
:class:`~.simulation.PICSimulation` and :mod:`.diagnostics`.  The flop
counts and mesh shape both sides read are in :mod:`.counts`.
"""

from .workload import (
    C90_PIC_PROFILE,
    PICProblem,
    PICWorkload,
    large_problem,
    small_problem,
)

__all__ = ["PICProblem", "PICWorkload", "small_problem", "large_problem",
           "C90_PIC_PROFILE"]
