"""Piecewise-Parabolic Method hydrodynamics — PROMETHEUS (paper §5.4).

The package root is the performance workload: :class:`PPMWorkload`
with the exact Table 2 configurations (:data:`TABLE2_PROBLEMS`).  It
imports no NumPy, so the analytic experiments load none.

The numerics live in their own modules: :class:`~.eos.GammaLawEOS`, PPM
reconstruction (:mod:`.reconstruct`), the HLLC Riemann solver
(:mod:`.riemann`) and the exact one (:mod:`.exact_riemann`),
directionally split sweeps (:mod:`.sweep`), the monolithic
:class:`~.solver.PPMSolver2D`, and the :class:`~.tiles.TiledPPM` domain
decomposition with four-deep ghost frames (bit-identical to the
monolithic solver).  The ghost depth and flops per zone both sides read
are in :mod:`.counts`.
"""

from .workload import TABLE2_PROBLEMS, PPMProblem, PPMWorkload

__all__ = ["PPMProblem", "PPMWorkload", "TABLE2_PROBLEMS"]
