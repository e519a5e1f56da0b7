"""2-D unstructured FEM gas dynamics (paper §5.2).

The package root is the performance workload: :class:`FEMWorkload`
with the paper's three Figure-7 curves (:func:`small1_problem`,
:func:`small2_problem`, :func:`large_problem`).  It imports no NumPy
and builds no mesh, so the analytic experiments load none.

The numerics live in their own modules: :mod:`.mesh`
(``rectangle_mesh``, and ``small_mesh`` / ``large_mesh`` with the
paper's exact mesh sizes), Morton ordering (:mod:`.morton`),
:class:`~.gasdyn.GasDynamicsFEM` — a first-order lumped-mass Galerkin
Euler solver — and :class:`~.driver.FEMSimulation`.  The flop counts
and mesh sizes both sides read are in :mod:`.counts`.
"""

from .workload import (
    C90_FEM_PROFILE,
    FEMProblem,
    FEMWorkload,
    large_problem,
    small1_problem,
    small2_problem,
)

__all__ = ["FEMProblem", "FEMWorkload", "small1_problem", "small2_problem",
           "large_problem", "C90_FEM_PROFILE"]
