"""Gravitational N-body tree code (paper §5.3).

The package root is the performance workload: :class:`NBodyWorkload`
with the paper's 32K/256K/2M sizes and both programming styles.  It
imports no NumPy, so the analytic experiments load none.

The numerics live in their own modules: :func:`~.bodies.plummer_sphere`
/ :func:`~.bodies.uniform_cube` initial conditions, the Morton-key
octree (:func:`~.tree.build_octree`), Barnes-Hut forces
(:func:`~.force.tree_forces`) with a group MAC, the direct-summation
reference, :mod:`.diagnostics` and the
:class:`~.integrator.NBodySimulation` leapfrog driver.  The flop count
per interaction both sides read is in :mod:`.counts`.
"""

from .workload import (
    C90_TREE_PROFILE,
    NBodyProblem,
    NBodyWorkload,
    problem_2m,
    problem_32k,
    problem_256k,
)

__all__ = ["NBodyProblem", "NBodyWorkload", "problem_32k", "problem_256k",
           "problem_2m", "C90_TREE_PROFILE"]
