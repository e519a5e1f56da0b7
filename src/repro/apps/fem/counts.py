"""The FEM code's flop counts and mesh sizes, without NumPy.

The numerics and the performance workload both read these, each from
its one definition here, so the analytic experiments price the FEM code
without importing NumPy or building a mesh.
"""

__all__ = ["FLOPS_PER_POINT_UPDATE", "FLOPS_PER_ELEMENT_UPDATE",
           "SMALL_GRID", "LARGE_GRID"]

#: the paper's measured hpm flop counts (§5.2.2)
FLOPS_PER_POINT_UPDATE = 437.0
FLOPS_PER_ELEMENT_UPDATE = 220.0

#: the paper's data sets as (nx, ny) quad grids: ``rectangle_mesh(nx, ny)``
#: has ``(nx+1)(ny+1)`` points and ``2 nx ny`` elements
SMALL_GRID = (320, 144)
LARGE_GRID = (512, 512)
