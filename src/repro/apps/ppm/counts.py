"""The PPM code's ghost depth and flops per zone, without NumPy.

The numerics and the performance workload both read these, each from
its one definition here, so the analytic experiments price the PPM code
without importing NumPy.
"""

__all__ = ["GHOST", "FLOPS_PER_ZONE_PER_STEP"]

#: ghost-frame width (paper: "frame is four grid points wide")
GHOST = 4

#: PROMETHEUS-calibre work per zone per timestep (paper: "a few thousand
#: floating point operations ... to update each zone for a single time
#: step"); used by the performance workload's flop ledger.
FLOPS_PER_ZONE_PER_STEP = 3000.0
