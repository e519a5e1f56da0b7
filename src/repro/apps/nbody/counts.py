"""The tree code's flop count per interaction, without NumPy.

The force walk's flop ledger and the performance workload both read it
from this one definition, so the analytic experiments price the tree
code without importing NumPy.
"""

__all__ = ["FLOPS_PER_INTERACTION"]

#: one softened monopole interaction: dx(3), r^2(5), r^-3 via sqrt+div(~20
#: on scalar hardware), scale+accumulate(9) — the conventional ledger is 38
FLOPS_PER_INTERACTION = 38.0
