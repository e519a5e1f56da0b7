"""Phase-level application performance model (see DESIGN.md §1).

Public surface:

* :class:`Phase`, :class:`StepWork`, :class:`LocalityMix`, :class:`Msg`,
  :class:`Access`, :class:`TeamSpec` — workload characterisation
* :class:`PerformanceModel`, :class:`RunResult` — execution on the SPP-1000
* :func:`barrier_ns`, :func:`pvm_oneway_ns`, :func:`remote_miss_cycles`
  — analytic primitive costs (validated against the simulated
  primitives by tests)
* :class:`C90Model`, :class:`C90Profile` — the Cray C90 reference head
"""

from .c90 import C90Model, C90Profile
from .comm import barrier_ns, pvm_oneway_ns, remote_miss_cycles
from .model import PerformanceModel, RunResult
from .phase import Access, LocalityMix, Msg, Phase, StepWork, TeamSpec

__all__ = [
    "Phase", "StepWork", "LocalityMix", "Msg", "Access", "TeamSpec",
    "PerformanceModel", "RunResult",
    "barrier_ns", "pvm_oneway_ns", "remote_miss_cycles",
    "C90Model", "C90Profile",
]
