"""repro — reproduction of the SC'95 Convex SPP-1000 performance evaluation.

The package provides, from the bottom up:

* :mod:`repro.sim` — a discrete-event simulation kernel;
* :mod:`repro.machine` — the SPP-1000 architecture model (caches,
  two-level directory/SCI coherence, crossbars, rings, memory classes);
* :mod:`repro.runtime` — the CPSlib-style thread runtime (fork-join and
  the semaphore + spin barrier) running on the simulated machine;
* :mod:`repro.pvm` — the ConvexPVM-style message-passing layer (send and
  receive through shared buffers);
* :mod:`repro.perfmodel` — phase-level application performance model and
  the Cray C90 reference;
* :mod:`repro.apps` — the paper's four applications (PIC, FEM, N-body
  tree code, PPM hydrodynamics) as real numerical codes;
* :mod:`repro.experiments` — one module per table/figure of the paper.

Quickstart::

    from repro import Machine, spp1000
    machine = Machine(spp1000(n_hypernodes=2))
"""

from .core import MachineConfig, spp1000

__version__ = "1.0.0"

__all__ = ["Machine", "MachineConfig", "MemClass", "spp1000", "__version__"]


def __getattr__(name):
    # the simulated machine loads on first use: the analytic experiments
    # never build one
    if name in ("Machine", "MemClass"):
        from . import machine
        return getattr(machine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
