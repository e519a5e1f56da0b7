"""The paper's four Earth/space-science applications (paper §5).

* :mod:`repro.apps.pic` — 3-D electrostatic particle-in-cell plasma code
* :mod:`repro.apps.fem` — 2-D unstructured finite-element gas dynamics
* :mod:`repro.apps.nbody` — Barnes-Hut tree code for gravitational N-body
* :mod:`repro.apps.ppm` — Piecewise-Parabolic Method hydrodynamics
  (PROMETHEUS)

Each application is a real numerical code (NumPy) with a companion
workload module that characterises its parallel phases for the
performance model.  A package's root re-exports only that workload
surface, which imports no NumPy, so the analytic experiments load
neither NumPy nor the numerics; the numerics are imported from their
own modules.  The numbers both sides read (flops per update, mesh
sizes) are defined once, in each package's NumPy-free ``counts``
module.
"""
