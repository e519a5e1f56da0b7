#!/usr/bin/env python
"""Gravitational N-body: a Plummer cluster under the Barnes-Hut tree code.

Integrates a small cluster with the real tree code (checking energy
conservation and force accuracy against direct summation), then predicts
the paper's Figure 8 scaling for the 32K/256K/2M-particle runs.

    python examples/nbody_cluster.py
"""

import numpy as np

from repro.apps.nbody import (
    NBodyWorkload,
    problem_2m,
    problem_32k,
    problem_256k,
)
from repro.apps.nbody.bodies import plummer_sphere
from repro.apps.nbody.force import direct_forces, tree_forces
from repro.apps.nbody.integrator import NBodySimulation
from repro.core import spp1000
from repro.runtime import Placement


def run_physics() -> None:
    print("=== physics: 1500-body Plummer cluster ===")
    bodies = plummer_sphere(1500, seed=2)
    result = tree_forces(bodies, theta=0.6, softening=0.05)
    reference = direct_forces(bodies, softening=0.05)
    err = (np.linalg.norm(result.accelerations - reference, axis=1)
           / np.linalg.norm(reference, axis=1))
    print(f"tree walk: {result.total_interactions} interactions "
          f"({result.total_interactions / bodies.n:.0f}/body, "
          f"vs {bodies.n - 1} for direct)")
    print(f"force error vs direct summation: mean {err.mean():.2%}, "
          f"99th pct {np.percentile(err, 99):.2%}")

    sim = NBodySimulation(bodies, dt=0.01, theta=0.6, softening=0.05)
    e0 = sim.energies()["total"]
    sim.run(10)
    e1 = sim.energies()["total"]
    print(f"energy drift over 10 leapfrog steps: {abs((e1 - e0) / e0):.3%}\n")


def run_performance() -> None:
    print("=== performance: Figure 8 scaling ===")
    config = spp1000(2)
    for problem in (problem_32k(), problem_256k(), problem_2m()):
        workload = NBodyWorkload(problem, config)
        base = workload.run_shared(1)
        line = f"  {problem.label:>4}: 1 CPU {base.mflops:5.1f} MF/s |"
        for p in (2, 4, 8):
            s = base.time_ns / workload.run_shared(
                p, Placement.HIGH_LOCALITY).time_ns
            line += f" S({p})={s:5.2f}"
        r16 = workload.run_shared(16, Placement.UNIFORM)
        line += (f" | 16 CPUs S={base.time_ns / r16.time_ns:5.2f} "
                 f"({r16.mflops:.0f} MF/s)")
        print(line)
    print("paper: 27.5 MF/s on 1 CPU, 384 MF/s on 16, 2-7% cross-"
          "hypernode degradation")


if __name__ == "__main__":
    run_physics()
    run_performance()
