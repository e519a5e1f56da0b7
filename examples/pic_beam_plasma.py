#!/usr/bin/env python
"""The paper's PIC test problem: an electron beam in a Maxwellian plasma.

Runs the real 3-D electrostatic PIC code on a reduced mesh (so it
finishes in ~a minute), shows the two-stream instability growing, then
asks the performance model what the paper-size calculations would do on
the SPP-1000 and the C90 (Figure 6 / Table 1).

    python examples/pic_beam_plasma.py
"""

from repro.apps.pic import PICWorkload, small_problem
from repro.apps.pic.grid import Grid3D
from repro.apps.pic.particles import beam_plasma
from repro.apps.pic.simulation import PICSimulation
from repro.core import spp1000
from repro.core.units import to_seconds


def run_physics() -> None:
    print("=== physics: beam-plasma instability (16^3 mesh, 9 ppc) ===")
    grid = Grid3D(16, 16, 16)
    particles = beam_plasma(grid, plasma_per_cell=8, beam_per_cell=1,
                            thermal_velocity=0.01, beam_velocity=1.5,
                            seed=1)
    sim = PICSimulation(grid, particles, dt=0.3)
    print(f"{particles.n} particles, "
          f"{sim.flops_per_step() / 1e6:.1f} Mflop per step")
    for step in range(40):
        diag = sim.step()
        if step % 8 == 0:
            print(f"  step {step:3d}: field energy {diag['field_energy']:10.2f}"
                  f"  kinetic {diag['kinetic_energy']:12.2f}")
    first = sim.history[1]["field_energy"]
    peak = max(h["field_energy"] for h in sim.history)
    print(f"field energy grew {peak / first:.1f}x -> the beam instability "
          "is live\n")


def run_performance() -> None:
    print("=== performance: the paper's 32x32x32 calculation ===")
    config = spp1000(2)
    workload = PICWorkload(small_problem(), config)
    c90 = to_seconds(workload.run_c90())
    print(f"C90 (1 head) reference: {c90:8.1f} s")
    for p in (1, 2, 4, 8, 16):
        shared = workload.run_shared(p)
        pvm = workload.run_pvm(p)
        print(f"  {p:2d} CPUs: shared {to_seconds(shared.time_ns):8.1f} s "
              f"({shared.mflops:6.1f} MF/s)   "
              f"pvm {to_seconds(pvm.time_ns):8.1f} s "
              f"({pvm.mflops:6.1f} MF/s)")
    print("shared memory consistently outperforms PVM, as in Figure 6")


if __name__ == "__main__":
    run_physics()
    run_performance()
