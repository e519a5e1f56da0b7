#!/usr/bin/env python
"""PPM hydrodynamics: a blast wave on the tiled grid (PROMETHEUS-style).

Runs the real PPM solver on a centred blast, verifies that the tile
decomposition with four-deep ghost frames reproduces the monolithic
solution bit for bit, draws the density field as ASCII art, and prints
the Table 2 performance predictions.

    python examples/ppm_blast_wave.py
"""

import numpy as np

from repro.apps.ppm import TABLE2_PROBLEMS, PPMWorkload
from repro.apps.ppm.solver import PPMSolver2D, blast_state
from repro.apps.ppm.tiles import TiledPPM
from repro.core import spp1000

SHADES = " .:-=+*#%@"


def ascii_field(field: np.ndarray, width: int = 64) -> str:
    step = max(1, field.shape[0] // width)
    sampled = field[::step, ::step]
    lo, hi = sampled.min(), sampled.max()
    norm = (sampled - lo) / max(hi - lo, 1e-12)
    rows = []
    for row in norm.T[::-1]:
        rows.append("".join(SHADES[int(v * (len(SHADES) - 1))] for v in row))
    return "\n".join(rows)


def run_physics() -> None:
    print("=== physics: 96x96 blast wave, 4x4 tiles ===")
    u0 = blast_state(96, 96, pressure_jump=100.0)
    mono = PPMSolver2D(u0, dx=1 / 96, dy=1 / 96, cfl=0.3)
    tiled = TiledPPM(u0, 4, 4, dx=1 / 96, dy=1 / 96, cfl=0.3)
    t = 0.0
    while t < 0.05:
        dt = mono.step()
        tiled.step()
        t += dt
    identical = np.array_equal(mono.u, tiled.gather())
    print(f"steps: {mono.step_count}, tiled == monolithic: {identical}")
    totals = tiled.totals()
    print(f"conserved mass {totals['mass']:.6f}, "
          f"energy {totals['energy']:.4f}")
    print(ascii_field(mono.u[0]))
    print()


def run_performance() -> None:
    print("=== performance: Table 2 ===")
    config = spp1000(2)
    paper = {("120x480 / 4x16", 1): 29.9, ("120x480 / 4x16", 8): 228.5,
             ("120x480 / 12x48", 1): 23.8, ("120x480 / 12x48", 8): 186.2,
             ("240x960 / 4x16", 4): 118.5}
    for label, problem in TABLE2_PROBLEMS.items():
        workload = PPMWorkload(problem, config)
        procs = (1, 8) if "120" in label else (4,)
        for p in procs:
            rate = workload.run(p).mflops
            ref = paper.get((label, p))
            print(f"  {label:22s} {p} CPUs: {rate:6.1f} MF/s"
                  + (f"  (paper {ref})" if ref else ""))


if __name__ == "__main__":
    run_physics()
    run_performance()
