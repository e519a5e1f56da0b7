"""Table 2: PPM (PROMETHEUS) performance.

The paper's rows::

    Grid Size   No. of Tiles   No. of Procs   Mflop/s
    120 x 480   4 x 16         1              29.9
    120 x 480   4 x 16         2              58.2
    120 x 480   4 x 16         4              118.8
    120 x 480   4 x 16         8              228.5
    120 x 480   12 x 48        1              23.8
    120 x 480   12 x 48        2              47.8
    120 x 480   12 x 48        4              95.9
    120 x 480   12 x 48        8              186.2
    240 x 960   4 x 16         4              118.5

Expected shapes: near-linear scaling to 8 processors (one hypernode),
the finer 12 x 48 decomposition uniformly slower (frame recomputation +
per-tile overhead), and the rate independent of grid size at equal
processor count.
"""

from __future__ import annotations

from ..apps.ppm import PPMProblem, PPMWorkload
from ..core import MachineConfig, Table
from ..exec.units import WorkUnit
from .base import ExperimentResult

__all__ = ["run", "PAPER_ROWS", "plan_units"]

#: (grid, tiles, procs) -> paper MFLOP/s
PAPER_ROWS = [
    ((120, 480), (4, 16), 1, 29.9),
    ((120, 480), (4, 16), 2, 58.2),
    ((120, 480), (4, 16), 4, 118.8),
    ((120, 480), (4, 16), 8, 228.5),
    ((120, 480), (12, 48), 1, 23.8),
    ((120, 480), (12, 48), 2, 47.8),
    ((120, 480), (12, 48), 4, 95.9),
    ((120, 480), (12, 48), 8, 186.2),
    ((240, 960), (4, 16), 4, 118.5),
]


def _key(nx, ny, tx, ty, procs):
    return f"{nx}x{ny}:{tx}x{ty}:{procs}"


def _unit(params, config):
    """One work unit: one PPM table row (sustained MFLOP/s)."""
    problem = PPMProblem(params["nx"], params["ny"],
                         params["tx"], params["ty"])
    return PPMWorkload(problem, config).run(params["procs"]).mflops


def plan_units(config, quick: bool = False):
    return [WorkUnit("table2", _key(nx, ny, tx, ty, procs),
                     {"nx": nx, "ny": ny, "tx": tx, "ty": ty,
                      "procs": procs})
            for (nx, ny), (tx, ty), procs, _ in PAPER_ROWS]


def run(values, config: MachineConfig,
        quick: bool = False) -> ExperimentResult:
    """Assemble Table 2 from its planned units."""
    table = Table("Table 2: PPM performance (paper values in parentheses)",
                  ["Grid Size", "No. of Tiles", "No. of Procs", "Mflop/s"])
    rows = []
    for (nx, ny), (tx, ty), procs, paper_mflops in PAPER_ROWS:
        rate = values[_key(nx, ny, tx, ty, procs)]
        table.add_row(f"{nx}x{ny}", f"{tx}x{ty}", procs,
                      f"{rate:.1f} ({paper_mflops})")
        rows.append({
            "grid": (nx, ny), "tiles": (tx, ty), "procs": procs,
            "mflops": rate, "paper_mflops": paper_mflops,
        })
    return ExperimentResult(
        "table2", "PPM performance",
        tables=[table], data={"rows": rows},
        notes=("Near-linear scaling on one hypernode; the 12x48 "
               "decomposition pays frame recomputation and per-tile "
               "overhead; the rate is insensitive to grid size because a "
               "tile, not the grid, is the cache working set."),
    )
