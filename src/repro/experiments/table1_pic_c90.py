"""Table 1: PIC performance on one Cray Y-MP C90 processor.

The paper's yardstick rows::

    Mesh          No. of particles   Mflop/s   Total CPU Time
    32 x 32 x 32  294912             355       112.9
    64 x 64 x 32  1179648            369       436.4

We regenerate the same rows from the C90 reference model and our PIC
flop ledger.  Note the absolute CPU times differ by the ratio of our
flop count per particle-step to the authors' hpm count; the sustained
MFLOP/s — the architecture statement — is the comparable quantity.
"""

from __future__ import annotations

from ..apps.pic import PICWorkload, large_problem, small_problem
from ..core import MachineConfig, Table
from ..core.units import to_seconds
from ..exec.units import WorkUnit
from ..perfmodel import C90Model
from .base import ExperimentResult

__all__ = ["run", "plan_units"]

PAPER_ROWS = {
    "32x32x32": {"particles": 294912, "mflops": 355.0, "seconds": 112.9},
    "64x64x32": {"particles": 1179648, "mflops": 369.0, "seconds": 436.4},
}

_PROBLEMS = {"32x32x32": small_problem, "64x64x32": large_problem}


def _unit(params, config):
    """One work unit: one C90 PIC row (mflops and seconds)."""
    problem = _PROBLEMS[params["problem"]]()
    workload = PICWorkload(problem, config)
    time_ns = workload.run_c90(C90Model())
    flops = workload.flops_per_step() * problem.n_steps
    return {
        "particles": problem.n_particles,
        "mflops": flops / to_seconds(time_ns) / 1e6,
        "seconds": to_seconds(time_ns),
    }


def plan_units(config, quick: bool = False):
    return [WorkUnit("table1", label, {"problem": label})
            for label in _PROBLEMS]


def run(values, config: MachineConfig,
        quick: bool = False) -> ExperimentResult:
    """Assemble Table 1 from its planned units."""
    table = Table(
        "Table 1: PIC on one C90 head (paper values in parentheses)",
        ["Mesh", "Particles", "Mflop/s", "Total CPU time (s)"])
    data = {}
    for label in _PROBLEMS:
        row = values[label]
        paper = PAPER_ROWS[label]
        table.add_row(
            label,
            f"{row['particles']} ({paper['particles']})",
            f"{row['mflops']:.0f} ({paper['mflops']:.0f})",
            f"{row['seconds']:.1f} ({paper['seconds']:.1f})",
        )
        data[label] = dict(row, paper=paper)
    return ExperimentResult(
        "table1", "PIC performance on 1 C90 processor",
        tables=[table], data=data,
        notes=("Sustained MFLOP/s is the comparable quantity; CPU times "
               "scale with our per-particle flop count (TSC ledger) rather "
               "than the authors' hpm count."),
    )
