"""Beyond the paper: what the missing memory-class controls cost.

§6 reports that "neither node-private nor block-shared modes were
operational, limiting control of memory locality" — the codes ran with
far-shared (page round-robin) placement whether they liked it or not.
This experiment re-runs the FEM large problem under the three placements
the architecture defines, quantifying what the unavailable block-shared
mode would have bought (and how badly a naive near-shared hosting would
have hurt).
"""

from __future__ import annotations

from typing import Dict

from ..apps.fem import FEMWorkload, large_problem
from ..core import MachineConfig, Series, Table
from ..exec.units import WorkUnit
from ..runtime import Placement
from .base import ExperimentResult

__all__ = ["run", "plan_units"]

PROCESSOR_COUNTS = [8, 9, 12, 16]


def _processor_counts(config):
    """The sweep's CPU counts that fit on ``config``'s machine."""
    return [p for p in PROCESSOR_COUNTS if p <= config.n_cpus]


def _unit(params, config):
    """One work unit: FEM large at one (data placement, CPU count)."""
    workload = FEMWorkload(large_problem(), config,
                           data_placement=params["placement"])
    return workload.run(params["p"], Placement.HIGH_LOCALITY).mflops


def plan_units(config, quick: bool = False):
    return [WorkUnit("memclass", f"{placement}:{p}",
                     {"placement": placement, "p": p})
            for placement in FEMWorkload.PLACEMENTS
            for p in _processor_counts(config)]


def run(values, config: MachineConfig,
        quick: bool = False) -> ExperimentResult:
    """FEM large under far-shared / near-shared / block-shared placement."""
    counts = _processor_counts(config)
    series = []
    data: Dict = {"processors": counts}
    table = Table(
        "FEM large: useful MFLOP/s by data placement",
        ["placement"] + [f"{p} CPUs" for p in counts])
    for placement in FEMWorkload.PLACEMENTS:
        rates = [values[f"{placement}:{p}"] for p in counts]
        series.append(Series(placement, counts, rates))
        table.add_row(placement, *[f"{r:.0f}" for r in rates])
        data[placement] = rates
    return ExperimentResult(
        "memclass", "Memory-class placement ablation",
        tables=[table], series=series,
        series_axes=("processors", "MFLOP/s"),
        data=data,
        notes=("far_shared is what the paper measured; block_shared is "
               "the §6 'not yet operational' mode — it removes most of "
               "the Figure 7 dip at 9 CPUs; near_shared hosting on one "
               "hypernode collapses once threads spill past it."),
    )
