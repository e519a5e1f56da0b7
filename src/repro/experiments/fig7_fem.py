"""Figure 7: FEM performance on the small and large data sets.

Three curves (small1, small2 = second coding of the same numerics,
large) of sustained useful MFLOP/s against processor count, plus the
horizontal C90 single-head line (250 MFLOP/s in the paper).  The
paper's salient feature — non-monotonic scaling between 8 and 9
processors, where the team first spills onto a second hypernode — must
reproduce.
"""

from __future__ import annotations

from typing import Dict

from ..apps.fem import (
    FEMWorkload,
    large_problem,
    small1_problem,
    small2_problem,
)
from ..core import MachineConfig, Series
from ..core.metrics import mflops
from ..core.units import to_seconds
from ..exec.units import WorkUnit
from .base import ExperimentResult

__all__ = ["run", "plan_units"]

PROCESSOR_COUNTS = [1, 2, 4, 6, 8, 9, 10, 12, 14, 16]
_PROBLEMS = {"small1": small1_problem, "large": large_problem,
             "small2": small2_problem}


def _unit(params, config):
    """One work unit: one (problem, processor-count) FEM run."""
    problem = _PROBLEMS[params["problem"]]()
    workload = FEMWorkload(problem, config)
    if params.get("style") == "c90":
        total = workload.flops_per_step() * problem.n_steps
        return total / to_seconds(workload.run_c90()) / 1e6
    result = workload.run(params["p"])
    return [result.time_ns, result.flops]


def _processor_counts(config):
    return [p for p in PROCESSOR_COUNTS if p <= config.n_cpus]


def plan_units(config, quick: bool = False):
    counts = _processor_counts(config)
    units = []
    for name in _PROBLEMS:
        units.extend(WorkUnit("fig7", f"fem:{name}:{p}",
                              {"problem": name, "p": p})
                     for p in counts)
    units.append(WorkUnit("fig7", "c90",
                          {"problem": "small1", "style": "c90"}))
    return units


def run(values, config: MachineConfig,
        quick: bool = False) -> ExperimentResult:
    """Assemble Figure 7 from its planned units."""
    processor_counts = _processor_counts(config)
    series = []
    data: Dict = {"processors": list(processor_counts)}
    for name in _PROBLEMS:
        rates = []
        for p in processor_counts:
            time_ns, flops = values[f"fem:{name}:{p}"]
            rates.append(mflops(flops, time_ns) if flops else 0.0)
        series.append(Series(name, list(processor_counts), rates))
        data[name] = {"mflops": rates}
    c90_rate = values["c90"]
    series.append(Series("C90 (1 head)", list(processor_counts),
                         [c90_rate] * len(processor_counts)))
    data["c90_mflops"] = c90_rate

    return ExperimentResult(
        "fig7", "FEM useful MFLOP/s vs processors",
        series=series, series_axes=("processors", "MFLOP/s"),
        data=data,
        notes=("Useful MFLOP/s via the paper's 437 flops/point-update "
               "conversion.  Note the non-monotonic dip between 8 and 9 "
               "processors (first spill onto the second hypernode) that "
               "the paper reports as under investigation."),
    )
