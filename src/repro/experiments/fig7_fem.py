"""Figure 7: FEM performance on the small and large data sets.

Three curves (small1, small2 = second coding of the same numerics,
large) of sustained useful MFLOP/s against processor count, plus the
horizontal C90 single-head line (250 MFLOP/s in the paper).  The
paper's salient feature — non-monotonic scaling between 8 and 9
processors, where the team first spills onto a second hypernode — must
reproduce.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..apps.fem import (
    FEMWorkload,
    large_problem,
    small1_problem,
    small2_problem,
)
from ..core import MachineConfig, Series, spp1000
from ..core.units import to_seconds
from ..exec.units import WorkUnit, register_units
from ..perfmodel.sweep import scaling_study
from .base import ExperimentResult, point_runner, register

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


def plan_units(config, quick: bool = False):
    counts = [p for p in PROCESSOR_COUNTS if p <= config.n_cpus]
    units = []
    for name in _PROBLEMS:
        units.extend(WorkUnit("fig7", f"fem:{name}:{p}",
                              {"problem": name, "p": p})
                     for p in counts)
    units.append(WorkUnit("fig7", "c90",
                          {"problem": "small1", "style": "c90"}))
    return units


@register("fig7", "FEM performance on small and large data sets")
def run(config: Optional[MachineConfig] = None,
        processor_counts: Optional[Sequence[int]] = None,
        points=None) -> ExperimentResult:
    """Regenerate Figure 7."""
    config = config or spp1000()
    if processor_counts is None:
        processor_counts = PROCESSOR_COUNTS
    processor_counts = [p for p in processor_counts if p <= config.n_cpus]
    point = point_runner(points)

    series = []
    data: Dict = {"processors": list(processor_counts)}
    c90_rate = None
    for name, factory in _PROBLEMS.items():
        problem = factory()
        workload = FEMWorkload(problem, config)
        curve = scaling_study(workload.run, processor_counts,
                              label=f"fem:{name}", point=point)
        rates = [pt.mflops for pt in curve.points]
        series.append(Series(problem.label, list(processor_counts), rates))
        data[problem.label] = {"mflops": rates}
        if c90_rate is None:
            c90_rate = point(
                "c90", lambda: _unit({"problem": "small1", "style": "c90"},
                                     config))
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


register_units("fig7", plan_units, _unit)
