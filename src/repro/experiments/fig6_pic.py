"""Figure 6: PIC time-to-solution and speed-up, shared memory vs PVM.

Four curves (two problem sizes x two programming styles) of time to
solution against processor count, plus the C90 single-head reference
line.  Expected shapes: the shared-memory version consistently
outperforms PVM (the paper notes PVM reaches "almost one half" the
shared performance), both styles scale to 16 processors, and the C90
line sits between the single-processor and full-machine times.
"""

from __future__ import annotations

from typing import Dict

from ..apps.pic import PICWorkload, large_problem, small_problem
from ..core import MachineConfig, Series
from ..core.units import to_seconds
from ..exec.units import WorkUnit
from .base import ExperimentResult

__all__ = ["run", "plan_units"]

PROCESSOR_COUNTS = [1, 2, 4, 8, 16]
_PROBLEMS = {"32x32x32": small_problem, "64x64x32": large_problem}


def _unit(params, config):
    """One work unit: one (problem, style, processor-count) run."""
    problem = _PROBLEMS[params["problem"]]()
    workload = PICWorkload(problem, config)
    if params["style"] == "c90":
        return workload.run_c90()
    run_fn = (workload.run_shared if params["style"] == "shared"
              else workload.run_pvm)
    result = run_fn(params["p"])
    return [result.time_ns, result.flops]


def _processor_counts(config):
    return [p for p in PROCESSOR_COUNTS if p <= config.n_cpus]


def plan_units(config, quick: bool = False):
    counts = _processor_counts(config)
    units = []
    for label in _PROBLEMS:
        for style in ("shared", "pvm"):
            units.extend(
                WorkUnit("fig6", f"{style}:{label}:{p}",
                         {"problem": label, "style": style, "p": p})
                for p in counts)
        units.append(WorkUnit("fig6", f"c90:{label}",
                              {"problem": label, "style": "c90"}))
    return units


def run(values, config: MachineConfig,
        quick: bool = False) -> ExperimentResult:
    """Assemble Figure 6 from its planned units."""
    processor_counts = _processor_counts(config)
    series = []
    data: Dict = {"processors": list(processor_counts)}
    for label in _PROBLEMS:
        shared_t = [to_seconds(values[f"shared:{label}:{p}"][0])
                    for p in processor_counts]
        pvm_t = [to_seconds(values[f"pvm:{label}:{p}"][0])
                 for p in processor_counts]
        c90_t = to_seconds(values[f"c90:{label}"])
        series.append(Series(f"shared {label}",
                             list(processor_counts), shared_t))
        series.append(Series(f"pvm {label}",
                             list(processor_counts), pvm_t))
        series.append(Series(f"C90 {label}",
                             list(processor_counts),
                             [c90_t] * len(processor_counts)))
        data[label] = {
            "shared_seconds": shared_t,
            "pvm_seconds": pvm_t,
            "c90_seconds": c90_t,
            "shared_speedup": [shared_t[0] / t for t in shared_t],
            "pvm_speedup": [pvm_t[0] / t for t in pvm_t],
        }

    return ExperimentResult(
        "fig6", "PIC time to solution (s) vs processors",
        series=series, series_axes=("processors", "seconds"),
        data=data,
        notes=("Solid curves: shared memory; dashed in the paper: PVM; "
               "flat line: one C90 head.  Shared memory consistently "
               "outperforms PVM."),
    )
