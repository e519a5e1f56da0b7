"""Figure 8: N-body tree-code performance scaling.

Three problem sizes (32K / 256K / 2M particles), each run in the
paper's two configurations: 1, 2, 4, 8 processors on one hypernode, and
2, 4, 8, 16 processors spread across two.  Speed-up is measured against
the single-processor rate (the paper's 27.5 MFLOP/s yardstick).
Expected shapes: 2-7% degradation across hypernodes at equal processor
counts, a 16-processor result near the paper's 384 MFLOP/s (~14x), a
problem-size dependence at 16 processors, and a C90 tree-code reference
of 120 MFLOP/s that the 16-processor run comfortably exceeds.  A machine
with one hypernode runs only the 1-hypernode series and the C90
reference; its data has no two-hypernode speed-ups, 16-processor rate
or degradation.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..apps.nbody import (
    NBodyWorkload,
    problem_2m,
    problem_32k,
    problem_256k,
)
from ..core import MachineConfig, Series, spp1000
from ..core.metrics import mflops
from ..core.units import to_seconds
from ..exec.units import WorkUnit
from ..runtime import Placement
from .base import ExperimentResult, point_runner

__all__ = ["run", "plan_units"]

ONE_NODE_COUNTS = [1, 2, 4, 8]
TWO_NODE_COUNTS = [2, 4, 8, 16]

_PROBLEMS = {"32k": problem_32k, "256k": problem_256k, "2m": problem_2m}
_PLACEMENTS = {"high": Placement.HIGH_LOCALITY,
               "uniform": Placement.UNIFORM}


def _unit(params, config):
    """One work unit: one (problem, placement, count) run, or the C90."""
    problem = _PROBLEMS[params["problem"]]()
    workload = NBodyWorkload(problem, config)
    if params.get("style") == "c90":
        total = workload.flops_per_step() * problem.n_steps
        return total / to_seconds(workload.run_c90()) / 1e6
    result = workload.run_shared(params["p"],
                                 _PLACEMENTS[params["placement"]])
    return [result.time_ns, result.flops]


def _two_hypernodes(config) -> bool:
    """Whether the machine can run the 2-hypernode series."""
    return config.n_hypernodes >= 2


def plan_units(config, quick: bool = False):
    units = []
    two_counts = TWO_NODE_COUNTS if _two_hypernodes(config) else []
    for name in _PROBLEMS:
        for p in ONE_NODE_COUNTS:
            units.append(WorkUnit("fig8", f"{name}:high:{p}",
                                  {"problem": name, "placement": "high",
                                   "p": p}))
        for p in two_counts:
            units.append(WorkUnit("fig8", f"{name}:uniform:{p}",
                                  {"problem": name, "placement": "uniform",
                                   "p": p}))
        units.append(WorkUnit("fig8", f"{name}:c90",
                              {"problem": name, "style": "c90"}))
    return units


def run(config: Optional[MachineConfig] = None,
        include_2m: bool = True, points=None) -> ExperimentResult:
    """Regenerate Figure 8."""
    config = config or spp1000()
    point = point_runner(points)
    two_hypernodes = _two_hypernodes(config)

    series = []
    data: Dict = {}
    for name, factory in _PROBLEMS.items():
        if name == "2m" and not include_2m:
            continue
        problem = factory()

        def shared(placement, p, name=name):
            return point(f"{name}:{placement}:{p}",
                         lambda: _unit({"problem": name,
                                        "placement": placement, "p": p},
                                       config))

        base_t, base_f = shared("high", 1)
        one_node = [base_t / shared("high", p)[0] for p in ONE_NODE_COUNTS]
        series.append(Series(f"{problem.label} 1-hypernode",
                             ONE_NODE_COUNTS, one_node))
        two_node = mflops_16 = degradation = None
        if two_hypernodes:
            two_node = [base_t / shared("uniform", p)[0]
                        for p in TWO_NODE_COUNTS]
            series.append(Series(f"{problem.label} 2-hypernodes",
                                 TWO_NODE_COUNTS, two_node))
            t16, f16 = shared("uniform", 16)
            mflops_16 = mflops(f16, t16) if f16 else 0.0
            degradation = {}
            for p in (2, 4, 8):
                t1 = shared("high", p)[0]
                t2 = shared("uniform", p)[0]
                degradation[p] = (t2 - t1) / t1
        row = {
            "one_node_speedup": one_node,
            "two_node_speedup": two_node,
            "single_cpu_mflops": mflops(base_f, base_t) if base_f else 0.0,
            "mflops_16": mflops_16,
            "degradation": degradation,
            "c90_mflops": point(f"{name}:c90",
                                lambda n=name: _unit(
                                    {"problem": n, "style": "c90"},
                                    config)),
        }
        data[problem.label] = {key: value for key, value in row.items()
                               if value is not None}

    return ExperimentResult(
        "fig8", "N-body parallel speed-up vs processors",
        series=series, series_axes=("processors", "speed-up"),
        data=data,
        notes=("Paper: single CPU 27.5 MFLOP/s; 16 CPUs 384 MFLOP/s; "
               "2-7% degradation across two hypernodes; vectorised C90 "
               "tree code 120 MFLOP/s."),
    )
