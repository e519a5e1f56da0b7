"""Beyond the paper: predicted scaling to the full 128-CPU SPP-1000.

The paper measured a 2-hypernode (16-CPU) system and names "running on
larger configuration platforms" as near-term future work, noting that
"from this initial data it is not possible to predict how speedup will
change as additional hypernodes are added."  The machine model *can*
extrapolate: this experiment runs all four applications on simulated
1, 2, 4, 8 and 16-hypernode configurations (8 to 128 CPUs, the maximum
the architecture supports) and reports speed-up and efficiency.

The mechanisms that bend the curves are exactly the measured ones:
far-shared remote fractions grow as ``1 - 1/hypernodes``, SCI ring hops
grow with hypernode count, barriers pay per-hypernode invalidation
walks, and the machine-full OS interference applies at every size.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..apps.fem import FEMWorkload
from ..apps.fem import large_problem as fem_large
from ..apps.nbody import NBodyWorkload, problem_2m
from ..apps.pic import PICWorkload
from ..apps.pic import large_problem as pic_large
from ..apps.ppm import PPMProblem, PPMWorkload
from ..core import MachineConfig, Series, Table, spp1000
from ..exec.units import WorkUnit
from ..runtime import Placement
from .base import ExperimentResult, point_runner

__all__ = ["run", "HYPERNODE_COUNTS", "plan_units"]

HYPERNODE_COUNTS = [1, 2, 4, 8, 16]

#: a PPM problem whose 8x32 = 256 tiles divide every CPU count up to 128
_PPM_SCALE_PROBLEM = PPMProblem(480, 960, 8, 32)


#: application -> workload factory for one machine; a unit builds only
#: the application it runs
_APPS = {
    "PIC 64x64x32": lambda cfg: PICWorkload(pic_large(), cfg),
    "FEM large": lambda cfg: FEMWorkload(fem_large(), cfg),
    "N-body 2M": lambda cfg: NBodyWorkload(problem_2m(), cfg),
    "PPM 480x960": lambda cfg: PPMWorkload(_PPM_SCALE_PROBLEM, cfg),
}


def _time_ns(app: str, hypernodes: int, threads: int) -> float:
    """Modelled time of one application on one machine size."""
    workload = _APPS[app](spp1000(n_hypernodes=hypernodes))
    if hasattr(workload, "run_shared"):
        return workload.run_shared(threads, Placement.HIGH_LOCALITY).time_ns
    return workload.run(threads, Placement.HIGH_LOCALITY).time_ns


def _unit(params, config):
    """One work unit: one application at one machine size (time_ns)."""
    del config  # machine size is the swept variable here
    return _time_ns(params["app"], params["hypernodes"], params["threads"])


def plan_units(config, quick: bool = False):
    units = [WorkUnit("scale128", f"baseline:{name}",
                      {"app": name, "hypernodes": 1, "threads": 1})
             for name in _APPS]
    for hns in HYPERNODE_COUNTS:
        n_cpus = spp1000(n_hypernodes=hns).n_cpus
        units.extend(WorkUnit("scale128", f"{name}:{hns}",
                              {"app": name, "hypernodes": hns,
                               "threads": n_cpus})
                     for name in _APPS)
    return units


def run(config: Optional[MachineConfig] = None,
        points=None) -> ExperimentResult:
    """Extrapolate every application to the 16-hypernode machine.

    ``points`` (the execution fabric's
    :class:`~repro.exec.units.PointStore`) serves every sweep point the
    fabric already computed, from workers, the cache or a journal.
    """
    del config  # machine size is the swept variable here
    point = point_runner(points)

    baselines = {name: point(f"baseline:{name}",
                             lambda name=name: _time_ns(name, 1, 1))
                 for name in _APPS}

    series: List[Series] = []
    data: Dict = {"cpus": []}
    per_app: Dict[str, List[float]] = {name: [] for name in baselines}
    cpus_axis = []
    for hns in HYPERNODE_COUNTS:
        n_cpus = spp1000(n_hypernodes=hns).n_cpus
        cpus_axis.append(n_cpus)
        for name in _APPS:
            time_ns = point(
                f"{name}:{hns}",
                lambda name=name, hns=hns, n=n_cpus: _time_ns(name, hns, n))
            per_app[name].append(baselines[name] / time_ns)
    data["cpus"] = cpus_axis

    table = Table("Predicted speed-up (vs 1 CPU) at full machine sizes",
                  ["application"] + [f"{c} CPUs" for c in cpus_axis])
    for name, speedups in per_app.items():
        series.append(Series(name, cpus_axis, speedups))
        table.add_row(name, *[f"{s:.1f}" for s in speedups])
        data[name] = {
            "speedup": speedups,
            "efficiency": [s / c for s, c in zip(speedups, cpus_axis)],
        }

    return ExperimentResult(
        "scale128", "Predicted scaling to 128 processors",
        tables=[table], series=series,
        series_axes=("CPUs", "speed-up"),
        data=data,
        notes=("Model extrapolation beyond the paper's 16-CPU testbed, "
               "using the mechanisms calibrated against Figures 2-8: "
               "growing remote fractions, longer SCI ring walks, "
               "per-hypernode barrier costs, OS interference.  FEM turns "
               "superlinear once the aggregate cache absorbs its mesh — "
               "the same effect the paper engineered for its small data "
               "set at 16 CPUs."),
    )
