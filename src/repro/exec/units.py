"""Work units: planning and running the points of an experiment's sweep.

An experiment's sweep decomposes into **work units** — one per
``(experiment_id, point-config)`` — each an independent, deterministic
function of its parameters and the machine configuration.  Every
experiment is one row of the table
:data:`repro.experiments.base.EXPERIMENTS`, and its module defines
three module-level callables:

* a **planner** ``plan_units(config, quick=False) -> [WorkUnit, ...]``,
  the one place the experiment names its sweep;
* a **runner** ``_unit(params, config) -> value`` that computes one
  unit from scratch and returns plain JSON-able data (the cache stores
  it verbatim);
* an **assembly** ``run(values, config, quick=False)`` that builds the
  experiment's result from ``values``, the value of every planned key,
  and computes nothing.

:func:`plan_units` and :func:`run_unit` find the planner and runner
through the table and import the module on first use, so a worker
process — forked or spawned — needs no registry of its own.  A
synthetic experiment (the test suite's ``_``-prefixed ones) registers
the same three callables with
:func:`repro.experiments.base.register`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.canon import canonical, canonical_json
from ..experiments.base import EXPERIMENTS, experiment_module

__all__ = ["WorkUnit", "plan_units", "run_unit", "unit_experiments"]


@dataclass(frozen=True)
class WorkUnit:
    """One independent point of an experiment's sweep.

    ``key`` is the experiment's own stable point key (the key its
    ``run()`` reads the value under); ``params`` is the picklable,
    JSON-able description the runner needs to recompute the point from
    scratch in another process.
    """

    experiment_id: str
    key: str
    params: Dict = field(default_factory=dict)

    def material(self) -> Dict:
        """The unit's contribution to its cache-key material."""
        return {"experiment_id": self.experiment_id, "key": self.key,
                "params": canonical(self.params)}

    def __hash__(self) -> int:
        return hash((self.experiment_id, self.key,
                     canonical_json(self.params)))


def unit_experiments() -> List[str]:
    """Every experiment id of the table, in listing order.

    Synthetic experiments are not enumerated; they remain runnable
    through :func:`plan_units`/:func:`run_unit` by explicit id.
    """
    return list(EXPERIMENTS)


def plan_units(experiment_id: str, config, quick: bool = False
               ) -> List[WorkUnit]:
    """Enumerate the experiment's work units (validated for unique keys)."""
    units = list(experiment_module(experiment_id).plan_units(
        config, quick=quick))
    seen = set()
    for unit in units:
        if unit.experiment_id != experiment_id:
            raise ValueError(
                f"planner for {experiment_id!r} produced a unit for "
                f"{unit.experiment_id!r}")
        if unit.key in seen:
            raise ValueError(
                f"planner for {experiment_id!r} produced duplicate "
                f"key {unit.key!r}")
        seen.add(unit.key)
    return units


def run_unit(experiment_id: str, params: Dict, config):
    """Compute one work unit in this process (the experiment's runner)."""
    return experiment_module(experiment_id)._unit(params, config)
