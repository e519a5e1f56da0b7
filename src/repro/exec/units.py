"""Work units: the planner registry behind the execution fabric.

An experiment's sweep decomposes into **work units** — one per
``(experiment_id, point-config)`` — each an independent, deterministic
function of its parameters and the machine configuration.  Every
experiment registers two module-level callables:

* a **planner** ``plan(config, quick=False) -> [WorkUnit, ...]`` that
  enumerates the sweep exactly as the experiment's ``run()`` will walk
  it (same keys, same parameters);
* a **runner** ``run_unit(params, config) -> value`` that computes one
  unit.  It must be a module-level function (worker processes import it
  by reference) and must return plain JSON-able data (the cache stores
  it verbatim).

``run(points=...)`` itself consumes precomputed units through the
``point(key, fn)`` protocol: the fabric hands it a :class:`PointStore`
seeded with every unit's value, so the experiment keeps its structure
and only its per-point computations move into the registered runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..core.canon import canonical, canonical_json

__all__ = ["WorkUnit", "register_units", "plan_units", "run_unit",
           "unit_experiments", "PointStore"]


@dataclass(frozen=True)
class WorkUnit:
    """One independent point of an experiment's sweep.

    ``key`` is the experiment's own stable point key (the string its
    ``run()`` passes to ``point()``); ``params`` is the picklable,
    JSON-able description the registered runner needs to recompute the
    point from scratch in another process.
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


#: experiment id -> (planner, runner)
_UNITS: Dict[str, tuple] = {}


def register_units(experiment_id: str,
                   planner: Callable[..., List[WorkUnit]],
                   runner: Callable) -> None:
    """Register an experiment's sweep planner and unit runner."""
    if experiment_id in _UNITS:
        raise ValueError(f"duplicate unit registration {experiment_id!r}")
    _UNITS[experiment_id] = (planner, runner)


def unit_experiments() -> List[str]:
    """Experiment ids with registered unit planners, registration order.

    Ids starting with ``_`` are private (synthetic planners registered
    by the test suite) and are not enumerated — they remain runnable
    through :func:`plan_units`/:func:`run_unit` by explicit id.
    """
    return [exp_id for exp_id in _UNITS if not exp_id.startswith("_")]


def plan_units(experiment_id: str, config, quick: bool = False
               ) -> List[WorkUnit]:
    """Enumerate the experiment's work units (validated for unique keys)."""
    try:
        planner, _runner = _UNITS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(sorted(unit_experiments()))}") from None
    units = list(planner(config, quick=quick))
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
    """Compute one work unit in this process (the registered runner)."""
    _planner, runner = _UNITS[experiment_id]
    return runner(params, config)


class PointStore:
    """Precomputed point values behind the ``point(key, fn)`` protocol.

    The fabric seeds it with every planned unit's value; the
    experiment's ``run()`` then drains it through ``point(key, fn)``
    without simulating anything.  A key the plan missed falls back to
    computing ``fn()`` in-process (counted in :attr:`computed`, stored
    nowhere), so a ``run()`` invoked with non-default sweep parameters
    still works.
    """

    def __init__(self, values: Dict[str, object]):
        self.values = dict(values)
        self.hits = 0       #: points served from the precomputed plan
        self.computed = 0   #: points computed in-process (plan misses)

    def point(self, key: str, fn: Callable[[], object]):
        if key in self.values:
            self.hits += 1
            return self.values[key]
        value = fn()
        self.computed += 1
        self.values[key] = value
        return value
