"""Experiment framework: structured results and a registry.

Every table/figure of the paper has one module here exposing ``run()``;
results carry both machine-readable data and renderable tables/series so
``python -m repro fig4`` prints the same rows the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..core.tables import Series, Table, render_series
from ..exec.units import PointStore

__all__ = ["ExperimentResult", "register", "get_experiment",
           "list_experiments", "resolve_experiment_id", "run_experiment",
           "point_runner"]


def point_runner(store):
    """The per-point memoisation hook shared by every sweep experiment.

    ``store`` is the :class:`~repro.exec.units.PointStore` the
    execution fabric passes as ``run(points=...)``, or None for a fresh
    empty one, and the returned ``point(key, fn)`` either serves the
    stored value or computes ``fn()`` once and stores it.  So a direct
    ``run()`` computes each key once, as the fabric does.
    """
    return (store if store is not None else PointStore({})).point


@dataclass
class ExperimentResult:
    """The outcome of one experiment (one table or figure of the paper)."""

    experiment_id: str
    title: str
    tables: List[Table] = field(default_factory=list)
    series: List[Series] = field(default_factory=list)
    series_axes: tuple = ("x", "y")
    data: Dict = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        for table in self.tables:
            parts.append(table.render())
        if self.series:
            parts.append(render_series(
                f"{self.experiment_id} series", self.series,
                x_name=self.series_axes[0], y_name=self.series_axes[1]))
        if self.notes:
            parts.append(self.notes)
        return "\n\n".join(parts)

    def manifest(self, *, config=None, tracer=None, execution=None,
                 extra=None, **scopes) -> Dict:
        """The run's ``metrics.json`` manifest (see :mod:`repro.obs`).

        Every experiment gets this for free: headline data from
        :attr:`data`, plus — when a tracer observed the run — per-phase
        span times, counter deltas, imbalance factors, and the §4
        instrumentation-overhead accounting; ``memscope=``,
        ``critscope=`` and ``hostscope=`` fold in the profiles of the
        profilers that watched the run.
        """
        from ..obs.metrics import build_manifest

        return build_manifest(self, config=config, tracer=tracer,
                              execution=execution, extra=extra, **scopes)


_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}
_TITLES: Dict[str, str] = {}


def register(experiment_id: str, title: str):
    """Decorator: register ``run()`` under an experiment id (e.g. 'fig2')."""
    def deco(fn: Callable[..., ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = fn
        _TITLES[experiment_id] = title
        return fn
    return deco


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}") from None


def list_experiments() -> Dict[str, str]:
    """Mapping of experiment id -> title, in registration order."""
    return dict(_TITLES)


def resolve_experiment_id(name: str) -> str:
    """Map ``name`` to a registered experiment id.

    Accepts the registered id itself (``fig6``) or the defining module's
    stem (``fig6_pic``), so CLI subcommands can take either spelling.
    Raises :class:`KeyError` (with the known ids) when neither matches.
    """
    if name in _REGISTRY:
        return name
    for exp_id, fn in _REGISTRY.items():
        module = getattr(fn, "__module__", "")
        if module.rsplit(".", 1)[-1] == name:
            return exp_id
    known = ", ".join(sorted(_REGISTRY))
    raise KeyError(
        f"unknown experiment {name!r}; known: {known}") from None


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    return get_experiment(experiment_id)(**kwargs)
