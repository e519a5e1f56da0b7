"""Experiment framework: structured results and the experiment table.

Every table/figure of the paper has one module here exposing ``run()``;
results carry both machine-readable data and renderable tables/series so
``python -m repro fig4`` prints the same rows the paper plots.

:data:`EXPERIMENTS` names every experiment with its module and title.
Listing, resolving and the CLI's help read only the table; a module is
imported when its experiment is first planned, run or assembled, so a
run of the discrete-event experiments never imports the application
models (or NumPy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Tuple

from ..core.tables import Series, Table, render_series

__all__ = ["EXPERIMENTS", "ExperimentResult", "register",
           "get_experiment", "experiment_module", "list_experiments",
           "resolve_experiment_id", "run_experiment", "point_runner"]


def point_runner(store):
    """The per-point memoisation hook shared by every sweep experiment.

    ``store`` is the :class:`~repro.exec.units.PointStore` the
    execution fabric passes as ``run(points=...)``, or None for a fresh
    empty one, and the returned ``point(key, fn)`` either serves the
    stored value or computes ``fn()`` once and stores it.  So a direct
    ``run()`` computes each key once, as the fabric does.
    """
    from ..exec.units import PointStore

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


#: experiment id -> (module stem, title), in listing order.  This is
#: the one place a real experiment is named: its module under
#: ``repro/experiments/`` defines ``run``, ``plan_units`` and ``_unit``,
#: and is imported the first time the experiment is planned, run or
#: assembled.
EXPERIMENTS: Dict[str, Tuple[str, str]] = {
    "fig2": ("fig2_forkjoin", "Cost of fork-join"),
    "fig3": ("fig3_barrier", "Cost of barrier synchronisation"),
    "fig4": ("fig4_message", "Cost of round-trip message passing"),
    "ablations": ("ablations", "Section 6 quantitative observations"),
    "contention": ("contention",
                   "Message-traffic contention (ref [24] observation)"),
    "degraded": ("degraded",
                 "Barrier and message costs under failed SCI rings"),
    "fig6": ("fig6_pic", "PIC time to solution and speed-up"),
    "fig7": ("fig7_fem", "FEM performance on small and large data sets"),
    "fig8": ("fig8_nbody", "N-body performance scaling"),
    "memclass": ("memclass",
                 "Memory-class placement ablation (beyond the paper)"),
    "scale128": ("scale128",
                 "Predicted scaling to 128 processors (future work)"),
    "table1": ("table1_pic_c90", "PIC performance on 1 C90 processor"),
    "table2": ("table2_ppm", "PPM performance"),
}

#: id -> (title, run) of the synthetic experiments :func:`register` adds
_REGISTRY: Dict[str, Tuple[str, Callable[..., ExperimentResult]]] = {}


def register(experiment_id: str, title: str):
    """Decorator: register a synthetic ``run()`` (the test suite's
    ``_``-prefixed experiments) under an id :data:`EXPERIMENTS` does
    not name."""
    def deco(fn: Callable[..., ExperimentResult]):
        if experiment_id in EXPERIMENTS or experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = (title, fn)
        return fn
    return deco


def _unknown(name: str) -> KeyError:
    known = ", ".join(sorted([*EXPERIMENTS, *_REGISTRY]))
    return KeyError(f"unknown experiment {name!r}; known: {known}")


def experiment_module(experiment_id: str):
    """The module of a table experiment, imported on first use."""
    try:
        stem, _title = EXPERIMENTS[experiment_id]
    except KeyError:
        raise _unknown(experiment_id) from None
    return import_module(f"{__package__}.{stem}")


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """The experiment's ``run``, read from its module on every call."""
    if experiment_id in _REGISTRY:
        return _REGISTRY[experiment_id][1]
    return experiment_module(experiment_id).run


def list_experiments() -> Dict[str, str]:
    """Mapping of experiment id -> title: the table in listing order,
    then any registered synthetic experiments."""
    return {**{exp_id: title for exp_id, (_stem, title)
               in EXPERIMENTS.items()},
            **{exp_id: title for exp_id, (title, _fn) in _REGISTRY.items()}}


def resolve_experiment_id(name: str) -> str:
    """Map ``name`` to an experiment id.

    Accepts the id itself (``fig6``) or its module's stem
    (``fig6_pic``), so CLI subcommands can take either spelling.
    Raises :class:`KeyError` (with the known ids) when neither matches.
    """
    if name in EXPERIMENTS or name in _REGISTRY:
        return name
    for exp_id, (stem, _title) in EXPERIMENTS.items():
        if stem == name:
            return exp_id
    raise _unknown(name)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    return get_experiment(experiment_id)(**kwargs)
