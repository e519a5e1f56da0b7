"""Experiments: one module per table/figure of the paper.

:data:`~repro.experiments.base.EXPERIMENTS` is the table of every
experiment: id -> (module stem, title), in listing order.  Importing
this package imports no experiment module; each is imported the first
time its experiment is planned, run or assembled.  Use
:func:`run_experiment`/:func:`list_experiments`, or the CLI
(``python -m repro <id>``).

To add an experiment, add one row to the table and a module here that
defines its work-unit planner ``plan_units(config, quick=False)`` (the
one place its sweep is named), the unit runner ``_unit(params, config)``
and the assembly ``run(values, config, quick=False)``, which builds the
:class:`ExperimentResult` from the value of every planned key and
computes nothing (see :mod:`repro.exec.units`).
"""

from .base import (
    EXPERIMENTS,
    ExperimentResult,
    get_experiment,
    list_experiments,
    register,
    resolve_experiment_id,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS", "ExperimentResult", "register", "get_experiment",
    "list_experiments", "resolve_experiment_id", "run_experiment",
]
