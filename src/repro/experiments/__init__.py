"""Experiments: one module per table/figure of the paper.

Importing this package registers every experiment; use
:func:`run_experiment`/:func:`list_experiments`, or the CLI
(``python -m repro <id>``).
"""

from .base import (
    ExperimentResult,
    get_experiment,
    list_experiments,
    register,
    resolve_experiment_id,
    run_experiment,
)
from . import fig2_forkjoin, fig3_barrier, fig4_message
from . import ablations, contention, degraded, fig6_pic, fig7_fem
from . import fig8_nbody, memclass, scale128, table1_pic_c90, table2_ppm

__all__ = [
    "ExperimentResult", "register", "get_experiment", "list_experiments",
    "resolve_experiment_id", "run_experiment",
    "fig2_forkjoin", "fig3_barrier", "fig4_message",
    "fig6_pic", "table1_pic_c90", "degraded",
]
