"""Degraded-mode operation: Figures 3 and 4 under failed SCI rings.

The paper's barrier (Fig. 3) and message (Fig. 4) curves assume all four
SCI rings are healthy.  This experiment re-measures both under injected
ring failures: traffic for a failed ring detours to the nearest
surviving ring (paying ``ring_reroute_extra_cycles`` per packet and
adding to the survivor's occupancy), so the uniform-placement curves
degrade for mechanistic reasons — the same serialisation arguments the
paper uses for the healthy machine.

Scenarios are 0, 1, and 2 failed rings by default.  When a fault plan
is ambient (the CLI's ``--faults`` flag), the experiment instead
compares the clean machine against that plan, and the plan's events are
recorded in the result data (and therefore in the metrics manifest).
"""

from __future__ import annotations

from typing import Dict, List

from ..core import MachineConfig, Series, Table
from ..exec.units import WorkUnit
from ..faults import (
    active_fault_plan,
    plan_from_dict,
    ring_loss_plan,
    use_faults,
)
from ..runtime import Placement
from .base import ExperimentResult
from .fig3_barrier import barrier_metrics_us
from .fig4_message import round_trip_us

__all__ = ["run", "plan_units"]


def _scenarios():
    """(label, plan) per scenario; honours an ambient ``--faults`` plan."""
    ambient = active_fault_plan()
    if ambient is not None and not ambient.is_empty:
        label = ambient.description or "fault plan"
        if len(label) > 40:
            label = label[:37] + "..."
        return [("0 rings failed", None), (label, ambient)]
    return [("0 rings failed", None),
            ("1 ring failed", ring_loss_plan(1)),
            ("2 rings failed", ring_loss_plan(2))]


def _sweep_lists(config, quick):
    thread_counts = [2, 4, 8] if quick else [2, 4, 8, 12, 16]
    thread_counts = [n for n in thread_counts if n <= config.n_cpus]
    sizes = [256, 4096] if quick else [64, 1024, 8192, 65536]
    return thread_counts, sizes


def _unit(params, config):
    """One work unit: one barrier or message point under one scenario.

    The scenario's fault plan travels inside ``params`` (as its dict
    form) so the unit is self-contained: ``use_faults`` is entered even
    for the clean scenario, so an ambient ``--faults`` plan cannot leak
    into the baseline.
    """
    plan = (plan_from_dict(params["plan"], config)
            if params["plan"] is not None else None)
    with use_faults(plan):
        if params["kind"] == "barrier":
            return barrier_metrics_us(
                params["n_threads"], Placement.UNIFORM, config,
                params["rounds"])["last_in_last_out"]
        return round_trip_us(params["nbytes"], Placement.UNIFORM, config,
                             params["repeats"])


def plan_units(config, quick: bool = False):
    thread_counts, sizes = _sweep_lists(config, quick)
    rounds = 3 if quick else 8
    repeats = 2 if quick else 4
    units = []
    for label, plan in _scenarios():
        plan_dict = None if plan is None else plan.to_dict()
        units.extend(
            WorkUnit("degraded", f"{label}:barrier:{n}",
                     {"kind": "barrier", "plan": plan_dict, "n_threads": n,
                      "rounds": rounds})
            for n in thread_counts)
        units.extend(
            WorkUnit("degraded", f"{label}:message:{s}",
                     {"kind": "message", "plan": plan_dict, "nbytes": s,
                      "repeats": repeats})
            for s in sizes)
    return units


def run(values, config: MachineConfig,
        quick: bool = False) -> ExperimentResult:
    """Assemble the Fig. 3 barrier and Fig. 4 message curves per fault
    scenario from their planned units."""
    thread_counts, sizes = _sweep_lists(config, quick)
    scenarios = _scenarios()

    series: List[Series] = []
    msg_table = Table(
        "Round-trip message time (us, uniform placement) per scenario",
        ["bytes"] + [label for label, _plan in scenarios])
    msg_columns: Dict[str, List[float]] = {}
    data: Dict = {"thread_counts": list(thread_counts),
                  "sizes": list(sizes), "scenarios": [], "fault_events": []}
    for label, plan in scenarios:
        lilo = [values[f"{label}:barrier:{n}"] for n in thread_counts]
        rt = [values[f"{label}:message:{s}"] for s in sizes]
        series.append(Series(f"barrier LILO, {label}",
                             list(thread_counts), lilo))
        msg_columns[label] = rt
        data["scenarios"].append(label)
        data[label] = {"barrier_lilo_us": lilo, "round_trip_us": rt}
        if plan is not None:
            data["fault_events"].append(
                {"scenario": label, "events": plan.to_dict()["events"]})
    for i, s in enumerate(sizes):
        msg_table.add_row(s, *[f"{msg_columns[label][i]:.1f}"
                               for label, _plan in scenarios])

    baseline = scenarios[0][0]
    worst = scenarios[-1][0]
    slowdown = (data[worst]["round_trip_us"][-1]
                / data[baseline]["round_trip_us"][-1])
    return ExperimentResult(
        "degraded", "Barrier and message costs under failed SCI rings",
        tables=[msg_table], series=series,
        series_axes=("threads", "barrier LILO us"),
        data=data,
        notes=(f"Largest-message round trip under '{worst}' is "
               f"{slowdown:.2f}x the healthy machine: surviving rings "
               "absorb the detoured traffic (serialisation per ring) and "
               "every detoured packet pays the reroute penalty."),
    )
