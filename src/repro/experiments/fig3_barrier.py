"""Figure 3: cost of barrier synchronisation.

Reported metrics, per the paper §4.2, from timestamps taken before each
thread enters and after each thread exits the barrier (corrected for
timer intrusion):

* **last in - first out** — min time from the last thread entering to
  the first continuing (~3.5 us on one hypernode, +~1 us across two);
* **last in - last out** — min time from the last thread entering to the
  last continuing (~2 us per thread release slope).

Both are measured under high-locality and uniform placement.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import MachineConfig, Series, corrected, spp1000
from ..core.units import to_us
from ..exec.units import WorkUnit
from ..machine import Machine
from ..runtime import Barrier, Placement, Runtime
from .base import ExperimentResult

__all__ = ["run", "barrier_metrics_us", "plan_units"]

THREAD_COUNTS = [2, 4, 6, 8, 10, 12, 14, 16]
_PLACEMENTS = [(Placement.HIGH_LOCALITY, "high locality"),
               (Placement.UNIFORM, "uniform")]


def barrier_metrics_us(n_threads: int, placement: Placement,
                       config: Optional[MachineConfig] = None,
                       rounds: int = 12) -> Dict[str, float]:
    """Minimum LIFO/LILO barrier times over ``rounds`` rounds, in us."""
    config = config or spp1000()
    machine = Machine(config)
    runtime = Runtime(machine)
    barrier = Barrier(runtime, n_threads)
    entries = [[0.0] * n_threads for _ in range(rounds)]
    exits = [[0.0] * n_threads for _ in range(rounds)]
    timer_ns = config.cycles(config.timer_overhead_cycles)

    def body(env, tid):
        for r in range(rounds):
            # Deterministic stagger so a different thread is last each
            # round, as scheduling noise achieves on the real machine.
            yield env.compute(60 * ((tid * 3 + r) % n_threads))
            entries[r][tid] = yield env.timestamp()
            yield from barrier.wait(env)
            exits[r][tid] = yield env.timestamp()

    def main(env):
        yield from env.fork_join(n_threads, body, placement)

    runtime.run(main)
    lifo_samples = []
    lilo_samples = []
    for en, ex in zip(entries, exits):
        last_in = max(en)
        # one timestamp read (the exit read) falls inside each interval
        lifo_samples.append(corrected(min(ex) - last_in, 1, timer_ns))
        lilo_samples.append(corrected(max(ex) - last_in, 1, timer_ns))
    return {
        "last_in_first_out": to_us(min(lifo_samples)),
        "last_in_last_out": to_us(min(lilo_samples)),
    }


def _unit(params, config):
    """One work unit: both barrier metrics at one (placement, count)."""
    return barrier_metrics_us(params["n_threads"],
                              Placement(params["placement"]), config,
                              params["rounds"])


def _thread_counts(config):
    return [n for n in THREAD_COUNTS if n <= config.n_cpus]


def plan_units(config, quick: bool = False):
    return [WorkUnit("fig3", f"{tag}:{n}",
                     {"placement": placement.value, "n_threads": n,
                      "rounds": 12})
            for placement, tag in _PLACEMENTS
            for n in _thread_counts(config)]


def run(values, config: MachineConfig,
        quick: bool = False) -> ExperimentResult:
    """Assemble Figure 3 from its planned units."""
    thread_counts = _thread_counts(config)
    data: Dict[str, list] = {"thread_counts": list(thread_counts)}
    series = []
    for _placement, tag in _PLACEMENTS:
        metrics = [values[f"{tag}:{n}"] for n in thread_counts]
        lifo = [m["last_in_first_out"] for m in metrics]
        lilo = [m["last_in_last_out"] for m in metrics]
        series.append(Series(f"LIFO {tag}", list(thread_counts), lifo))
        series.append(Series(f"LILO {tag}", list(thread_counts), lilo))
        data[f"lifo_{tag.replace(' ', '_')}_us"] = lifo
        data[f"lilo_{tag.replace(' ', '_')}_us"] = lilo

    return ExperimentResult(
        "fig3", "Barrier synchronisation cost (us) vs threads",
        series=series,
        series_axes=("threads", "us"),
        data=data,
        notes=("Paper: LIFO ~3.5 us on one hypernode (+~1 us with a second); "
               "LILO grows ~2 us per thread beyond the second."),
    )
