"""Figure 2: cost of fork-join vs number of threads spawned.

The paper's synthetic code forks *n* threads with empty bodies and joins
them, under high-locality and uniform placement, reporting the fork-join
time in microseconds.  Expected shape (paper §4.1):

* ~10 us per additional thread pair within one hypernode;
* ~20 us per additional pair under uniform distribution;
* a ~50 us one-time penalty once a second hypernode is involved.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import MachineConfig, Series, spp1000, summarize
from ..core.units import to_us
from ..exec.units import WorkUnit
from ..machine import Machine
from ..runtime import Placement, Runtime
from .base import ExperimentResult, point_runner

__all__ = ["run", "forkjoin_time_us", "plan_units"]

THREAD_COUNTS = [1, 2, 4, 6, 8, 10, 12, 14, 16]
_PLACEMENTS = [(Placement.HIGH_LOCALITY, "high locality"),
               (Placement.UNIFORM, "uniform")]


def _empty_body(env, tid):
    return None
    yield  # pragma: no cover - generator marker


def forkjoin_time_us(n_threads: int, placement: Placement,
                     config: Optional[MachineConfig] = None,
                     repeats: int = 3) -> float:
    """Mean fork-join time for ``n_threads`` empty threads, in us.

    A fresh machine per measurement would hide the one-time cross-node
    setup inside every sample; like the paper, we *include* it (each
    fork-join in the paper's loop pays the placement's steady-state cost,
    and the first-touch penalty shows up as the step between 8 and 10
    threads).  We therefore measure the first fork-join on a fresh
    machine, repeated on independent machines.
    """
    samples = []
    for _ in range(repeats):
        machine = Machine(config or spp1000())
        runtime = Runtime(machine)

        def main(env):
            t0 = env.now
            yield from env.fork_join(n_threads, _empty_body, placement)
            return env.now - t0

        samples.append(runtime.run(main))
    return to_us(summarize(samples).mean)


def _unit(params, config):
    """One work unit: fork-join time at one (placement, thread count)."""
    return forkjoin_time_us(params["n_threads"],
                            Placement(params["placement"]), config,
                            params["repeats"])


def _points(thread_counts, repeats):
    return [(f"{tag}:{n}", {"placement": placement.value, "n_threads": n,
                            "repeats": repeats})
            for placement, tag in _PLACEMENTS for n in thread_counts]


def plan_units(config, quick: bool = False):
    counts = [n for n in THREAD_COUNTS if n <= config.n_cpus]
    return [WorkUnit("fig2", key, params)
            for key, params in _points(counts, repeats=3)]


def run(config: Optional[MachineConfig] = None,
        thread_counts: Optional[Sequence[int]] = None,
        repeats: int = 3, points=None) -> ExperimentResult:
    """Regenerate Figure 2."""
    config = config or spp1000()
    if thread_counts is None:
        thread_counts = THREAD_COUNTS
    thread_counts = [n for n in thread_counts if n <= config.n_cpus]
    point = point_runner(points)

    values = {key: point(key, lambda p=params: _unit(p, config))
              for key, params in _points(thread_counts, repeats)}
    high = [values[f"high locality:{n}"] for n in thread_counts]
    uniform = [values[f"uniform:{n}"] for n in thread_counts]

    result = ExperimentResult(
        "fig2", "Cost of fork-join (us) vs threads spawned",
        series=[
            Series("high locality", list(thread_counts), high),
            Series("uniform distribution", list(thread_counts), uniform),
        ],
        series_axes=("threads", "fork-join us"),
        data={
            "thread_counts": list(thread_counts),
            "high_locality_us": high,
            "uniform_us": uniform,
        },
        notes=("Paper: ~10 us/pair within a hypernode, ~20 us/pair uniform "
               "across two, ~50 us one-time penalty at the crossing."),
    )
    return result
