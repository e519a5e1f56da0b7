"""Message-traffic contention (paper §4.3's [24] observation).

The paper notes its Figure 4 numbers exclude contention, but cites the
earlier single-hypernode study: "little degradation as message traffic
was increased appreciably".  This experiment runs 1-4 simultaneous
ping-pong pairs — first all within one hypernode, then all crossing the
SCI rings — and reports how the per-pair round-trip time degrades as
pairs are added.  Local traffic should degrade mildly (bank/crossbar
headroom); crossing traffic shares four rings and degrades more.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import MachineConfig, Series, spp1000, summarize
from ..core.units import to_us
from ..exec.units import WorkUnit
from ..machine import Machine
from ..pvm import PvmSystem
from ..runtime import Placement, Runtime
from .base import ExperimentResult, point_runner

__all__ = ["run", "contended_round_trip_us", "plan_units"]

MAX_PAIRS = 4


def contended_round_trip_us(n_pairs: int, cross_hypernode: bool,
                            config: Optional[MachineConfig] = None,
                            nbytes: int = 1024, reps: int = 4) -> float:
    """Mean round-trip time per pair with ``n_pairs`` pairs active."""
    config = config or spp1000()
    if n_pairs < 1 or 2 * n_pairs > config.n_cpus:
        raise ValueError("pair count does not fit the machine")
    pvm = PvmSystem(Runtime(Machine(config)))
    times: List[float] = []
    n_tasks = 2 * n_pairs

    # Pairing scheme: under UNIFORM placement, even tids land on
    # hypernode 0 and odd tids on hypernode 1, so pairing (2k, 2k+1)
    # makes every conversation cross the rings.  Under HIGH_LOCALITY the
    # same pairing keeps all traffic inside hypernode 0 (for <=4 pairs).
    def body(task, tid):
        if tid % 2 == 0:   # initiator
            peer = tid + 1
            yield from task.send(peer, b"", nbytes, tag=900)   # warm up
            yield from task.recv(peer, tag=901)
            for r in range(reps):
                t0 = task.env.now
                yield from task.send(peer, b"", nbytes, tag=r)
                yield from task.recv(peer, tag=r)
                times.append(task.env.now - t0)
        else:
            peer = tid - 1
            yield from task.recv(peer, tag=900)
            yield from task.send(peer, b"", nbytes, tag=901)
            for r in range(reps):
                yield from task.recv(peer, tag=r)
                yield from task.send(peer, b"", nbytes, tag=r)
        return None

    placement = Placement.UNIFORM if cross_hypernode \
        else Placement.HIGH_LOCALITY
    pvm.run_tasks(n_tasks, body, placement)
    return to_us(summarize(times).mean)


def _unit(params, config):
    """One work unit: per-pair round trip at one (mode, pair count)."""
    return contended_round_trip_us(params["n_pairs"], params["cross"],
                                   config)


def plan_units(config, quick: bool = False):
    pairs = [n for n in range(1, MAX_PAIRS + 1)
             if 2 * n <= config.n_cpus]
    return [WorkUnit("contention", f"{tag}:{n}",
                     {"n_pairs": n, "cross": cross})
            for cross, tag in ((False, "local"), (True, "cross"))
            for n in pairs]


def run(config: Optional[MachineConfig] = None,
        max_pairs: int = MAX_PAIRS, points=None) -> ExperimentResult:
    """Per-pair round trip vs number of simultaneous pairs."""
    config = config or spp1000()
    point = point_runner(points)

    pair_counts = list(range(1, max_pairs + 1))
    local = [point(f"local:{n}",
                   lambda n=n: _unit({"n_pairs": n, "cross": False}, config))
             for n in pair_counts]
    crossed = [point(f"cross:{n}",
                     lambda n=n: _unit({"n_pairs": n, "cross": True},
                                       config))
               for n in pair_counts]
    data: Dict = {
        "pairs": pair_counts,
        "local_us": local,
        "cross_us": crossed,
        "local_degradation": local[-1] / local[0] - 1.0,
        "cross_degradation": crossed[-1] / crossed[0] - 1.0,
    }
    return ExperimentResult(
        "contention", "Per-pair round trip (us) vs simultaneous pairs",
        series=[Series("within one hypernode", pair_counts, local),
                Series("across hypernodes", pair_counts, crossed)],
        series_axes=("pairs", "round-trip us"),
        data=data,
        notes=(f"local degradation at {max_pairs} pairs: "
               f"{data['local_degradation']:.0%} (paper [24]: 'little "
               f"degradation'); cross-ring: {data['cross_degradation']:.0%}"),
    )
