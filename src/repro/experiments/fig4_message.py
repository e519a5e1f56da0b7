"""Figure 4: cost of round-trip message passing.

Ping-pong between a pair of PVM tasks — once with both tasks on one
hypernode, once across two — over a range of message sizes.  The paper
measures the round trip (excluding initial message construction) and
finds ~30 us local / ~70 us global (ratio 2.3), approximately constant
below 8 KB, with a substantial super-linear rise beyond (page effects).
"""

from __future__ import annotations

from typing import Optional

from ..core import MachineConfig, Series, spp1000
from ..core.units import to_us
from ..exec.units import WorkUnit
from ..machine import Machine
from ..pvm import PvmSystem
from ..runtime import Placement, Runtime
from .base import ExperimentResult

__all__ = ["run", "round_trip_us", "plan_units"]

SIZES = [64, 256, 1024, 4096, 8192, 16384, 32768, 65536, 131072, 262144]
_PLACEMENTS = [(Placement.HIGH_LOCALITY, "local"),
               (Placement.UNIFORM, "global")]


def round_trip_us(nbytes: int, placement: Placement,
                  config: Optional[MachineConfig] = None,
                  repeats: int = 4) -> float:
    """Minimum ping-pong round-trip time for ``nbytes`` messages, in us."""
    config = config or spp1000()
    pvm = PvmSystem(Runtime(Machine(config)))
    times = []

    def body(task, tid):
        if tid == 0:
            # one warm-up round trip (buffers mapped, paths warm)
            yield from task.send(1, b"", nbytes)
            yield from task.recv(1)
            for _ in range(repeats):
                t0 = task.env.now
                yield from task.send(1, b"", nbytes)
                yield from task.recv(1)
                times.append(task.env.now - t0)
        else:
            for _ in range(repeats + 1):
                yield from task.recv(0)
                yield from task.send(0, b"", nbytes)
        return None

    pvm.run_tasks(2, body, placement)
    return to_us(min(times))


def _unit(params, config):
    """One work unit: round-trip time at one (placement, message size)."""
    return round_trip_us(params["nbytes"], Placement(params["placement"]),
                         config, params["repeats"])


def plan_units(config, quick: bool = False):
    return [WorkUnit("fig4", f"{tag}:{s}",
                     {"placement": placement.value, "nbytes": s,
                      "repeats": 4})
            for placement, tag in _PLACEMENTS for s in SIZES]


def run(values, config: MachineConfig,
        quick: bool = False) -> ExperimentResult:
    """Assemble Figure 4 from its planned units."""
    local = [values[f"local:{s}"] for s in SIZES]
    globl = [values[f"global:{s}"] for s in SIZES]

    small = [i for i, s in enumerate(SIZES) if s <= 8192]
    ratio = (sum(globl[i] for i in small)
             / sum(local[i] for i in small))

    return ExperimentResult(
        "fig4", "Round-trip message passing time (us) vs message size",
        series=[
            Series("local (one hypernode)", list(SIZES), local),
            Series("global (two hypernodes)", list(SIZES), globl),
        ],
        series_axes=("bytes", "round-trip us"),
        data={
            "sizes": list(SIZES),
            "local_us": local,
            "global_us": globl,
            "small_message_global_local_ratio": ratio,
        },
        notes=(f"Measured global/local ratio below 8 KB: {ratio:.2f} "
               "(paper: 2.3).  Knee at 8 KB = 2-page PVM fast buffer."),
    )
