"""A shared-memory application ON the simulated machine.

The counterpart of :mod:`repro.apps.kernels.heat1d`: the same explicit
diffusion solve, but in the paper's *shared-memory* style — the field
lives in simulated far-shared memory, every read and write is a coherent
simulated access, threads own contiguous slices, and a runtime barrier
separates the read phase from the write phase of each iteration.

Because all values flow through the simulated memory system, this kernel
is a sequential-consistency test of the coherence protocol as much as a
programming-model demonstration: the result must equal the serial NumPy
solver exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...core.config import MachineConfig, spp1000
from ...machine import Machine, MemClass
from ...runtime import Barrier, Placement, Runtime

__all__ = ["shared_heat", "SharedHeatResult"]

_WORD_STRIDE = 8   # one value per 8-byte word


@dataclass(frozen=True)
class SharedHeatResult:
    """Outcome of a simulated shared-memory heat run."""

    field: np.ndarray
    time_ns: float
    cache_misses: int
    remote_misses: int


def shared_heat(initial: np.ndarray, n_steps: int, n_threads: int,
                alpha: float = 0.25,
                placement: Placement = Placement.HIGH_LOCALITY,
                config: Optional[MachineConfig] = None) -> SharedHeatResult:
    """Run the diffusion solve with threads over simulated shared memory.

    Two far-shared arrays (current and next) are allocated on the
    machine; each thread updates its slice cell by cell with coherent
    loads/stores, and a barrier ends each half-step.  The gathered
    result is bit-identical to :func:`serial_heat`.
    """
    n = len(initial)
    if n % n_threads:
        raise ValueError(f"{n} cells do not divide over {n_threads} threads")
    if not 0 < alpha <= 0.5:
        raise ValueError("explicit diffusion needs 0 < alpha <= 0.5")
    machine = Machine(config or spp1000())
    runtime = Runtime(machine)
    barrier = Barrier(runtime, n_threads)

    buf_a = machine.alloc(n * _WORD_STRIDE, MemClass.FAR_SHARED,
                          label="heat-a")
    buf_b = machine.alloc(n * _WORD_STRIDE, MemClass.FAR_SHARED,
                          label="heat-b")
    for i, value in enumerate(initial):
        machine.poke(buf_a.addr(i * _WORD_STRIDE), float(value))

    chunk = n // n_threads
    finish = {}

    def body(env, tid):
        src, dst = buf_a, buf_b
        lo = tid * chunk
        for _step in range(n_steps):
            for i in range(lo, lo + chunk):
                left = yield env.load(src.addr(((i - 1) % n) * _WORD_STRIDE))
                here = yield env.load(src.addr(i * _WORD_STRIDE))
                right = yield env.load(src.addr(((i + 1) % n) * _WORD_STRIDE))
                new = here + alpha * (left - 2.0 * here + right)
                yield env.store(dst.addr(i * _WORD_STRIDE), new)
            yield from barrier.wait(env)
            src, dst = dst, src
        finish[tid] = env.now
        return None

    def main(env):
        yield from env.fork_join(n_threads, body, placement)

    runtime.run(main)
    final = buf_a if n_steps % 2 == 0 else buf_b
    field = np.array([machine.peek(final.addr(i * _WORD_STRIDE))
                      for i in range(n)])
    count = machine.tracer.count
    return SharedHeatResult(
        field=field,
        time_ns=max(finish.values()),
        cache_misses=sum(count(f"load.miss.{where}")
                         for where in ("local", "gcb", "remote")),
        remote_misses=count("load.miss.remote"),
    )
