"""Ablations for the paper's §6 discussion points.

The discussion section makes four quantitative claims that are not tied
to a numbered figure; this experiment reproduces each:

* **cache residency** — the same problem run in-cache vs from memory
  differs by about a factor of three, on a single hypernode;
* **global vs local misses** — cache miss penalties to global (other
  hypernode) data average about 8x hypernode-local ones;
* **OS interference** — applications using every processor share cycles
  with the operating system (the "cannot easily run on 15 processors"
  complaint);
* **ring-latency sensitivity** — how strongly application scaling
  depends on the SCI path cost (the architecture-evolution question the
  discussion raises).

Each measurement is one work unit.  A machine with one hypernode has no
remote CPU and too few for the 15/16-thread or 16-CPU runs, so it
measures only the hit and local-miss latencies and the cache residency;
its data has no remote ratio, OS overhead or ring sensitivity.
"""

from __future__ import annotations

from typing import Optional

from ..apps.nbody import NBodyWorkload, problem_256k
from ..core import MachineConfig, Table, spp1000
from ..core.units import MIB, to_us
from ..exec.units import WorkUnit
from ..machine import Machine, MemClass
from ..perfmodel import (
    Access,
    PerformanceModel,
    Phase,
    StepWork,
    TeamSpec,
)
from ..runtime import Placement
from .base import ExperimentResult, point_runner

__all__ = ["run", "plan_units", "measured_miss_latencies_us",
           "cache_residency_ratio", "os_interference_overhead"]

#: SCI path-cost scale factors of the ring-sensitivity rows
RING_FACTORS = (0.5, 1.0, 2.0)


def _two_hypernodes(config) -> bool:
    """Whether the machine has the remote CPUs and the 16 CPUs that the
    remote latencies, the OS row and the ring rows need."""
    return config.n_hypernodes >= 2


def measured_miss_latencies_us(config: Optional[MachineConfig] = None):
    """Measure hit/local-miss/remote-miss latencies on the simulated
    machine (the quantities §2.6 and §6 quote); one hypernode has no
    remote or GCB latency."""
    config = config or spp1000()
    remote = _two_hypernodes(config)
    machine = Machine(config)
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)
    addr = region.addr(0)
    samples = {}

    def prog():
        # warm each measuring CPU's TLB with a different line of the page,
        # so the timings isolate the memory-path latencies
        for cpu in ((0, 8, 9) if remote else (0,)):
            yield machine.load(cpu, addr + 64)
        t0 = machine.sim.now
        yield machine.load(0, addr)
        samples["local_miss"] = machine.sim.now - t0
        t0 = machine.sim.now
        yield machine.load(0, addr)
        samples["hit"] = machine.sim.now - t0
        if not remote:
            return
        t0 = machine.sim.now
        yield machine.load(8, addr)          # other hypernode
        samples["remote_miss"] = machine.sim.now - t0
        t0 = machine.sim.now
        yield machine.load(9, addr)          # global-cache-buffer hit
        samples["gcb_hit"] = machine.sim.now - t0

    machine.sim.run(until=machine.sim.process(prog()))
    return {k: to_us(v) for k, v in samples.items()}


def cache_residency_ratio(config: Optional[MachineConfig] = None) -> float:
    """Time ratio of a memory-resident vs cache-resident problem."""
    config = config or spp1000()
    model = PerformanceModel(config)
    team = TeamSpec(config, 8, Placement.HIGH_LOCALITY)

    def step(ws_bytes):
        phase = Phase("work", flops=1e6, traffic_bytes=4e6,
                      working_set_bytes=ws_bytes, access=Access.RANDOM)
        return StepWork([[phase]] * 8)

    t_resident = model.step_time_ns(step(256 * 1024), team)
    t_spilled = model.step_time_ns(step(16 * MIB), team)
    return t_spilled / t_resident


def os_interference_overhead(config: Optional[MachineConfig] = None) -> float:
    """Extra per-step time from filling the machine (16 vs 15 threads),
    normalised for the work redistribution."""
    config = config or spp1000()
    model = PerformanceModel(config)
    total_flops = 8e7

    def run(n):
        phase = Phase("w", flops=total_flops / n,
                      traffic_bytes=total_flops / n,
                      working_set_bytes=total_flops / n)
        team = TeamSpec(config, n, Placement.HIGH_LOCALITY)
        return model.step_time_ns(StepWork([[phase]] * n), team)

    # ideal scaling from 15 to 16 would shrink time by 15/16
    expected_16 = run(15) * 15.0 / 16.0
    return run(16) / expected_16 - 1.0


def _ring_efficiency(config: MachineConfig, factor: float) -> float:
    """16-CPU N-body efficiency with the SCI path cost scaled by
    ``factor``."""
    cfg = config.with_(
        agent_cycles=int(config.agent_cycles * factor),
        ring_hop_cycles=max(1, int(config.ring_hop_cycles * factor)))
    workload = NBodyWorkload(problem_256k(), cfg)
    t1 = workload.run_shared(1).time_ns
    t16 = workload.run_shared(16, Placement.UNIFORM).time_ns
    return t1 / t16 / 16.0


def _unit(params, config):
    """One work unit: one of the four §6 measurements (one ring factor
    for the ring-sensitivity row)."""
    kind = params["kind"]
    if kind == "latencies":
        return measured_miss_latencies_us(config)
    if kind == "residency":
        return cache_residency_ratio(config)
    if kind == "os":
        return os_interference_overhead(config)
    return _ring_efficiency(config, params["factor"])


def _plan(config):
    """Unit key -> params, in plan order."""
    plan = {"latencies": {"kind": "latencies"},
            "residency": {"kind": "residency"}}
    if _two_hypernodes(config):
        plan["os"] = {"kind": "os"}
        for factor in RING_FACTORS:
            plan[f"ring:{factor}"] = {"kind": "ring", "factor": factor}
    return plan


def plan_units(config, quick: bool = False):
    return [WorkUnit("ablations", key, params)
            for key, params in _plan(config).items()]


def run(config: Optional[MachineConfig] = None,
        points=None) -> ExperimentResult:
    """Regenerate the §6 observations."""
    config = config or spp1000()
    point = point_runner(points)
    values = {key: point(key, lambda p=params: _unit(p, config))
              for key, params in _plan(config).items()}

    lat = values["latencies"]
    t_lat = Table("Measured access latencies (simulated machine)",
                  ["access", "microseconds"])
    for key in ("hit", "local_miss", "gcb_hit", "remote_miss"):
        if key in lat:
            t_lat.add_row(key, lat[key])
    ratio = values["residency"]
    t_summary = Table("Section 6 claims", ["claim", "paper", "measured"])
    t_summary.add_row("in-memory / in-cache time", "~3x", f"{ratio:.1f}x")
    tables = [t_summary, t_lat]
    miss_ratio = os_overhead = rows = None
    if _two_hypernodes(config):
        miss_ratio = lat["remote_miss"] / lat["local_miss"]
        os_overhead = values["os"]
        rows = [(factor, values[f"ring:{factor}"])
                for factor in RING_FACTORS]
        t_summary.add_row("remote / local miss", "~8x",
                          f"{miss_ratio:.1f}x")
        t_summary.add_row("machine-full OS overhead", "observed",
                          f"{os_overhead:.1%}")
        t_ring = Table("16-CPU N-body efficiency vs SCI path cost",
                       ["SCI cost factor", "efficiency"])
        for factor, eff in rows:
            t_ring.add_row(factor, eff)
        tables.append(t_ring)

    data = {
        "latencies_us": lat,
        "remote_local_miss_ratio": miss_ratio,
        "cache_residency_ratio": ratio,
        "os_interference_overhead": os_overhead,
        "ring_sensitivity": rows,
    }
    return ExperimentResult(
        "ablations", "Section 6 quantitative observations",
        tables=tables,
        data={key: value for key, value in data.items()
              if value is not None},
    )
