"""Golden-value tests for degraded SCI routing around failed rings.

On the paper machine a one-hop ring transfer holds the ring for
``ring_hop_cycles`` (25 cycles at 10 ns = 250 ns).  A transfer whose
ring has failed detours to the nearest surviving ring and pays
``ring_reroute_extra_cycles`` (90 cycles = 900 ns) on top, so the golden
rerouted latency is 1150 ns regardless of *which* surviving ring absorbs
the traffic.
"""

import pytest

from repro.core import spp1000
from repro.faults import (FaultPlan, NetworkPartitionedError, ring_loss_plan,
                          use_faults)
from repro.machine import Machine
from repro.obs import MemScope, use_memscope

HOP_NS = 250.0            # 25 cycles x 10 ns, one hop
REROUTED_NS = 1150.0      # + 90 reroute cycles x 10 ns


def make_machine(plan, memscope=None):
    with use_faults(plan), use_memscope(memscope):
        machine = Machine(spp1000(2))
    machine.sim.run(until=0.0)  # apply the plan's t=0 events
    return machine


def ring_transfers(memscope):
    """Transfers per ring id, as memscope's ring occupancy counts them."""
    return {int(ring): row["transfers"]
            for ring, row in memscope.to_dict()["rings"].items()}


def transfer_ns(machine, ring=0, src=0, dst=1):
    start = machine.sim.now
    proc = machine.sim.process(machine.net.transfer(ring, src, dst))
    machine.sim.run(until=proc)
    return machine.sim.now - start


def test_healthy_machine_golden_hop_latency():
    machine = Machine(spp1000(2))
    assert machine.faults is None
    assert transfer_ns(machine) == HOP_NS


def test_empty_plan_routes_identically():
    machine = make_machine(FaultPlan())
    assert machine.faults is not None
    assert machine.faults.route(0) == (0, 0.0)
    assert transfer_ns(machine) == HOP_NS


def test_one_ring_failed_golden_reroute_latency():
    ms = MemScope()
    machine = make_machine(ring_loss_plan(1), ms)
    assert machine.faults.route(0) == (1, 90.0)
    assert transfer_ns(machine, ring=0) == REROUTED_NS
    # the transfer actually travelled on ring 1
    assert ring_transfers(ms) == {1: 1}
    assert machine.tracer.count("ring.reroute") >= 1


def test_two_rings_failed_golden_reroute_latency():
    ms = MemScope()
    machine = make_machine(ring_loss_plan(2), ms)
    assert machine.faults.route(0) == (2, 90.0)
    assert machine.faults.route(1) == (2, 90.0)
    assert transfer_ns(machine, ring=0) == REROUTED_NS
    assert transfer_ns(machine, ring=1) == REROUTED_NS
    assert ring_transfers(ms) == {2: 2}


def test_surviving_rings_are_unaffected():
    machine = make_machine(ring_loss_plan(2))
    assert machine.faults.route(2) == (2, 0.0)
    assert machine.faults.route(3) == (3, 0.0)
    assert transfer_ns(machine, ring=3) == HOP_NS


def test_ring_recovery_restores_direct_route():
    from repro.faults import FaultEvent
    plan = FaultPlan(events=(
        FaultEvent(t_ns=0.0, kind="ring_fail", ring=0),
        FaultEvent(t_ns=1000.0, kind="ring_recover", ring=0)))
    with use_faults(plan):
        machine = Machine(spp1000(2))
    machine.sim.run(until=0.0)
    assert machine.faults.route(0) == (1, 90.0)
    machine.sim.run(until=2000.0)
    assert machine.faults.route(0) == (0, 0.0)
    assert transfer_ns(machine) == HOP_NS


def test_all_rings_failed_raises_network_partitioned():
    machine = make_machine(ring_loss_plan(4))
    with pytest.raises(NetworkPartitionedError, match="all 4 SCI rings"):
        machine.net.transfer(0, 0, 1)


def test_fault_events_are_recorded_and_counted():
    machine = make_machine(ring_loss_plan(2))
    assert [ev.kind for ev in machine.faults.applied] == ["ring_fail",
                                                          "ring_fail"]
    assert machine.tracer.count("fault.ring_fail") == 2
