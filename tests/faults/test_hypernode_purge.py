"""Tests for coherence-state purging when a hypernode fails.

A failed hypernode must disappear from every SCI sharing list: lines it
merely shared detach it via the normal rollout path; lines homed on it
lose their backing memory, so surviving sharers' cached copies, GCB
entries, and directory state are dropped too.  The surviving machine's
coherence state must still satisfy every invariant (checked with the
``REPRO_CHECK`` gate forced on).
"""

import pytest

from repro.core import spp1000
from repro.faults import FaultEvent, FaultPlan, use_faults
from repro.machine import Machine, MemClass
from repro.machine import sci as sci_mod


@pytest.fixture(autouse=True)
def check_sci_invariants(monkeypatch):
    monkeypatch.setattr(sci_mod, "SCI_CHECK", True)


def faulted_machine():
    with use_faults(FaultPlan()):  # empty plan: events applied manually
        machine = Machine(spp1000(2))
    return machine


def run(machine, proc):
    machine.sim.run(until=proc)


def fail_hypernode(machine, hn):
    machine.faults.apply(FaultEvent(t_ns=machine.sim.now,
                                    kind="hypernode_fail", hypernode=hn))


def test_sharer_hypernode_is_detached_from_sci_lists():
    machine = faulted_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)
    addr = region.base
    line = machine.line_of(addr)
    run(machine, machine.sim.process(machine.load(0, addr)))   # home hypernode reads
    run(machine, machine.sim.process(machine.load(8, addr)))   # hypernode 1 becomes a sharer
    assert 1 in machine.sci.sharers(line)

    fail_hypernode(machine, 1)
    assert 1 not in machine.sci.sharers(line)
    assert not machine.caches[8].contains(line)
    machine.check_coherence_invariants()


def test_lines_homed_on_dead_hypernode_are_dropped_everywhere():
    machine = faulted_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=1)
    addr = region.base
    line = machine.line_of(addr)
    run(machine, machine.sim.process(machine.load(0, addr)))   # hypernode 0 caches a remote line
    assert machine.caches[0].contains(line)

    fail_hypernode(machine, 1)
    # the backing memory is gone: no SCI list, no surviving cached copy
    assert machine.sci.sharers(line) == []
    assert not machine.caches[0].contains(line)
    assert not machine.directories[1]._entries
    machine.check_coherence_invariants()


def test_failed_cpu_operations_halt_forever():
    machine = faulted_machine()
    fail_hypernode(machine, 1)
    assert not machine.faults.cpu_alive(8)
    assert machine.faults.cpu_alive(0)

    halted = machine.compute(8, 100)
    machine.sim.run(until=machine.sim.now + 1_000_000.0)
    assert not halted.triggered

    # the healthy hypernode keeps working
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)
    run(machine, machine.sim.process(machine.load(0, region.base)))


def test_access_to_dead_hypernode_memory_halts_forever():
    machine = faulted_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=1)
    fail_hypernode(machine, 1)

    stuck = machine.sim.process(machine.load(0, region.base))
    machine.sim.run(until=machine.sim.now + 1_000_000.0)
    assert not stuck.triggered
    assert machine.tracer.count("fault.halt") == 1
