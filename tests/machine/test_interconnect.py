"""Tests for crossbars, rings, and memory-bank contention."""

import pytest

from repro.core import spp1000
from repro.machine import Machine, MemClass
from repro.machine.interconnect import Crossbar, Interconnect, Ring
from repro.machine.memory import MemorySubsystem
from repro.machine.address import HomeLocation
from repro.obs import MemScope, use_memscope
from repro.sim import Simulator

CFG = spp1000(2)


def test_interconnect_inventory():
    sim = Simulator()
    net = Interconnect(sim, CFG)
    assert len(net.crossbars) == 2
    assert len(net.rings) == 4
    assert set(net.crossbars[0].ports) == {0, 1, 2, 3, Crossbar.IO_PORT}


def test_crossbar_traversal_takes_configured_cycles():
    sim = Simulator()
    xbar = Crossbar(sim, CFG, hypernode=0)
    xbar.memscope = ms = MemScope(CFG)
    proc = sim.process(xbar.traverse(2))
    sim.run(until=proc)
    assert sim.now == CFG.cycles(CFG.crossbar_cycles)
    [port] = ms.to_dict()["crossbar_ports"]
    assert (port["port"], port["traversals"]) == ("2", 1)


def test_crossbar_ports_contend_independently():
    sim = Simulator()
    xbar = Crossbar(sim, CFG, hypernode=0)
    # two traversals to the same port serialise...
    p1 = sim.process(xbar.traverse(0))
    p2 = sim.process(xbar.traverse(0))
    # ...one to a different port runs in parallel
    p3 = sim.process(xbar.traverse(1))
    sim.run()
    assert all(p.triggered for p in (p1, p2, p3))
    assert sim.now == 2 * CFG.cycles(CFG.crossbar_cycles)


def test_ring_transfer_time_scales_with_hops():
    cfg = spp1000(4)
    sim = Simulator()
    ring = Ring(sim, cfg, ring_id=0)
    ring.memscope = ms = MemScope(cfg)
    one_hop = sim.process(ring.transfer(0, 1))
    sim.run(until=one_hop)
    t1 = sim.now
    three_hops = sim.process(ring.transfer(1, 0))  # unidirectional: 3 hops
    sim.run(until=three_hops)
    assert (sim.now - t1) == pytest.approx(3 * t1)
    row = ms.to_dict()["rings"]["0"]
    assert row["transfers"] == 2
    assert row["busy_ns"] == pytest.approx(4 * t1)


def test_ring_serialises_transfers():
    sim = Simulator()
    ring = Ring(sim, CFG, ring_id=1)
    procs = [sim.process(ring.transfer(0, 1)) for _ in range(3)]
    sim.run()
    assert all(p.triggered for p in procs)
    assert sim.now == pytest.approx(3 * CFG.cycles(CFG.ring_hop_cycles))


def test_bank_contention_serialises_same_bank():
    sim = Simulator()
    mem = MemorySubsystem(sim, CFG)
    bank = mem.bank(HomeLocation(0, 0, 0))
    bank.memscope = ms = MemScope(CFG)
    procs = [sim.process(bank.service()) for _ in range(4)]
    sim.run()
    assert all(p.triggered for p in procs)
    assert sim.now == pytest.approx(4 * CFG.cycles(CFG.bank_cycles))
    [row] = ms.to_dict()["banks"]
    assert row["accesses"] == 4


def test_distinct_banks_run_in_parallel():
    sim = Simulator()
    mem = MemorySubsystem(sim, CFG)
    p1 = sim.process(mem.bank(HomeLocation(0, 0, 0)).service())
    p2 = sim.process(mem.bank(HomeLocation(0, 0, 1)).service())
    p3 = sim.process(mem.bank(HomeLocation(0, 1, 0)).service())
    sim.run()
    assert all(p.triggered for p in (p1, p2, p3))
    assert sim.now == pytest.approx(CFG.cycles(CFG.bank_cycles))


def test_same_bank_loads_queue_on_the_machine():
    """Two CPUs missing to one bank finish later than to two banks."""
    machine = Machine(CFG)
    region = machine.alloc(2 * CFG.page_bytes, MemClass.NEAR_SHARED,
                           home_hypernode=0)
    # page 0 -> FU0/bank0; page 1 -> FU1/bank0: distinct banks
    same_a = region.addr(0)
    same_b = region.addr(CFG.line_bytes)        # same page, same bank
    other_page = region.addr(CFG.page_bytes)    # different FU

    def pair(addr1, addr2):
        m = Machine(CFG)
        r = m.alloc(2 * CFG.page_bytes, MemClass.NEAR_SHARED,
                    home_hypernode=0)
        a1 = r.addr(addr1 - region.addr(0))
        a2 = r.addr(addr2 - region.addr(0))

        def one(cpu, addr):
            yield m.load(cpu, addr)

        m.sim.process(one(0, a1))
        m.sim.process(one(2, a2))
        m.sim.run()
        return m.sim.now

    t_same_bank = pair(same_a, same_b)
    t_diff_bank = pair(same_a, other_page)
    assert t_same_bank > t_diff_bank


def test_four_rings_carry_traffic_independently():
    """Far-shared pages interleave over FUs, so concurrent remote misses
    to different pages use different rings."""
    ms = MemScope()
    with use_memscope(ms):
        machine = Machine(CFG)
    region = machine.alloc(8 * CFG.page_bytes, MemClass.FAR_SHARED)
    # pages homed at hypernode 0, FUs 0..3 (ring 0..3)
    addrs = [region.addr(p * CFG.page_bytes) for p in (0, 2, 4, 6)]

    def one(cpu, addr):
        yield machine.load(cpu, addr)

    for i, addr in enumerate(addrs):
        machine.sim.process(one(8 + i, addr))
    machine.sim.run()
    rings = ms.to_dict()["rings"]
    assert sorted(rings) == ["0", "1", "2", "3"]
    assert all(row["transfers"] > 0 for row in rings.values())
