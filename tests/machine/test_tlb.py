"""Tests for the TLB model."""

import pytest
from hypothesis import given, strategies as st

from repro.core import spp1000
from repro.machine import Machine, MemClass
from repro.machine.tlb import TLB

CFG = spp1000()


def test_first_access_misses_then_hits():
    tlb = TLB(CFG)
    assert not tlb.access(0x1000)
    assert tlb.access(0x1000)
    assert tlb.access(0x1fff)     # same 4 KB page
    assert not tlb.access(0x2000)  # next page
    assert tlb.occupancy == 2


def test_lru_eviction():
    tlb = TLB(CFG)
    for page in range(CFG.tlb_entries + 1):
        tlb.access(page * CFG.page_bytes)
    assert not tlb.contains(0)                      # oldest evicted
    assert tlb.contains(CFG.tlb_entries * CFG.page_bytes)
    assert tlb.occupancy == CFG.tlb_entries


def test_touch_refreshes_lru_position():
    tlb = TLB(CFG)
    for page in range(CFG.tlb_entries):
        tlb.access(page * CFG.page_bytes)
    tlb.access(0)                                   # refresh page 0
    tlb.access(CFG.tlb_entries * CFG.page_bytes)    # evicts page 1, not 0
    assert tlb.contains(0)
    assert not tlb.contains(CFG.page_bytes)


def test_flush():
    tlb = TLB(CFG)
    tlb.access(0)
    tlb.flush()
    assert tlb.occupancy == 0


@given(st.lists(st.integers(0, 300), min_size=1, max_size=500))
def test_contains_matches_lru_model(pages):
    """Property: the TLB holds exactly the last `entries` distinct pages."""
    tlb = TLB(CFG)
    for page in pages:
        tlb.access(page * CFG.page_bytes)
    recent = []
    for page in reversed(pages):
        if page not in recent:
            recent.append(page)
        if len(recent) == CFG.tlb_entries:
            break
    for page in set(pages):
        assert tlb.contains(page * CFG.page_bytes) == (page in recent)


def test_machine_charges_tlb_miss_on_first_touch():
    machine = Machine(CFG)
    region = machine.alloc(2 * CFG.page_bytes, MemClass.NEAR_SHARED,
                           home_hypernode=0)
    a_page1, b_page1 = region.addr(0), region.addr(64)

    def prog():
        t0 = machine.sim.now
        yield machine.load(0, a_page1)       # TLB miss + cache miss
        cold = machine.sim.now - t0
        t0 = machine.sim.now
        yield machine.load(0, b_page1)       # TLB hit + cache miss
        warm = machine.sim.now - t0
        return cold, warm

    cold, warm = machine.sim.run(until=machine.sim.process(prog()))
    delta_cycles = (cold - warm) / CFG.clock_ns
    assert delta_cycles == pytest.approx(CFG.tlb_miss_cycles, abs=1)
    assert machine.tracer.count("tlb.miss") == 1


def test_block_transfer_translates_every_page():
    machine = Machine(CFG)
    region = machine.alloc(8 * CFG.page_bytes, MemClass.NEAR_SHARED,
                           home_hypernode=0)

    def prog():
        yield machine.read_block(0, region.addr(0), 8 * CFG.page_bytes)

    machine.sim.run(until=machine.sim.process(prog()))
    assert machine.tracer.count("tlb.miss") == 8
