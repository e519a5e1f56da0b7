"""The memory-system profiler: counters, churn detector, manifests.

MemScope's contract has three legs — exact aggregate counters (hits
counted at the cache, misses classified once by the fetch path),
sampling that decimates only per-page detail, and a churn detector
that flags ping-pong/false-sharing but stays silent on private data.
"""

import pytest

from repro.core import spp1000
from repro.machine import Machine, MemClass
from repro.obs import MemScope, active_memscope, use_memscope
from repro.obs.memscope import placement_probe


def run(machine, gen):
    return machine.sim.run(until=machine.sim.process(gen))


def profiled_machine(n_hypernodes=2, **kwargs):
    config = spp1000(n_hypernodes=n_hypernodes)
    ms = MemScope(config, **kwargs)
    with use_memscope(ms):
        machine = Machine(config)
    return machine, ms


# ---------------------------------------------------------------------------
# wiring and the zero-cost contract
# ---------------------------------------------------------------------------

def test_unprofiled_machine_keeps_class_level_none():
    machine = Machine(spp1000(2))
    assert machine.memscope is None
    assert machine.caches[0].memscope is None
    assert machine.net.rings[0].memscope is None
    # class attribute, not per-instance state
    assert "memscope" not in vars(machine.caches[0])


def test_ambient_scope_is_adopted_and_wired():
    machine, ms = profiled_machine()
    assert machine.memscope is ms
    assert machine.caches[0].memscope is ms
    assert machine.caches[0].cpu == 0
    assert machine.net.rings[3].memscope is ms
    assert ms.machines_attached == 1
    assert active_memscope() is None  # context exited


def test_use_memscope_nests():
    a, b = MemScope(), MemScope()
    with use_memscope(a):
        with use_memscope(b):
            assert active_memscope() is b
        assert active_memscope() is a
    assert active_memscope() is None


# ---------------------------------------------------------------------------
# counter exactness: hits + classified misses = total accesses
# ---------------------------------------------------------------------------

def test_hits_and_misses_are_counted_exactly():
    machine, ms = profiled_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)
    addr = region.addr(0)

    def prog():
        yield machine.load(0, addr)       # local miss
        yield machine.load(0, addr)       # hit
        yield machine.load(0, addr)       # hit

    run(machine, prog())
    assert ms.miss_local == 1
    assert ms.hits == 2
    assert ms.machine_accesses == 3
    b = ms.to_dict()["breakdown"]
    assert b["total_accesses"] == 3
    assert b["hits"] == 2
    assert b["hit_rate"] == pytest.approx(2 / 3)


def test_remote_miss_and_gcb_hit_classified():
    machine, ms = profiled_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=1)
    addr = region.addr(0)

    def prog():
        yield machine.load(0, addr)       # SCI remote miss (hn0 -> hn1)
        yield machine.load(1, addr)       # sibling: remote line now in GCB

    run(machine, prog())
    assert ms.miss_remote == 1
    assert ms.miss_gcb == 1
    assert list(ms.hop_counts) == [1]
    b = ms.to_dict()["breakdown"]
    assert b["remote_fraction"] == pytest.approx(0.5)


def test_profiler_never_advances_simulated_time():
    plain = Machine(spp1000(2))
    machine, ms = profiled_machine()

    def prog(m, region):
        for cpu in (0, 1, 0):
            for off in range(0, 4096, 64):
                yield m.load(cpu, region.addr(off))
                yield m.store(cpu, region.addr(off), off)

    for m in (plain, machine):
        region = m.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=1)
        run(m, prog(m, region))
    assert machine.sim.now == plain.sim.now
    assert ms.machine_accesses > 0


# ---------------------------------------------------------------------------
# sampling: aggregates exact, page heat decimated
# ---------------------------------------------------------------------------

def test_sampling_decimates_only_page_heat():
    exact_counts = None
    heats = {}
    for sample in (1, 4):
        machine, ms = profiled_machine(sample=sample)
        region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)

        def prog():
            for _ in range(4):
                for off in range(0, 4096, 32):
                    yield machine.load(0, region.addr(off))

        run(machine, prog())
        counts = (ms.hits, ms.miss_local, ms.miss_gcb, ms.miss_remote)
        if exact_counts is None:
            exact_counts = counts
        else:
            assert counts == exact_counts
        heats[sample] = sum(ms._page_heat.values())
    assert heats[4] == pytest.approx(heats[1] / 4, rel=0.05)


# ---------------------------------------------------------------------------
# churn detector
# ---------------------------------------------------------------------------

def _alternating_stores(machine, addr0, addr1, rounds=6):
    def prog():
        for _ in range(rounds):
            yield machine.load(0, addr0)
            yield machine.store(0, addr0, 1)
            yield machine.load(1, addr1)
            yield machine.store(1, addr1, 2)
    run(machine, prog())


def test_ping_pong_line_is_flagged():
    machine, ms = profiled_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)
    addr = region.addr(0)
    _alternating_stores(machine, addr, addr)     # same word, two writers
    flagged = ms.flagged_lines()
    assert flagged, "alternating writers with invalidations not flagged"
    assert flagged[0]["kind"] == "ping-pong"
    assert flagged[0]["writers"] == [0, 1]
    assert flagged[0]["invalidations"] > 0


def test_false_sharing_distinct_words_same_line():
    machine, ms = profiled_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)
    # words 0 and 1 cohabit one 32-byte line
    _alternating_stores(machine, region.addr(0), region.addr(8))
    flagged = ms.flagged_lines()
    assert flagged
    assert flagged[0]["kind"] == "false-sharing"
    assert flagged[0]["distinct_words"] == 2


def test_private_access_is_not_flagged():
    machine, ms = profiled_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)

    def prog():
        for i in range(20):
            yield machine.load(0, region.addr(0))
            yield machine.store(0, region.addr(0), i)

    run(machine, prog())
    assert ms.flagged_lines() == []


# ---------------------------------------------------------------------------
# occupancy, heat, and the document
# ---------------------------------------------------------------------------

def test_ring_occupancy_and_hot_pages_recorded():
    machine, ms = profiled_machine()
    region = machine.alloc(8192, MemClass.NEAR_SHARED, home_hypernode=1)

    def prog():
        for off in range(0, 8192, 32):
            yield machine.load(0, region.addr(off))

    run(machine, prog())
    doc = ms.to_dict()
    assert doc["source"] == "machine"
    assert doc["rings"], "remote misses produced no ring occupancy"
    ring = next(iter(doc["rings"].values()))
    assert ring["transfers"] > 0 and ring["busy_ns"] > 0
    assert 0.0 < ring["utilization"] <= 1.0
    assert doc["hot_pages"]
    assert doc["hot_pages"][0]["accesses"] > 0
    assert doc["crossbar_ports"]
    assert doc["banks"]
    assert doc["hypernode_heat"]


def test_directory_and_sci_transitions_counted():
    machine, ms = profiled_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=1)

    def prog():
        yield machine.load(0, region.addr(0))
        yield machine.load(8, region.addr(0))    # cpu 8: hypernode 1
        yield machine.store(0, region.addr(0), 1)

    run(machine, prog())
    assert ms.dir_events.get("add_sharer", 0) > 0
    assert ms.sci_events.get("attach", 0) > 0


def test_render_smoke():
    machine, ms = profiled_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=1)
    _alternating_stores(machine, region.addr(0), region.addr(0))
    text = ms.render(title="unit test")
    for fragment in ("miss-class breakdown", "SCI remote miss",
                     "ring occupancy", "hot pages"):
        assert fragment in text


# ---------------------------------------------------------------------------
# manifest integration (the satellite-6 fix: hits never report zero)
# ---------------------------------------------------------------------------

def test_manifest_memscope_block_carries_hits():
    from repro.obs import build_manifest

    machine, ms = profiled_machine()
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)

    def prog():
        yield machine.load(0, region.addr(0))
        yield machine.load(0, region.addr(0))

    run(machine, prog())
    manifest = build_manifest(config=machine.config, memscope=ms)
    block = manifest["memscope"]
    assert block["breakdown"]["hits"] == 1
    assert block["breakdown"]["total_accesses"] == 2
    # a dict payload passes through unchanged
    manifest2 = build_manifest(memscope=ms.to_dict())
    assert manifest2["memscope"]["breakdown"]["hits"] == 1


def test_manifest_provenance_stamp():
    from repro.obs import build_manifest

    manifest = build_manifest()
    prov = manifest["provenance"]
    assert prov["created_utc"].startswith("20")
    assert len(prov["code_fingerprint"]) == 16
    assert prov["git_sha"] is None or len(prov["git_sha"]) == 40


# ---------------------------------------------------------------------------
# the placement probe and trace summarisation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_hn,expected_remote", [
    (2, 0.25), (4, 0.375), (8, 0.4375),
])
def test_probe_remote_fraction_rises_with_hypernodes(n_hn, expected_remote):
    ms = placement_probe(spp1000(n_hypernodes=n_hn))
    doc = ms.to_dict()
    assert doc["source"] == "probe"
    assert doc["breakdown"]["remote_fraction"] == pytest.approx(
        expected_remote)
