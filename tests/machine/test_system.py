"""Integration tests for the wired machine: latencies and coherence."""

import pytest

from repro.core import spp1000
from repro.core.units import to_us
from repro.machine import Machine, MemClass


def run(machine, gen):
    proc = machine.sim.process(gen)
    return machine.sim.run(until=proc)


@pytest.fixture
def machine():
    return Machine(spp1000(n_hypernodes=2))


def shared_word(machine, home_hn=0):
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=home_hn)
    return region.addr(0)


def timed(machine, proc_gen):
    """Run a generator on the machine and return (result, elapsed_us)."""
    start = machine.sim.now
    result = run(machine, proc_gen)
    return result, to_us(machine.sim.now - start)


# ---------------------------------------------------------------------------
# latency structure (paper section 2.6)
# ---------------------------------------------------------------------------

def test_cache_hit_costs_one_cycle(machine):
    addr = shared_word(machine)

    def prog():
        yield machine.load(0, addr)          # warm
        t0 = machine.sim.now
        yield machine.load(0, addr)          # hit
        return machine.sim.now - t0

    elapsed = run(machine, prog())
    assert elapsed == machine.config.clock_ns


def test_local_miss_in_50_to_60_cycles(machine):
    addr = shared_word(machine, home_hn=0)

    def prog():
        yield machine.load(0, addr + 64)  # warm the TLB, different line
        t0 = machine.sim.now
        yield machine.load(0, addr)
        return (machine.sim.now - t0) / machine.config.clock_ns

    cycles = run(machine, prog())
    assert 50 <= cycles <= 65


def test_remote_miss_about_8x_local(machine):
    addr = shared_word(machine, home_hn=0)

    def local():
        yield machine.load(0, addr + 64)  # warm the TLB, different line
        t0 = machine.sim.now
        yield machine.load(0, addr)
        return machine.sim.now - t0

    t_local = run(machine, local())
    machine2 = Machine(spp1000(n_hypernodes=2))
    addr2 = shared_word(machine2, home_hn=0)

    def remote():
        yield machine2.load(8, addr2 + 64)  # warm the TLB
        t0 = machine2.sim.now
        yield machine2.load(8, addr2)   # cpu 8 lives on hypernode 1
        return machine2.sim.now - t0

    t_remote = run(machine2, remote())
    ratio = t_remote / t_local
    assert 5.0 <= ratio <= 12.0, f"remote/local miss ratio {ratio:.1f}"


def test_global_cache_buffer_serves_second_remote_miss(machine):
    addr = shared_word(machine, home_hn=0)

    def prog():
        yield machine.load(8, addr)      # hn1 fetches over the ring
        yield machine.load(9, addr + 64)  # warm cpu 9's TLB, different line
        t0 = machine.sim.now
        yield machine.load(9, addr)      # same hypernode, different CPU
        return (machine.sim.now - t0) / machine.config.clock_ns

    cycles = run(machine, prog())
    # GCB hit should look like a local miss, far below a ring crossing
    assert cycles < 100
    assert machine.tracer.count("load.miss.gcb") == 1
    # the timed fetch plus the TLB warm-up line both crossed the ring
    assert machine.tracer.count("load.miss.remote") == 2


def test_node_private_always_local(machine):
    region = machine.alloc(4096, MemClass.NODE_PRIVATE)
    addr = region.addr(0)

    def prog(cpu):
        yield machine.load(cpu, addr + 64)   # warm the TLB, different line
        t0 = machine.sim.now
        yield machine.load(cpu, addr)
        return (machine.sim.now - t0) / machine.config.clock_ns

    assert run(machine, prog(0)) <= 65
    assert run(machine, prog(8)) <= 65   # other hypernode: still local
    assert machine.tracer.count("load.miss.remote") == 0


# ---------------------------------------------------------------------------
# value semantics and coherence
# ---------------------------------------------------------------------------

def test_store_then_load_roundtrips_value(machine):
    addr = shared_word(machine)

    def prog():
        yield machine.store(0, addr, 123)
        value = yield machine.load(5, addr)
        return value

    assert run(machine, prog()) == 123


def test_words_in_same_line_are_independent(machine):
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)
    a, b = region.addr(0), region.addr(8)

    def prog():
        yield machine.store(0, a, "first")
        yield machine.store(0, b, "second")
        va = yield machine.load(1, a)
        vb = yield machine.load(1, b)
        return va, vb

    assert run(machine, prog()) == ("first", "second")


def test_write_invalidates_local_sharers(machine):
    addr = shared_word(machine)

    def prog():
        for cpu in range(4):
            yield machine.load(cpu, addr)
        yield machine.store(0, addr, 1)
        return None

    run(machine, prog())
    line = machine.line_of(addr)
    assert machine.caches[0].contains(line)
    for cpu in range(1, 4):
        assert not machine.caches[cpu].contains(line)
    assert machine.tracer.count("store.inval.local") == 3


def test_write_invalidates_remote_hypernode_and_gcb(machine):
    addr = shared_word(machine, home_hn=0)

    def prog():
        yield machine.load(8, addr)
        yield machine.load(12, addr)
        yield machine.store(0, addr, 7)
        return None

    run(machine, prog())
    line = machine.line_of(addr)
    assert not machine.caches[8].contains(line)
    assert not machine.caches[12].contains(line)
    assert not machine.directories[1].gcb_holds(line)
    assert machine.sci.sharers(line) == []
    machine.check_coherence_invariants()


def test_remote_write_costs_more_when_line_widely_shared(machine):
    addr = shared_word(machine, home_hn=0)

    def share_then_store(n_sharers):
        def prog():
            for cpu in range(n_sharers):
                yield machine.load(cpu, addr)
            t0 = machine.sim.now
            yield machine.store(15, addr, 1)  # writer on the other hypernode
            return machine.sim.now - t0
        return prog

    t_few = run(machine, share_then_store(1)())
    machine2 = Machine(spp1000(n_hypernodes=2))
    addr2 = shared_word(machine2, home_hn=0)

    def prog2():
        for cpu in range(8):
            yield machine2.load(cpu, addr2)
        t0 = machine2.sim.now
        yield machine2.store(15, addr2, 1)
        return machine2.sim.now - t0

    t_many = run(machine2, prog2())
    assert t_many > t_few


def test_exclusive_rewrite_is_cheap(machine):
    addr = shared_word(machine)

    def prog():
        yield machine.store(0, addr, 1)
        t0 = machine.sim.now
        yield machine.store(0, addr, 2)
        return machine.sim.now - t0

    elapsed = run(machine, prog())
    assert elapsed == machine.config.clock_ns
    assert machine.tracer.count("store.hit.exclusive") == 1


def test_fetch_add_is_atomic_under_contention(machine):
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)
    addr = region.addr(0)
    machine.poke(addr, 0)

    def incrementer(cpu):
        for _ in range(10):
            yield machine.fetch_add(cpu, addr, 1)

    procs = [machine.sim.process(incrementer(cpu)) for cpu in range(16)]
    machine.sim.run(until=machine.sim.all_of(procs))
    assert machine.peek(addr) == 160


def test_fetch_add_returns_old_value(machine):
    addr = shared_word(machine)
    machine.poke(addr, 41)

    def prog():
        old = yield machine.fetch_add(0, addr, 1)
        return old

    assert run(machine, prog()) == 41
    assert machine.peek(addr) == 42


def test_spin_until_wakes_on_write(machine):
    addr = shared_word(machine)
    machine.poke(addr, 0)
    log = []

    def spinner():
        value = yield machine.spin_until(1, addr, lambda v: v == 99)
        log.append((machine.sim.now, value))

    def writer():
        yield machine.compute(0, 10_000)  # 100 us
        yield machine.store(0, addr, 99)

    machine.sim.process(spinner())
    machine.sim.process(writer())
    machine.sim.run()
    assert len(log) == 1
    assert log[0][1] == 99
    assert log[0][0] >= 100_000  # not before the writer ran


def test_spin_until_skips_intermediate_values(machine):
    addr = shared_word(machine)
    machine.poke(addr, 0)
    seen = []

    def spinner():
        value = yield machine.spin_until(1, addr, lambda v: v >= 3)
        seen.append(value)

    def writer():
        for v in (1, 2, 3):
            yield machine.compute(0, 5_000)
            yield machine.store(0, addr, v)

    machine.sim.process(spinner())
    machine.sim.process(writer())
    machine.sim.run()
    assert seen == [3]


def test_many_spinners_all_wake(machine):
    addr = shared_word(machine)
    machine.poke(addr, 0)
    woken = []

    def spinner(cpu):
        yield machine.spin_until(cpu, addr, lambda v: v == 1)
        woken.append(cpu)

    for cpu in range(1, 16):
        machine.sim.process(spinner(cpu))

    def writer():
        yield machine.compute(0, 1_000)
        yield machine.store(0, addr, 1)

    machine.sim.process(writer())
    machine.sim.run()
    assert sorted(woken) == list(range(1, 16))


def test_block_read_scales_sublinearly(machine):
    region = machine.alloc(64 * 1024, MemClass.NEAR_SHARED, home_hypernode=0)
    addr = region.addr(0)

    def read(nbytes):
        def prog():
            t0 = machine.sim.now
            yield machine.read_block(0, addr, nbytes)
            return machine.sim.now - t0
        return prog

    t_small = run(machine, read(64)())
    t_big = run(machine, read(64 * 64)())
    assert t_big > t_small
    # pipelined: 64x the bytes costs far less than 64x the time
    assert t_big < 32 * t_small


@pytest.mark.parametrize("mclass", [MemClass.NEAR_SHARED,
                                    MemClass.FAR_SHARED])
def test_numpy_addresses_cost_what_python_ints_cost(mclass):
    """Latencies derived from the address (ring hops, block length) stay
    Python floats when the address and size are NumPy integers."""
    np = pytest.importorskip("numpy")
    elapsed = []
    for to_int in (int, np.int64):
        machine = Machine(spp1000(n_hypernodes=2))
        region = machine.alloc(1 << 16, mclass, home_hypernode=1)
        addr = to_int(region.addr(3 * 4096))

        def prog():
            yield machine.load(0, addr)
            yield machine.store(0, addr, 1)
            yield machine.fetch_add(0, addr + to_int(8))
            yield machine.read_block(0, addr, to_int(8192))
            yield machine.write_block(0, addr, to_int(8192))

        run(machine, prog())
        elapsed.append(machine.sim.now)
    assert elapsed[0] == elapsed[1] > 0


def test_block_rejects_nonpositive_size(machine):
    region = machine.alloc(4096, MemClass.NEAR_SHARED, home_hypernode=0)

    def prog():
        yield machine.read_block(0, region.addr(0), 0)

    with pytest.raises(ValueError):
        run(machine, prog())


def test_coherence_invariants_after_mixed_traffic(machine):
    region = machine.alloc(16 * 4096, MemClass.FAR_SHARED)

    def worker(cpu, seed):
        addrs = [region.addr(((seed * 97 + i * 53) % 512) * 32)
                 for i in range(30)]
        for i, addr in enumerate(addrs):
            if i % 3 == 0:
                yield machine.store(cpu, addr, cpu)
            else:
                yield machine.load(cpu, addr)

    procs = [machine.sim.process(worker(cpu, cpu * 7 + 1))
             for cpu in range(16)]
    machine.sim.run(until=machine.sim.all_of(procs))
    machine.check_coherence_invariants()


def test_single_hypernode_machine_has_no_ring_traffic():
    machine = Machine(spp1000(n_hypernodes=1))
    region = machine.alloc(4096, MemClass.FAR_SHARED)
    addr = region.addr(0)

    def prog():
        for cpu in range(8):
            yield machine.load(cpu, addr)
        yield machine.store(0, addr, 5)

    run(machine, prog())
    assert machine.tracer.count("ring.round_trip") == 0
    assert machine.tracer.count("load.miss.remote") == 0
