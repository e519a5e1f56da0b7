"""The host-time self-profiler: attribution, throughput, zero-cost.

HostScope's contract has three legs — host-time attribution whose
region self-times partition the profiled wall clock (coverage >= 95%
on a real run), bit-identical simulated results *and* final simulated
clocks whether the profiler is installed or not, and an off path that
tests ``sim.hostscope`` once per hot-loop call.
"""

import sys
import time
from collections import Counter

import pytest

from repro import Machine, spp1000
from repro.obs import HostScope, active_hostscope, use_hostscope
from repro.obs.hostscope import REGIONS, host_region
from repro.pvm import PvmSystem
from repro.runtime import Placement, Runtime
from repro.sim import Simulator
from repro.sim.process import Process


def run_forkjoin(n=8, placement=Placement.UNIFORM, n_hypernodes=2):
    """A small fork-join; returns (results, final simulated clock)."""
    machine = Machine(spp1000(n_hypernodes))
    rt = Runtime(machine)

    def body(env, tid):
        yield env.compute(100)
        return tid * tid

    def main(env):
        return (yield from env.fork_join(n, body, placement))

    results = rt.run(main)
    return results, machine.sim.now


# ---------------------------------------------------------------------------
# wiring and the zero-cost contract
# ---------------------------------------------------------------------------

def test_unprofiled_simulator_keeps_hostscope_none():
    sim = Simulator()
    assert sim.hostscope is None
    assert active_hostscope() is None


def test_ambient_scope_is_adopted_and_counts_simulators():
    hs = HostScope()
    with use_hostscope(hs):
        machine = Machine(spp1000(2))
        assert machine.sim.hostscope is hs
        # the machine taught the scope its clock for cycle conversion
        assert hs.clock_ns == machine.config.clock_ns
    assert active_hostscope() is None  # context exited
    assert hs.simulators == 1


def test_results_and_clocks_bit_identical_on_off():
    plain_results, plain_now = run_forkjoin()
    hs = HostScope()
    with use_hostscope(hs), hs.profile():
        profiled_results, profiled_now = run_forkjoin()
    assert profiled_results == plain_results
    assert profiled_now == plain_now        # float-exact, not approx
    assert hs.events > 0


# ---------------------------------------------------------------------------
# region accounting
# ---------------------------------------------------------------------------

def test_region_stack_self_and_cumulative():
    hs = HostScope()
    hs.start()
    with hs.region("app"):
        time.sleep(0.002)
        with hs.region("memory"):
            time.sleep(0.002)
        with hs.region("app"):            # nested same-region instance
            time.sleep(0.001)
    hs.stop()
    assert hs._enters["app"] == 2
    # cumulative counts only the outermost instance: >= its self time,
    # and >= the inner memory region it contains
    assert hs._cum_ns["app"] >= hs._self_ns["app"]
    assert hs._cum_ns["app"] >= hs._self_ns["memory"]
    assert hs._self_ns["memory"] >= 1_000_000


def test_unbalanced_exit_is_ignored():
    hs = HostScope()
    hs.start()
    hs.exit()                              # empty stack: no-op, no raise
    hs.stop()
    assert hs.events == 0


def test_expected_regions_present_after_runtime_run():
    hs = HostScope()
    with use_hostscope(hs), hs.profile():
        run_forkjoin()
    seen = {name for name, ns in hs._self_ns.items() if hs._enters[name]}
    for expected in ("event_heap", "dispatch", "app", "sched", "memory"):
        assert expected in seen, expected
    assert set(seen) <= set(REGIONS)


def test_sub_operation_slices_bill_to_memory():
    hs = HostScope()
    with use_hostscope(hs), hs.profile():
        sim = Simulator()

        def op():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        def body():
            yield op()

        sim.run(until=sim.process(body()))
    # the body's two slices bill to its region, the operation's three
    # (start, after each timeout) to memory; no Process is built for it
    assert hs._enters["app"] == 2
    assert hs._enters["memory"] == 3
    assert hs.processes == 1


def test_pvm_region_billed_on_message_traffic():
    hs = HostScope()
    with use_hostscope(hs), hs.profile():
        pvm = PvmSystem(Runtime(Machine(spp1000(2))))

        def body(task, tid):
            if tid == 0:
                yield from task.send(1, "ping", nbytes=8)
                return None
            return (yield from task.recv(0))

        results = pvm.run_tasks(2, body)
    assert results[1] == "ping"
    assert hs._enters["pvm"] > 0


def test_coverage_at_least_95_percent_on_profiled_run():
    hs = HostScope()
    with use_hostscope(hs), hs.profile():
        run_forkjoin(n=16)
    assert hs.coverage >= 0.95
    assert hs.wall_s > 0


def test_host_region_helper_null_when_off():
    from contextlib import nullcontext

    class FakeSim:
        hostscope = None

    assert isinstance(host_region(None, "pvm"), nullcontext)
    full = HostScope()
    full.start()
    with host_region(full, "pvm"):
        pass
    full.stop()
    assert full._enters["pvm"] == 1


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

def test_to_dict_shape_and_throughput():
    hs = HostScope()
    with use_hostscope(hs), hs.profile():
        run_forkjoin()
    doc = hs.to_dict()
    assert doc["schema_version"] == 1
    assert doc["wall_s"] > 0
    assert 0.95 <= doc["coverage"] <= 1.0
    shares = [row["share"] for row in doc["regions"].values()]
    assert all(0.0 <= s <= 1.0 for s in shares)
    tp = doc["throughput"]
    assert tp["events"] == hs.events
    assert tp["sim_mcycles"] == pytest.approx(hs.sim_cycles / 1e6,
                                              abs=1e-4)
    assert tp["events_per_s"] > 0
    heap = doc["event_heap"]
    assert heap["pushes"] >= heap["max_depth"] >= 1
    assert doc["processes"] > 0 and doc["simulators"] > 0


def test_render_mentions_regions_and_throughput():
    hs = HostScope()
    with use_hostscope(hs), hs.profile():
        run_forkjoin()
    text = hs.render(title="hostscope: test")
    assert "host-time attribution" in text
    assert "coverage" in text
    assert "memory" in text
    assert "simulator throughput" in text


def test_render_without_activity_explains_itself():
    hs = HostScope()
    hs.start()
    hs.stop()
    assert "no simulator activity" in hs.render()


# ---------------------------------------------------------------------------
# the off path: one hostscope test per hot-loop call
# ---------------------------------------------------------------------------

def test_off_path_reads_hostscope_once_per_hot_call(monkeypatch):
    """With no profiler installed, every ``Simulator.step``,
    ``Simulator._schedule`` and ``Process._resume`` call reads
    ``sim.hostscope`` exactly once: the single ``is None`` test of the
    zero-cost contract.  A property stub counts the reads per calling
    function, so the check is exact where a timing would be noisy."""
    assert active_hostscope() is None
    reads = Counter()
    calls = Counter()

    class CountingSimulator(Simulator):
        @property
        def hostscope(self):
            reads[sys._getframe(1).f_code.co_name] += 1
            return None

        @hostscope.setter
        def hostscope(self, value):
            assert value is None

    def counting(name, original):
        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        return wrapper

    for cls, name in ((Simulator, "step"), (Simulator, "_schedule"),
                      (Process, "_resume")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))

    sim = CountingSimulator()

    def churn(sim):
        for _ in range(200):
            yield sim.timeout(1.0)

    for _ in range(4):
        sim.process(churn(sim))
    sim.run()
    assert calls["step"] > 800 and calls["_resume"] > 800
    for name in ("step", "_schedule", "_resume"):
        assert reads[name] == calls[name], (name, dict(reads), dict(calls))
