"""Tests for the structured span API and its zero-overhead contracts."""

import pytest

from repro.core import spp1000
from repro.experiments.fig3_barrier import barrier_metrics_us
from repro.machine import Machine
from repro.runtime import Placement
from repro.sim import Tracer, active_tracer, use_tracer

CFG = spp1000(2)


def test_begin_end_records_duration_and_counter_delta():
    t = Tracer(enabled=True)
    t.begin(100.0, "phase", "app", pid=0, tid=3)
    t.emit(150.0, "load.miss.remote")
    t.emit(180.0, "load.miss.remote")
    t.emit(190.0, "load.hit")
    t.end(300.0, "phase", "app", pid=0, tid=3)
    (ev,) = t.spans("phase")
    assert ev.ph == "E"
    assert ev.args["dur_ns"] == pytest.approx(200.0)
    assert ev.args["counters"] == {"load.miss.remote": 2, "load.hit": 1}


def test_spans_nest_per_track():
    t = Tracer(enabled=True)
    t.begin(0.0, "outer", pid=0, tid=0)
    t.begin(10.0, "inner", pid=0, tid=0)
    t.begin(10.0, "other-track", pid=1, tid=8)
    t.end(20.0, "inner", pid=0, tid=0)
    t.end(50.0, "outer", pid=0, tid=0)
    t.end(60.0, "other-track", pid=1, tid=8)
    by_name = {e.name: e for e in t.spans()}
    assert by_name["inner"].args["dur_ns"] == pytest.approx(10.0)
    assert by_name["outer"].args["dur_ns"] == pytest.approx(50.0)
    assert by_name["other-track"].args["dur_ns"] == pytest.approx(50.0)


def test_instant_complete_and_counter_events():
    t = Tracer(enabled=True)
    t.instant(5.0, "barrier.arrive", pid=1, tid=9, args={"generation": 0})
    t.complete(0.0, 40.0, "push", "perfmodel", pid=0, tid=2,
               args={"pipe_ns": 30.0, "stall_ns": 10.0})
    t.counter(5.0, "misses", {"local": 3, "remote": 1})
    phs = [e.ph for e in t.events]
    assert phs == ["i", "X", "C"]
    assert t.events[1].dur == 40.0


def test_disabled_tracer_emits_no_structured_events():
    t = Tracer(enabled=False)
    t.begin(0.0, "a")
    t.instant(1.0, "b")
    t.complete(0.0, 1.0, "c")
    t.end(2.0, "a")
    assert t.events == []


def test_default_tracer_still_counts_when_disabled():
    t = Tracer(enabled=False)
    t.emit(1.0, "miss")
    assert t.count("miss") == 1


def test_use_tracer_reaches_machines_built_inside():
    t = Tracer(enabled=True)
    with use_tracer(t):
        assert active_tracer() is t
        machine = Machine(CFG)
        assert machine.tracer is t
        assert machine.sim.tracer is t  # dispatch counting attached
    assert active_tracer() is None
    # outside the context, machines get their own quiet tracer again
    assert Machine(CFG).tracer is not t


def test_tracing_adds_zero_simulated_time():
    """The acceptance criterion: traced-off and traced-on runs take the
    same simulated time as an unobserved baseline."""
    baseline = barrier_metrics_us(4, Placement.UNIFORM, CFG, rounds=2)
    with use_tracer(Tracer(enabled=False)):
        off = barrier_metrics_us(4, Placement.UNIFORM, CFG, rounds=2)
    with use_tracer(Tracer(enabled=True)):
        on = barrier_metrics_us(4, Placement.UNIFORM, CFG, rounds=2)
    assert off == baseline
    assert on == baseline


def test_timer_reads_are_counted_for_overhead_correction():
    t = Tracer(enabled=True)
    with use_tracer(t):
        barrier_metrics_us(2, Placement.HIGH_LOCALITY, CFG, rounds=2)
    # 2 threads x 2 rounds x 2 timestamps (entry + exit)
    assert t.count("timer.read") == 8
