"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import (
    DeadlockError,
    Event,
    EventAlreadyTriggered,
    SimulationError,
    Simulator,
)


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(42.0)
    sim.run()
    assert sim.now == 42.0


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_time_stops_exactly():
    sim = Simulator()
    fired = []
    sim.schedule_callback(10.0, lambda: fired.append(10))
    sim.schedule_callback(30.0, lambda: fired.append(30))
    sim.run(until=20.0)
    assert fired == [10]
    assert sim.now == 20.0
    sim.run()
    assert fired == [10, 30]


def test_run_until_time_in_past_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_events_at_same_time_fire_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule_callback(7.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim, ev):
        value = yield ev
        got.append(value)

    sim.process(waiter(sim, ev))
    sim.schedule_callback(3.0, lambda: ev.succeed("payload"))
    sim.run()
    assert got == ["payload"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        ev.fail(RuntimeError("x"))


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_unhandled_failed_event_raises_from_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_defused_failed_event_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.defused = True
    ev.fail(RuntimeError("boom"))
    sim.run()  # no raise


def test_run_until_event_returns_value():
    sim = Simulator()

    def producer(sim):
        yield sim.timeout(9.0)
        return "done"

    proc = sim.process(producer(sim))
    assert sim.run(until=proc) == "done"
    assert sim.now == 9.0


def test_run_until_untriggerable_event_deadlocks():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(DeadlockError):
        sim.run(until=ev)


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_clock_is_monotonic_across_many_events():
    sim = Simulator()
    times = []
    for delay in [3.0, 1.0, 2.0, 1.0, 0.0]:
        sim.schedule_callback(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert sim.now == 3.0
