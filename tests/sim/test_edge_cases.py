"""Edge-case and property tests for the simulation kernel."""

from hypothesis import given, strategies as st

from repro.sim import Event, Simulator


def test_schedule_callback_returns_event():
    sim = Simulator()
    fired = []
    ev = sim.schedule_callback(3.0, lambda: fired.append(True))
    assert not ev.processed
    sim.run()
    assert fired == [True]
    assert ev.processed


@given(delays=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=100))
def test_events_always_fire_in_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule_callback(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


def test_process_return_none_by_default():
    sim = Simulator()

    def quiet(sim):
        yield sim.timeout(1.0)

    assert sim.run(until=sim.process(quiet(sim))) is None


def test_event_repr_is_stable():
    sim = Simulator()
    ev = Event(sim)
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
