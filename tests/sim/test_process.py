"""Unit tests for generator-based processes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.hostscope import HostScope, use_hostscope
from repro.sim import Resource, SimulationError, Simulator, Tracer


def test_process_runs_and_returns_value():
    sim = Simulator()

    def p(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return 99

    proc = sim.process(p(sim))
    assert proc.is_alive
    assert sim.run(until=proc) == 99
    assert not proc.is_alive
    assert sim.now == 3.0


def test_process_requires_generator():
    sim = Simulator()

    def not_a_generator():
        return 1

    with pytest.raises(SimulationError):
        sim.process(not_a_generator())


def test_processes_interleave_in_time_order():
    sim = Simulator()
    log = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(worker(sim, "a", 10.0))
    sim.process(worker(sim, "b", 3.0))
    sim.run()
    assert log == [(3.0, "b"), (6.0, "b"), (10.0, "a"), (20.0, "a")]


def test_process_can_wait_on_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(5.0)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return result + "!"

    proc = sim.process(parent(sim))
    assert sim.run(until=proc) == "child-result!"


def test_waiting_on_already_finished_process_resumes():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return 7

    def parent(sim, child_proc):
        yield sim.timeout(10.0)  # child long done by now
        value = yield child_proc
        return value

    child_proc = sim.process(child(sim))
    parent_proc = sim.process(parent(sim, child_proc))
    assert sim.run(until=parent_proc) == 7
    assert sim.now == 10.0


def test_exception_in_process_propagates_to_waiter():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as exc:
            return f"caught {exc}"

    proc = sim.process(parent(sim))
    assert sim.run(until=proc) == "caught inner"


def test_uncaught_process_exception_surfaces_in_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("unhandled")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_yielding_non_event_fails_the_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    proc = sim.process(bad(sim))
    proc.defused = True
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_yielding_foreign_event_fails_the_process():
    sim, other = Simulator(), Simulator()

    def bad(sim, other):
        yield other.timeout(1.0)

    proc = sim.process(bad(sim, other))
    proc.defused = True
    sim.run()
    assert proc.triggered and not proc.ok


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def worker(sim, i):
        yield sim.timeout(float(i % 7))
        done.append(i)

    for i in range(200):
        sim.process(worker(sim, i))
    sim.run()
    assert sorted(done) == list(range(200))


# -- sub-operations: a yielded generator runs on the same process -----------

def test_sub_operation_returns_its_value():
    sim = Simulator()

    def op(sim):
        yield sim.timeout(4.0)
        return ("op-result", sim.alive_processes)

    def parent(sim):
        value = yield op(sim)
        return (sim.now, value)

    proc = sim.process(parent(sim))
    # the operation ran on the parent's process: no second one was built
    assert sim.run(until=proc) == (4.0, ("op-result", 1))


def test_sub_operation_exception_reaches_the_caller():
    sim = Simulator()

    def op(sim):
        yield sim.timeout(2.0)
        raise ValueError("inner")

    def parent(sim):
        try:
            yield op(sim)
        except ValueError as exc:
            return f"caught {exc} at {sim.now}"

    proc = sim.process(parent(sim))
    assert sim.run(until=proc) == "caught inner at 2.0"


def test_uncaught_sub_operation_exception_fails_the_process():
    sim = Simulator()

    def op(sim):
        yield sim.timeout(1.0)
        raise ValueError("unhandled")

    def parent(sim):
        yield op(sim)

    sim.process(parent(sim))
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_nested_sub_operations():
    sim = Simulator()

    def leaf(sim, delay):
        yield sim.timeout(delay)
        return delay

    def middle(sim):
        a = yield leaf(sim, 1.0)
        b = yield leaf(sim, 2.0)
        return a + b

    def parent(sim):
        total = yield middle(sim)
        return (sim.now, total)

    proc = sim.process(parent(sim))
    assert sim.run(until=proc) == (3.0, 3.0)


def test_sub_operation_yielding_a_non_event_raises_in_the_caller():
    sim = Simulator()

    def op():
        yield 42

    def parent():
        try:
            yield op()
        except SimulationError as exc:
            return str(exc)

    proc = sim.process(parent())
    assert "non-event (int)" in sim.run(until=proc)


def _grant_order(form, bare=False):
    """A and B start at t=0, A first.  A acquires a resource inside an
    operation started in ``form``; B acquires it directly.  ``bare``
    holds it for a bare delay instead of a timeout."""
    sim = Simulator()
    res = Resource(sim)
    granted = []

    def op(name):
        yield res.acquire()
        granted.append(name)
        yield 1.0 if bare else sim.timeout(1.0)
        res.release()

    def a():
        if form == "process":
            yield sim.process(op("A"))
        elif form == "sub-operation":
            yield op("A")
        else:  # a plain call: no start or completion slot at all
            yield from op("A")

    def b():
        yield from op("B")

    sim.process(a())
    sim.process(b())
    sim.run()
    return granted


def test_same_instant_order_matches_a_child_process():
    assert _grant_order("process") == ["B", "A"]
    assert _grant_order("sub-operation") == ["B", "A"]
    # dropping the start slot would let A overtake B
    assert _grant_order("yield from") == ["A", "B"]


def _timeline(form, bare=False):
    """One process alone: every wake may run inline, and with ``bare``
    every delay too."""
    sim = Simulator()
    sim.tracer = Tracer()
    stamps = []

    def op(depth):
        stamps.append(("start", depth, sim.now))
        yield 3.0 if bare else sim.timeout(3.0)
        if depth:
            yield (sim.process(op(depth - 1)) if form == "process"
                   else op(depth - 1))
        stamps.append(("end", depth, sim.now))
        return depth

    def main():
        for _ in range(3):
            stamps.append(("got", (yield (
                sim.process(op(2)) if form == "process" else op(2))),
                sim.now))

    sim.run(until=sim.process(main()))
    return stamps, sim.tracer.count("sim.dispatch")


def test_lone_process_gets_identical_timestamps_with_fewer_dispatches():
    stamps_proc, dispatched_proc = _timeline("process")
    stamps_sub, dispatched_sub = _timeline("sub-operation")
    assert stamps_sub == stamps_proc
    # each start and completion wake ran inline instead of being queued
    assert dispatched_sub < dispatched_proc


def _order_after_run_target(form, bare=False):
    sim = Simulator()
    gate = sim.event()
    log = []

    def op():
        log.append(("op", sim.now))
        yield 1.0 if bare else sim.timeout(1.0)

    def waiter():
        yield gate
        log.append(("resumed", sim.now))
        yield sim.process(op()) if form == "process" else op()

    sim.process(waiter())
    sim.schedule_callback(2.0, lambda: gate.succeed())
    sim.run(until=gate)
    first = list(log)
    sim.run()
    return first, log


def test_run_until_target_does_not_run_wakes_inline():
    assert _order_after_run_target("sub-operation") \
        == _order_after_run_target("process") \
        == ([("resumed", 2.0)], [("resumed", 2.0), ("op", 2.0)])


def _order_with_two_waiters(form, bare=False):
    sim = Simulator()
    gate = sim.event()
    log = []

    def op(name):
        log.append((name, "op"))
        yield 1.0 if bare else sim.timeout(1.0)

    def waiter(name):
        yield gate
        log.append((name, "resumed"))
        yield sim.process(op(name)) if form == "process" else op(name)

    sim.process(waiter("p"))
    sim.process(waiter("q"))
    sim.schedule_callback(2.0, lambda: gate.succeed())
    sim.run()
    return log


def test_only_the_last_callback_of_an_event_runs_wakes_inline():
    expected = [("p", "resumed"), ("q", "resumed"), ("p", "op"),
                ("q", "op")]
    assert _order_with_two_waiters("process") == expected
    assert _order_with_two_waiters("sub-operation") == expected


# -- bare delays: a yielded float sleeps like sim.timeout(float) ------------

def test_bare_delays_keep_the_grant_order_of_timeouts():
    assert _grant_order("process", bare=True) == ["B", "A"]
    assert _grant_order("sub-operation", bare=True) == ["B", "A"]
    assert _grant_order("yield from", bare=True) == ["A", "B"]


def test_lone_process_gets_identical_timestamps_with_bare_delays():
    stamps, dispatched = _timeline("sub-operation")
    stamps_bare, dispatched_bare = _timeline("sub-operation", bare=True)
    assert stamps_bare == stamps
    # each delay ran inline instead of being queued
    assert dispatched_bare < dispatched


def test_bare_delays_keep_the_order_around_run_targets_and_waiters():
    assert _order_after_run_target("sub-operation", bare=True) \
        == _order_after_run_target("process")
    assert _order_with_two_waiters("sub-operation", bare=True) \
        == _order_with_two_waiters("process")


def _tie(bare):
    sim = Simulator()
    log = []

    def sleeper():
        yield 2.0 if bare else sim.timeout(2.0)
        log.append(("sleeper", sim.now))

    sim.schedule_callback(2.0, lambda: log.append(("callback", sim.now)))
    sim.process(sleeper())
    sim.run()
    return log


def test_bare_delay_ending_on_a_queued_event_resumes_after_it():
    # the queued callback is older than the sleeper's timeout would be
    assert _tie(True) == _tie(False) == [("callback", 2.0),
                                         ("sleeper", 2.0)]


def _horizon(bare):
    sim = Simulator()
    log = []

    def ticker():
        for _ in range(4):
            yield 3.0 if bare else sim.timeout(3.0)
            log.append(sim.now)

    sim.process(ticker())
    sim.run(until=7.0)
    first = (sim.now, list(log))
    sim.run()
    return first, (sim.now, log)


def test_run_until_a_time_stops_bare_delays_at_the_horizon():
    assert _horizon(True) == _horizon(False) == (
        (7.0, [3.0, 6.0]), (12.0, [3.0, 6.0, 9.0, 12.0]))


def test_negative_bare_delay_raises_value_error():
    sim = Simulator()
    caught = []

    def careful():
        try:
            yield -1.0
        except ValueError as exc:
            caught.append(str(exc))

    def careless():
        yield -1.0

    sim.process(careful())
    sim.run()
    with pytest.raises(ValueError) as timeout_error:
        sim.timeout(-1.0)
    assert caught == [str(timeout_error.value)]
    sim.process(careless())
    with pytest.raises(ValueError, match="negative timeout delay"):
        sim.run()


@pytest.mark.parametrize("delay", [1, np.float64(1.0)])
def test_only_a_python_float_is_a_bare_delay(delay):
    sim = Simulator()

    def p():
        yield delay

    proc = sim.process(p())
    proc.defused = True
    sim.run()
    assert not proc.ok
    assert f"non-event ({type(delay).__name__})" in str(proc.value)


def test_free_resource_grant_is_already_processed():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    first, second = res.acquire(), res.acquire()
    assert first.triggered and first.processed and first.ok
    assert second.triggered and second.processed
    assert sim.peek() == float("inf")      # nothing was scheduled
    assert not res.acquire().triggered


def _hostscope_counts(bare):
    hs = HostScope()
    with use_hostscope(hs):
        _timeline("sub-operation", bare)
    return hs.sim_ns, hs.events


def test_bare_delays_advance_hostscope_sim_time_without_dispatches():
    sim_ns, events = _hostscope_counts(False)
    sim_ns_bare, events_bare = _hostscope_counts(True)
    assert sim_ns_bare == sim_ns == 27.0
    assert events_bare < events


_DELAYS = st.sampled_from([0.0, 0.1, 0.2, 0.5, 1.0, 3.0])


def _steps(depth):
    step = st.one_of(
        st.tuples(st.just("delay"), _DELAYS),
        st.tuples(st.just("compute"), _DELAYS),
        st.tuples(st.just("hold"), st.integers(0, 2), _DELAYS))
    if depth:
        step = st.one_of(step, st.tuples(st.just("sub"), _steps(depth - 1)))
    return st.lists(step, max_size=5)


_PROGRAMS = st.tuples(
    st.lists(st.integers(1, 2), min_size=1, max_size=3),   # capacities
    st.lists(_steps(2), min_size=1, max_size=6),           # processes
    st.one_of(st.none(), st.sampled_from([0.0, 0.3, 1.0, 2.5])))


def _run_program(program, bare, profiled=False):
    """Run ``program`` with its delays as timeouts or as bare delays,
    under a hostscope when ``profiled`` (the profiled resume loop); the
    log holds (time, process, step) for every step and grant."""
    if profiled:
        with use_hostscope(HostScope()):
            return _run_program(program, bare)
    capacities, processes, horizon = program
    sim = Simulator()
    resources = [Resource(sim, capacity) for capacity in capacities]
    log = []

    def sleep(delay):
        return delay if bare else sim.timeout(delay)

    def run(pid, steps, counter):
        for step in steps:
            if step[0] == "delay":
                yield sleep(step[1])
            elif step[0] == "compute":
                yield sim.timeout(step[1])
            elif step[0] == "hold":
                res = resources[step[1] % len(resources)]
                yield res.acquire()
                log.append((sim.now, pid, next(counter)))
                try:
                    yield sleep(step[2])
                finally:
                    res.release()
            else:
                yield run(pid, step[1], counter)
            log.append((sim.now, pid, next(counter)))

    for pid, steps in enumerate(processes):
        sim.process(run(pid, steps, itertools.count()))
    if horizon is not None:
        sim.run(until=horizon)
        log.append(("horizon", sim.now))
    sim.run()
    return log, sim.now


@settings(max_examples=200, deadline=None)
@given(_PROGRAMS)
def test_bare_delays_replay_timeout_programs_exactly(program):
    """Bare delays or timeouts, each with the profiled or the unprofiled
    resume loop: all four runs log the same steps at the same times."""
    logs = [_run_program(program, bare, profiled)
            for bare in (False, True) for profiled in (False, True)]
    assert logs[1] == logs[2] == logs[3] == logs[0]
