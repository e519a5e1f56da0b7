"""Unit tests for sim-time resources."""

import pytest

from repro.sim import Resource, SimulationError, Simulator


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.acquire().triggered
    assert res.acquire().triggered
    third = res.acquire()
    assert not third.triggered
    assert res.queue_length == 1
    res.release()
    assert third.triggered


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_serialises_contending_processes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    finish_times = []

    def worker(sim, res):
        yield res.acquire()
        try:
            yield sim.timeout(10.0)
        finally:
            res.release()
        finish_times.append(sim.now)

    for _ in range(3):
        sim.process(worker(sim, res))
    sim.run()
    assert finish_times == [10.0, 20.0, 30.0]


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, name):
        yield res.acquire()
        order.append(name)
        res.release()

    hold = res.acquire()
    for name in "abc":
        sim.process(worker(sim, res, name))
    sim.run()
    assert order == []
    res.release()  # release the initial hold
    sim.run()
    assert order == ["a", "b", "c"]
    assert hold.triggered
