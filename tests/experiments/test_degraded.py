"""Tests for the degraded-mode (failed SCI rings) experiment."""

import pytest

from repro.experiments import run_experiment
from repro.faults import ring_loss_plan, use_faults


@pytest.fixture(scope="module")
def degraded():
    return run_experiment("degraded", quick=True)


def test_default_scenarios(degraded):
    assert degraded.data["scenarios"] == [
        "0 rings failed", "1 ring failed", "2 rings failed"]


def test_ring_loss_slows_messages(degraded):
    base = degraded.data["0 rings failed"]["round_trip_us"]
    for label in ("1 ring failed", "2 rings failed"):
        worse = degraded.data[label]["round_trip_us"]
        assert all(w > b for w, b in zip(worse, base)), label


def test_ring_loss_slows_barriers(degraded):
    base = degraded.data["0 rings failed"]["barrier_lilo_us"]
    worse = degraded.data["2 rings failed"]["barrier_lilo_us"]
    assert all(w >= b for w, b in zip(worse, base))


def test_fault_events_recorded_for_manifests(degraded):
    events = {e["scenario"]: e["events"]
              for e in degraded.data["fault_events"]}
    assert "0 rings failed" not in events   # the baseline is clean
    assert [ev["kind"] for ev in events["1 ring failed"]] == ["ring_fail"]
    assert [ev["ring"] for ev in events["2 rings failed"]] == [0, 1]


def test_series_per_scenario(degraded):
    assert {s.label for s in degraded.series} == {
        "barrier LILO, 0 rings failed", "barrier LILO, 1 ring failed",
        "barrier LILO, 2 rings failed"}


def test_ambient_plan_replaces_canned_scenarios():
    plan = ring_loss_plan(1, description="custom plan under test")
    with use_faults(plan):
        result = run_experiment("degraded", quick=True)
    assert result.data["scenarios"] == ["0 rings failed",
                                       "custom plan under test"]
    [recorded] = result.data["fault_events"]
    assert recorded["scenario"] == "custom plan under test"

