"""The deterministic host-chaos harness, and its bit-identity contract."""

import json

import pytest

from repro.core import spp1000
from repro.core.canon import canonical_json
from repro.exec.chaos import (
    ChaosPlanError,
    chaos_from_dict,
    corrupt_cache_entry,
    load_chaos_plan,
    validate_chaos_dict,
)
from repro.exec.pool import PoolStats, WorkerPool
from repro.exec.resilience import ResiliencePolicy
from repro.exec.units import WorkUnit
from repro.experiments.base import ExperimentResult, register

# -- synthetic experiment (module-level so workers can resolve it) ----------


def _plan_victim(config, quick=False):
    return [WorkUnit("_chaos_victim", f"v:{i}", {"i": i})
            for i in range(6)]


def _run_victim(params, config):
    return {"i": params["i"], "sq": params["i"] ** 2}


def _assemble_victim(values, config, quick=False):
    return ExperimentResult("_chaos_victim", "synthetic chaos victim",
                            data=dict(values))


register("_chaos_victim", "synthetic chaos victim", run=_assemble_victim,
         plan_units=_plan_victim, unit=_run_victim)


# -- validation: every problem reported, faults/plan.py style ---------------

def test_validate_lists_every_problem():
    errors = validate_chaos_dict({
        "seed": "zero",
        "bogus": 1,
        "faults": [
            {"kind": "explode", "unit": 0},
            {"kind": "kill_worker"},
            {"kind": "kill_worker", "unit": 0, "key": "both"},
            {"kind": "delay_unit", "unit": 1},
            {"kind": "kill_worker", "unit": 2, "seconds": 1},
            {"kind": "kill_worker", "unit": -1},
            {"kind": "kill_worker", "unit": 3, "attempts": []},
            {"kind": "kill_worker", "unit": 4, "p": 1.5},
        ],
    })
    text = "\n".join(errors)
    assert "unknown key 'bogus'" in text
    assert "seed must be an integer" in text
    assert "'explode'" in text
    assert "neither" in text and "both" in text
    assert "requires the 'seconds' field" in text
    assert "only valid for kind 'delay_unit'" in text
    assert "non-negative plan-order" in text
    assert "attempts must be a non-empty list" in text
    assert "p must be a probability" in text
    assert len(errors) >= 9


def test_chaos_from_dict_raises_with_all_problems():
    with pytest.raises(ChaosPlanError) as excinfo:
        chaos_from_dict({"faults": [{"kind": "nope", "unit": 0},
                                    {"kind": "kill_worker"}]})
    lines = str(excinfo.value).splitlines()
    assert len(lines) == 2


def test_load_chaos_plan_roundtrip(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "description": "test",
        "seed": 7,
        "faults": [{"kind": "delay_unit", "unit": 1, "seconds": 0.25},
                   {"kind": "kill_worker", "key": "v:0",
                    "attempts": [1, 2]}],
    }))
    plan = load_chaos_plan(str(path))
    assert plan.seed == 7 and len(plan.faults) == 2
    assert plan.faults[0].seconds == 0.25
    assert plan.faults[1].attempts == (1, 2)
    assert not plan.is_empty


def test_load_chaos_plan_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ChaosPlanError, match="not valid JSON"):
        load_chaos_plan(str(path))
    path.write_bytes(b'\xff\xfe{"faults": []}')  # not UTF-8
    with pytest.raises(ChaosPlanError, match="not valid JSON"):
        load_chaos_plan(str(path))


# -- resolution: deterministic, quick-mode tolerant -------------------------

def test_resolve_targets_by_index_and_key():
    units = _plan_victim(None)
    plan = chaos_from_dict({"faults": [
        {"kind": "kill_worker", "unit": 2},
        {"kind": "delay_unit", "key": "v:4", "seconds": 0.1},
        {"kind": "kill_worker", "unit": 99},        # beyond the sweep
        {"kind": "drop_return", "key": "v:nope"},   # unknown key
    ]})
    resolved = plan.resolve(units)
    assert set(resolved) == {"v:2", "v:4"}
    assert resolved["v:2"] == [{"kind": "kill_worker", "seconds": 0.0,
                                "attempts": [1]}]
    assert resolved["v:4"][0]["kind"] == "delay_unit"


def test_resolve_probability_is_seeded_and_stable():
    units = _plan_victim(None)
    data = {"seed": 3, "faults": [
        {"kind": "kill_worker", "unit": i, "p": 0.5} for i in range(6)]}
    first = chaos_from_dict(data).resolve(units)
    second = chaos_from_dict(data).resolve(units)
    assert first == second
    assert chaos_from_dict({**data, "seed": 3})
    # p=0 never fires, p=1 always fires
    none = chaos_from_dict({"faults": [
        {"kind": "kill_worker", "unit": 0, "p": 0.0}]}).resolve(units)
    assert none == {}
    always = chaos_from_dict({"faults": [
        {"kind": "kill_worker", "unit": 0, "p": 1.0}]}).resolve(units)
    assert set(always) == {"v:0"}


# -- cache corruption helper ------------------------------------------------

def test_corrupt_cache_entry_keeps_checksum_field(tmp_path):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"schema": 2, "value": [1, 2, 3],
                                "sha256": "feedface"}))
    assert corrupt_cache_entry(str(path))
    entry = json.loads(path.read_text())
    assert entry["sha256"] == "feedface"          # checksum untouched
    assert entry["value"]["__chaos_corrupted__"] is True
    assert entry["value"]["was"] == [1, 2, 3]
    assert not corrupt_cache_entry(str(tmp_path / "missing.json"))


# -- the pinned contract: chaos runs are bit-identical ----------------------

def test_chaos_kills_delays_and_drops_stay_bit_identical():
    units = _plan_victim(None)
    config = spp1000()
    clean = WorkerPool(1).map_units(units, config)

    plan = chaos_from_dict({"faults": [
        {"kind": "kill_worker", "unit": 0},
        {"kind": "kill_worker", "unit": 3},
        {"kind": "delay_unit", "unit": 1, "seconds": 0.05},
        {"kind": "drop_return", "unit": 2},
    ]})
    stats = PoolStats(2)
    policy = ResiliencePolicy(backoff_s=0.0)
    chaotic = WorkerPool(2, policy).map_units(
        units, config, stats=stats, chaos_spec=plan.resolve(units))

    assert canonical_json(chaotic) == canonical_json(clean)
    assert list(chaotic) == [u.key for u in units]   # plan order kept
    injected = stats.resilience.chaos_injected
    assert injected.get("kill_worker", 0) == 2
    assert injected.get("delay_unit", 0) >= 1
    assert injected.get("drop_return", 0) >= 1
    assert stats.resilience.retries >= 3
    assert stats.resilience.workers_replaced >= 2
    assert stats.resilience.quarantined_count == 0


def test_worker_killed_after_the_last_drain_is_still_retried(monkeypatch):
    """A worker can send its ``start`` heartbeat and die after the
    supervisor last read the result queue but before it checks whether
    the worker is alive.  The supervisor must still read that heartbeat
    and retry the unit, not leave it in flight for ever (the sweep used
    to hang there).  A liveness check that first gives the worker a
    moment to exit opens that window on every kill; the unit timeout
    only matters if the heartbeat is lost, when the hung-worker detector
    recovers the unit and counts a timeout."""
    import multiprocessing.process

    is_alive = multiprocessing.process.BaseProcess.is_alive

    def slow_is_alive(proc):
        proc.join(timeout=0.2)
        return is_alive(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "is_alive",
                        slow_is_alive)
    units = _plan_victim(None)
    config = spp1000()
    clean = WorkerPool(1).map_units(units, config)
    plan = chaos_from_dict({"faults": [
        {"kind": "kill_worker", "unit": 0},
        {"kind": "kill_worker", "unit": 1},
    ]})
    stats = PoolStats(2)
    policy = ResiliencePolicy(unit_timeout_s=30.0, backoff_s=0.0)
    chaotic = WorkerPool(2, policy).map_units(
        units, config, stats=stats, chaos_spec=plan.resolve(units))

    assert canonical_json(chaotic) == canonical_json(clean)
    assert stats.resilience.chaos_injected.get("kill_worker", 0) == 2
    assert stats.resilience.retries == 2
    assert stats.resilience.timeouts == 0


def test_chaos_serial_delay_and_drop_stay_bit_identical():
    units = _plan_victim(None)
    config = spp1000()
    clean = WorkerPool(1).map_units(units, config)
    plan = chaos_from_dict({"faults": [
        {"kind": "delay_unit", "unit": 1, "seconds": 0.01},
        {"kind": "drop_return", "unit": 2},
    ]})
    stats = PoolStats(1)
    policy = ResiliencePolicy(backoff_s=0.0)
    chaotic = WorkerPool(1, policy).map_units(
        units, config, stats=stats, chaos_spec=plan.resolve(units))
    assert canonical_json(chaotic) == canonical_json(clean)
    assert stats.resilience.chaos_injected.get("drop_return", 0) == 1
    assert stats.resilience.retries >= 1
