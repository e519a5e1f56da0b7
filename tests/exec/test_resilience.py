"""Host-level fault tolerance: timeouts, retries, quarantine, hangs."""

import multiprocessing
import os
import time

import pytest

from repro.core import spp1000
from repro.exec.pool import PoolStats, WorkerPool
from repro.exec.resilience import (
    DEFAULT_MAX_RETRIES,
    ResiliencePolicy,
    ResilienceStats,
    UnitExecutionError,
    UnitFailure,
)
from repro.exec.units import WorkUnit
from repro.experiments.base import ExperimentResult, register

# -- synthetic experiments (module-level so workers can resolve them) -------


def _plan_poison(config, quick=False):
    return [WorkUnit("_resil_poison", f"p:{i}", {"i": i}) for i in range(4)]


def _run_poison(params, config):
    if params["i"] == 2:
        raise ValueError(f"poison unit {params['i']}")
    return params["i"] * 10


def _plan_hang(config, quick=False):
    return [WorkUnit("_resil_hang", f"h:{i}", {"i": i}) for i in range(3)]


def _run_hang(params, config):
    # hang forever -- but only inside a worker, so the serial-degradation
    # attempt succeeds and proves the hang detector recovered the sweep
    if params["i"] == 1 and multiprocessing.parent_process() is not None:
        time.sleep(600)
    return params["i"]


def _plan_flaky(config, quick=False):
    return [WorkUnit("_resil_flaky", f"f:{i}", {"i": i}) for i in range(3)]


def _run_flaky(params, config):
    # worker pids differ run to run; fail in exactly one worker process
    # per unit by dying only on the first attempt marker file
    if params["i"] == 1:
        marker = os.environ.get("RESIL_FLAKY_MARKER")
        if marker and not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write("x")
            raise RuntimeError("transient failure")
    return params["i"]


def _assemble(values, config, quick=False):
    return ExperimentResult("_resil", "synthetic resilience sweep",
                            data=dict(values))


register("_resil_poison", "synthetic poison unit", run=_assemble,
         plan_units=_plan_poison, unit=_run_poison)
register("_resil_hang", "synthetic hung worker", run=_assemble,
         plan_units=_plan_hang, unit=_run_hang)
register("_resil_flaky", "synthetic transient failure", run=_assemble,
         plan_units=_plan_flaky, unit=_run_flaky)


# -- policy ------------------------------------------------------------------

def test_policy_defaults_and_ladder():
    policy = ResiliencePolicy()
    assert policy.max_retries == DEFAULT_MAX_RETRIES == 2
    assert policy.pool_attempts == 3
    assert policy.backoff_for(1) == 0.0
    assert policy.backoff_for(2) == pytest.approx(0.05)
    assert policy.backoff_for(3) == pytest.approx(0.10)
    assert policy.backoff_for(4) == pytest.approx(0.20)
    assert policy.replacement_budget(4) == 10


def test_policy_rejects_bad_values():
    with pytest.raises(ValueError, match="unit_timeout_s"):
        ResiliencePolicy(unit_timeout_s=0)
    with pytest.raises(ValueError, match="max_retries"):
        ResiliencePolicy(max_retries=-1)
    with pytest.raises(ValueError, match="backoff_s"):
        ResiliencePolicy(backoff_s=-0.1)


def test_resilience_stats_dict_shape():
    stats = ResilienceStats()
    assert not stats.any()
    doc = stats.to_dict()
    assert doc["retries"] == 0 and "chaos_injected" not in doc
    stats.count_chaos("kill_worker")
    stats.count_chaos("kill_worker")
    assert stats.any()
    assert stats.to_dict()["chaos_injected"] == {"kill_worker": 2}


# -- quarantine: the sweep drains, then the error names everything ----------

def _assert_poison_error(excinfo, stats):
    err = excinfo.value
    assert isinstance(err, UnitExecutionError)
    assert [f.key for f in err.failures] == ["p:2"]
    failure = err.failures[0]
    assert isinstance(failure, UnitFailure)
    assert failure.attempts >= 1
    # the actionable message names the unit key and attempt count ...
    assert "p:2" in str(err)
    assert "attempts" in str(err)
    # ... and carries the ORIGINAL traceback, not pool internals
    assert "poison unit 2" in str(err)
    assert "ValueError" in str(err)
    assert stats.resilience.quarantined_count == 1


def test_serial_poison_unit_quarantined_not_sinking_sweep():
    units = _plan_poison(None)
    stats = PoolStats(1)
    cached = {}
    policy = ResiliencePolicy(max_retries=1, backoff_s=0.0)
    with pytest.raises(UnitExecutionError) as excinfo:
        WorkerPool(1, policy).map_units(
            units, spp1000(), stats=stats,
            on_complete=lambda u, v: cached.update({u.key: v}))
    _assert_poison_error(excinfo, stats)
    # every healthy unit completed and reached the cache hook first
    assert cached == {"p:0": 0, "p:1": 10, "p:3": 30}
    # the exception chain preserves the real exception (raise ... from e)
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_parallel_poison_unit_quarantined_with_traceback():
    units = _plan_poison(None)
    stats = PoolStats(2)
    policy = ResiliencePolicy(max_retries=1, backoff_s=0.0)
    with pytest.raises(UnitExecutionError) as excinfo:
        WorkerPool(2, policy).map_units(units, spp1000(), stats=stats)
    _assert_poison_error(excinfo, stats)
    assert stats.resilience.retries >= 1


def test_retry_event_names_key_and_attempt():
    units = _plan_poison(None)
    events = []
    policy = ResiliencePolicy(max_retries=2, backoff_s=0.0)
    with pytest.raises(UnitExecutionError):
        WorkerPool(1, policy).map_units(
            units, spp1000(), on_event=events.append)
    retries = [e for e in events if e["event"] == "retry"]
    assert retries, "expected retry events"
    for event in retries:
        assert event["key"] == "p:2"
        assert event["attempt"] >= 2
        assert event["max_attempts"] >= event["attempt"]
        assert "poison unit 2" in event["error"]
    quarantines = [e for e in events if e["event"] == "quarantine"]
    assert [q["key"] for q in quarantines] == ["p:2"]


# -- hang detection ----------------------------------------------------------

def test_hung_worker_detected_replaced_and_unit_recovered():
    units = _plan_hang(None)
    stats = PoolStats(2)
    events = []
    policy = ResiliencePolicy(unit_timeout_s=1.0, max_retries=0,
                              backoff_s=0.0)
    values = WorkerPool(2, policy).map_units(
        units, spp1000(), stats=stats, on_event=events.append)
    # the hang was detected, the worker replaced, the unit recovered
    # in-process -- and every value is correct
    assert values == {"h:0": 0, "h:1": 1, "h:2": 2}
    assert stats.resilience.timeouts >= 1
    assert stats.resilience.hung_workers_replaced >= 1
    hung = [e for e in events if e["event"] == "hung_worker"]
    assert hung and hung[0]["key"] == "h:1"
    assert hung[0]["timeout_s"] == 1.0
    assert stats.to_dict()["resilience"]["hung_workers_replaced"] >= 1


# -- KeyboardInterrupt is never swallowed ------------------------------------

def test_keyboard_interrupt_propagates_serially(monkeypatch):
    units = _plan_poison(None)[:1]

    def interrupted(experiment_id, params, config):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.exec.pool.run_unit", interrupted)
    with pytest.raises(KeyboardInterrupt):
        WorkerPool(1).map_units(units, spp1000())


# -- transient failures recover without quarantine ---------------------------

def test_transient_worker_failure_retries_to_success(tmp_path,
                                                     monkeypatch):
    marker = tmp_path / "flaky-once"
    monkeypatch.setenv("RESIL_FLAKY_MARKER", str(marker))
    units = _plan_flaky(None)
    stats = PoolStats(2)
    policy = ResiliencePolicy(max_retries=2, backoff_s=0.0)
    values = WorkerPool(2, policy).map_units(units, spp1000(),
                                             stats=stats)
    assert values == {"f:0": 0, "f:1": 1, "f:2": 2}
    assert stats.resilience.retries >= 1
    assert stats.resilience.quarantined_count == 0
