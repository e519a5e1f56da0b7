"""Tests for the worker pool: ordering, ambients, crash containment."""

import multiprocessing
import os

import pytest

from repro.core import spp1000
from repro.exec.pool import PoolStats, WorkerPool
from repro.exec.units import WorkUnit
from repro.experiments.base import ExperimentResult, register

# -- synthetic experiments registered for pool testing ----------------------
# Runners must be module-level so worker processes can resolve them.


def _plan_square(config, quick=False):
    return [WorkUnit("_pool_square", f"sq:{i}", {"i": i}) for i in range(6)]


def _run_square(params, config):
    return params["i"] * params["i"]


def _plan_crashy(config, quick=False):
    return [WorkUnit("_pool_crashy", f"c:{i}", {"i": i}) for i in range(4)]


def _run_crashy(params, config):
    # die hard -- but only inside a worker process, so the in-process
    # retry (and serial runs) succeed
    if params["i"] == 2 and multiprocessing.parent_process() is not None:
        os._exit(13)
    return params["i"]


def _plan_faulty(config, quick=False):
    return [WorkUnit("_pool_faulty", "probe", {})]


def _run_faulty(params, config):
    from repro.faults import active_fault_plan

    plan = active_fault_plan()
    return None if plan is None else plan.to_dict()["events"]


def _assemble(values, config, quick=False):
    return ExperimentResult("_pool", "synthetic pool sweep",
                            data=dict(values))


register("_pool_square", "synthetic squares", run=_assemble,
         plan_units=_plan_square, unit=_run_square)
register("_pool_crashy", "synthetic worker crash", run=_assemble,
         plan_units=_plan_crashy, unit=_run_crashy)
register("_pool_faulty", "synthetic fault-plan probe", run=_assemble,
         plan_units=_plan_faulty, unit=_run_faulty)


def test_serial_pool_runs_in_plan_order():
    units = _plan_square(None)
    stats = PoolStats(1)
    seen = []
    values = WorkerPool(1).map_units(
        units, spp1000(), stats=stats,
        on_complete=lambda u, v: seen.append(u.key))
    assert list(values) == [u.key for u in units]
    assert values["sq:3"] == 9
    assert seen == [u.key for u in units]
    assert stats.executed == 6
    assert stats.in_workers == 0


def test_parallel_pool_merges_into_plan_order():
    units = _plan_square(None)
    stats = PoolStats(2)
    values = WorkerPool(2).map_units(units, spp1000(), stats=stats)
    assert list(values) == [u.key for u in units]
    assert [values[f"sq:{i}"] for i in range(6)] == [0, 1, 4, 9, 16, 25]
    assert stats.executed == 6


def test_worker_crash_degrades_to_in_process_retry():
    units = _plan_crashy(None)
    stats = PoolStats(2)
    values = WorkerPool(2).map_units(units, spp1000(), stats=stats)
    assert [values[f"c:{i}"] for i in range(4)] == [0, 1, 2, 3]
    assert stats.retried_in_process >= 1


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError):
        WorkerPool(0)


def test_fault_plan_reaches_workers():
    from repro.faults import ring_loss_plan

    plan = ring_loss_plan(1)
    expected = plan.to_dict()["events"]
    for jobs in (1, 2):
        values = WorkerPool(jobs).map_units(
            _plan_faulty(None), spp1000(), fault_plan=plan)
        assert values["probe"] == expected, f"jobs={jobs}"


def test_no_fault_plan_means_clean_workers():
    for jobs in (1, 2):
        values = WorkerPool(jobs).map_units(
            _plan_faulty(None), spp1000())
        assert values["probe"] is None, f"jobs={jobs}"


def test_spawned_workers_resolve_experiments_from_the_table(monkeypatch):
    """Under ``spawn`` a worker starts from a fresh interpreter: it
    finds fig3's runner through the experiment table on its own."""
    from repro.core.canon import stable_hash
    from repro.exec import execute

    serial, _ = execute("fig3", spp1000(), quick=True)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    spawned, report = execute("fig3", spp1000(), quick=True, jobs=2)
    assert report.retried_in_process == 0
    assert report.computed == 16
    assert {t["where"] for t in report.unit_timings} == {"worker"}
    assert stable_hash(spawned.data) == stable_hash(serial.data)
