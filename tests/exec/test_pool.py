"""Tests for the worker pool: ordering, ambients, crash containment."""

import multiprocessing
import os
import sys

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


# -- an opened pool keeps its workers ------------------------------------------


def _children():
    return {proc.pid for proc in multiprocessing.active_children()}


def test_opened_pool_keeps_its_workers_across_calls():
    """One kept worker serves units of two experiments on two machine
    configurations, and each call equals a serial one."""
    from repro.exec.units import plan_units

    calls = [("fig2", spp1000(2)), ("fig3", spp1000(1))]
    before = _children()
    workers = []
    with WorkerPool(1) as pool:
        for experiment_id, config in calls:
            units = plan_units(experiment_id, config, quick=True)
            stats = PoolStats(1)
            values = pool.map_units(units, config, stats=stats)
            assert values == WorkerPool(1).map_units(units, config)
            assert {t["where"] for t in stats.unit_timings} == {"worker"}
            workers.append(_children() - before)
    assert len(workers[0]) == 1 and workers[1] == workers[0]
    assert _children() == before


class _Cancel(BaseException):
    """A cancel raised from a progress hook, like the server's."""


def test_cancel_from_a_hook_leaves_an_opened_pool_usable():
    units = _plan_square(None)

    def cancel(unit, timing):
        raise _Cancel(unit.key)

    before = _children()
    with WorkerPool(1) as pool:
        with pytest.raises(_Cancel):
            pool.map_units(units, spp1000(), on_progress=cancel)
        assert _children() == before  # the cancel stopped the worker
        stats = PoolStats(1)
        values = pool.map_units(units, spp1000(), stats=stats)
        assert values == WorkerPool(1).map_units(units, spp1000())
        assert stats.in_workers == len(units)
    assert _children() == before


# -- a worker forked while another thread imports ----------------------------


def _run_importer(params, config):
    import _pool_slow_import

    return _pool_slow_import.VALUE


register("_pool_importer", "synthetic late import", run=_assemble,
         plan_units=lambda config, quick=False: [
             WorkUnit("_pool_importer", "imp", {})],
         unit=_run_importer)


def test_worker_forked_during_an_import_can_finish_that_import(
        tmp_path, monkeypatch):
    """A thread is inside a module's body when the pool forks its
    worker; the worker must still import that module: it is forked only
    once the import has finished."""
    import threading

    from repro.exec.resilience import ResiliencePolicy
    from repro.exec.units import plan_units

    gate = tmp_path / "gate"
    (tmp_path / "_pool_slow_import.py").write_text(
        "import os, time\n"
        f"while not os.path.exists({str(gate)!r}):\n"
        "    time.sleep(0.01)\n"
        "VALUE = 7\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    importer = threading.Thread(
        target=__import__, args=("_pool_slow_import",))
    importer.start()
    threading.Timer(0.3, gate.touch).start()
    units = plan_units("_pool_importer", spp1000())
    stats = PoolStats(1)
    policy = ResiliencePolicy(unit_timeout_s=10.0, max_retries=0)
    with WorkerPool(1, policy) as pool:
        values = pool.map_units(units, spp1000(), stats=stats)
    importer.join()
    sys.modules.pop("_pool_slow_import", None)
    assert values == {"imp": 7}
    assert stats.in_workers == 1 and stats.resilience.timeouts == 0


def test_import_that_outlasts_the_wait_computes_in_process(
        tmp_path, monkeypatch):
    """A thread is still inside a module's body when the wait for it
    ends: the pool forks nothing and computes the call in-process."""
    import threading

    from repro.exec import pool as pool_module

    gate = tmp_path / "gate"
    (tmp_path / "_pool_stuck_import.py").write_text(
        "import os, time\n"
        f"while not os.path.exists({str(gate)!r}):\n"
        "    time.sleep(0.01)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(pool_module, "_IMPORT_WAIT_S", 0.05)
    importer = threading.Thread(
        target=__import__, args=("_pool_stuck_import",))
    importer.start()
    units = _plan_square(None)
    before = _children()
    stats = PoolStats(1)
    try:
        with WorkerPool(1) as pool:
            values = pool.map_units(units, spp1000(), stats=stats)
            assert _children() == before
    finally:
        gate.touch()
        importer.join()
        sys.modules.pop("_pool_stuck_import", None)
    assert values == WorkerPool(1).map_units(units, spp1000())
    assert stats.in_workers == 0
    assert stats.resilience.serial_fallbacks == len(units)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/<pid>/status")
def test_worker_ignores_sigint_and_dies_on_sigterm_whatever_its_parent_does():
    """A worker forked from a process that handles SIGTERM (an asyncio
    server does) must still die on the supervisor's SIGTERM, and leave
    a terminal's SIGINT to the supervisor."""
    import signal

    before = _children()
    previous = signal.signal(signal.SIGTERM, lambda *args: None)
    try:
        with WorkerPool(1) as pool:
            pool.map_units(_plan_square(None), spp1000())
            (pid,) = _children() - before
            with open(f"/proc/{pid}/status") as fh:
                status = dict(line.split(":\t") for line in
                              fh.read().splitlines() if ":\t" in line)
    finally:
        signal.signal(signal.SIGTERM, previous)
    caught = int(status["SigCgt"], 16)
    ignored = int(status["SigIgn"], 16)
    assert not caught & (1 << (signal.SIGTERM - 1))
    assert ignored & (1 << (signal.SIGINT - 1))
