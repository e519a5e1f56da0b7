"""The fabric's bit-identity contract.

Acceptance criteria from the execution-fabric issue: every experiment
run with ``--jobs 4`` produces byte-identical ``.data`` to the serial
run — including under a fault plan and when resuming a half-finished
journal — and a warm-cache re-run re-simulates nothing.  A warm cache
and a replayed journal hand back each value with its keys in the order
the unit built them, so even ``json.dumps(data)`` matches the serial
run.  A sweep stopped partway keeps every unit it reported as finished.
"""

import json

import pytest

from repro.core import spp1000
from repro.core.canon import canonical_json
from repro.exec import ResultCache, SweepJournal, execute, unit_experiments

CONFIG = spp1000()

_serial_cache = {}


def serial_data(exp_id):
    """Canonical serial-run .data per experiment, computed once."""
    return _serial_run(exp_id)[:2]


def serial_dumps(exp_id):
    """The serial run's ``json.dumps(.data)``: key order included."""
    return _serial_run(exp_id)[2]


def _serial_run(exp_id):
    if exp_id not in _serial_cache:
        result, report = execute(exp_id, CONFIG, jobs=1, quick=True)
        _serial_cache[exp_id] = (canonical_json(result.data), report,
                                 json.dumps(result.data))
    return _serial_cache[exp_id]


@pytest.mark.parametrize("exp_id", unit_experiments())
def test_jobs4_is_bit_identical_to_serial(exp_id):
    expected, serial_report = serial_data(exp_id)
    result, report = execute(exp_id, CONFIG, jobs=4, quick=True)
    assert canonical_json(result.data) == expected
    assert json.dumps(result.data) == serial_dumps(exp_id)
    assert report.units_planned == serial_report.units_planned
    assert report.fallback_points == serial_report.fallback_points


@pytest.mark.parametrize("exp_id", unit_experiments())
def test_warm_cache_recomputes_nothing(exp_id, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cold, cold_report = execute(exp_id, CONFIG, jobs=2, quick=True,
                                cache=cache)
    warm, warm_report = execute(exp_id, CONFIG, jobs=2, quick=True,
                                cache=cache)
    assert canonical_json(cold.data) == canonical_json(warm.data)
    assert canonical_json(warm.data) == serial_data(exp_id)[0]
    assert json.dumps(warm.data) == serial_dumps(exp_id)
    assert warm_report.computed == 0
    assert warm_report.cache_hits == warm_report.units_planned
    assert warm_report.cache_misses == 0


@pytest.mark.parametrize("exp_id", unit_experiments())
def test_replayed_journal_is_bit_identical(exp_id, tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    execute(exp_id, CONFIG, jobs=1, quick=True, journal=SweepJournal(path))
    replayed, report = execute(exp_id, CONFIG, jobs=1, quick=True,
                               journal=SweepJournal(path))
    assert report.computed == 0
    assert report.from_journal == report.units_planned
    assert json.dumps(replayed.data) == serial_dumps(exp_id)


def test_parallel_under_fault_plan_is_bit_identical():
    from repro.faults import ring_loss_plan, use_faults

    plan = ring_loss_plan(1)
    with use_faults(plan):
        serial, _ = execute("degraded", CONFIG, jobs=1, quick=True,
                            fault_plan=plan)
        parallel, rep = execute("degraded", CONFIG, jobs=4, quick=True,
                                fault_plan=plan)
    assert canonical_json(serial.data) == canonical_json(parallel.data)
    # the ambient plan shrank the scenario list to clean-vs-plan
    assert serial.data["scenarios"][0] == "0 rings failed"
    assert len(serial.data["scenarios"]) == 2


def test_resume_mid_sweep_is_bit_identical(tmp_path):
    expected, _ = serial_data("fig3")
    # a "killed" run: only the first five points made it to disk
    full = tmp_path / "full.jsonl"
    execute("fig3", CONFIG, jobs=1, quick=True,
            journal=SweepJournal(str(full)))
    partial = tmp_path / "partial.jsonl"
    header_and_five = full.read_text().splitlines(keepends=True)[:6]
    partial.write_text("".join(header_and_five))

    result, report = execute("fig3", CONFIG, jobs=4, quick=True,
                             journal=SweepJournal(str(partial)))
    assert canonical_json(result.data) == expected
    assert report.from_journal == 5
    assert report.computed == report.units_planned - 5


class _Cancelled(BaseException):
    """Stands in for the server's JobCancelled."""


class _CancelAtUnit:
    """A progress stream whose k-th ``unit`` record raises, the way a
    server cancel stops a sweep at a unit boundary."""

    def __init__(self, k):
        self.k = k
        self.units = 0

    def emit(self, record):
        if record["event"] == "unit":
            self.units += 1
            if self.units == self.k:
                raise _Cancelled()


@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupted_sweep_keeps_finished_units(jobs, tmp_path):
    expected, _ = serial_data("fig3")
    cache = ResultCache(str(tmp_path / "cache"))
    with pytest.raises(_Cancelled):
        execute("fig3", CONFIG, jobs=jobs, quick=True, cache=cache,
                progress=_CancelAtUnit(5))
    # every unit reported before the cancel is already on disk
    assert cache.entries() == 5
    result, report = execute("fig3", CONFIG, jobs=jobs, quick=True,
                             cache=cache)
    assert report.cache_hits == 5
    assert report.computed == report.units_planned - 5
    assert canonical_json(result.data) == expected


def test_observed_run_skips_cache_reads_but_writes(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    execute("table1", CONFIG, jobs=1, cache=cache)
    assert cache.entries() == 2
    _result, report = execute("table1", CONFIG, jobs=4, cache=cache,
                              observed=True)
    # observed runs simulate everything in-process, read nothing
    assert report.cache_hits == 0
    assert report.computed == report.units_planned
    assert report.jobs == 4  # requested, but forced serial internally


def test_seed_changes_cache_address_not_result(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    a, ra = execute("table2", CONFIG, jobs=1, cache=cache, seed=1)
    b, rb = execute("table2", CONFIG, jobs=1, cache=cache, seed=2)
    # deterministic simulation: same values, but separately addressed
    assert canonical_json(a.data) == canonical_json(b.data)
    assert rb.cache_hits == 0
    assert cache.entries() == 2 * ra.units_planned


def test_memscope_on_off_is_bit_identical():
    """The profiler's zero-cost contract at experiment granularity."""
    from repro.obs import MemScope, use_memscope

    expected, _ = serial_data("fig6")
    ms = MemScope(CONFIG)
    with use_memscope(ms):
        result, _report = execute("fig6", CONFIG, jobs=1, quick=True,
                                  observed=True)
    assert canonical_json(result.data) == expected
    # the profiler did observe the run (model-attributed phases)
    assert ms.to_dict()["source"] != "empty"


def test_memscope_does_not_move_the_simulated_clock():
    from repro.machine import Machine, MemClass
    from repro.obs import MemScope, use_memscope

    def drive(machine):
        region = machine.alloc(8192, MemClass.NEAR_SHARED,
                               home_hypernode=1)

        def prog():
            for cpu in (0, 1, 8):
                for off in range(0, 8192, 32):
                    yield machine.load(cpu, region.addr(off))
                    yield machine.store(cpu, region.addr(off), off)

        machine.sim.run(until=machine.sim.process(prog()))
        return machine.sim.now

    bare = drive(Machine(CONFIG))
    ms = MemScope(CONFIG)
    with use_memscope(ms):
        profiled = drive(Machine(CONFIG))
    assert profiled == bare
    assert ms.machine_accesses > 0
    assert ms.invalidations > 0
