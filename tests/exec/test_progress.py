"""Host-timing accounting and live telemetry in the execution fabric."""

import json

import pytest

from repro.core import spp1000
from repro.exec import PoolStats, ProgressStream, WorkerPool, execute
from repro.exec.units import plan_units


@pytest.fixture
def config():
    return spp1000()


@pytest.fixture
def units(config):
    return plan_units("fig3", config, quick=True)


# ---------------------------------------------------------------------------
# per-unit host timings from the pool
# ---------------------------------------------------------------------------

def test_serial_pool_records_local_unit_timings(config, units):
    stats = PoolStats(1)
    WorkerPool(1).map_units(units, config, stats=stats)
    assert len(stats.unit_timings) == len(units)
    for timing in stats.unit_timings:
        assert timing["where"] == "local"
        assert timing["run_s"] >= 0
        assert timing["queue_s"] == 0.0
        assert timing["return_s"] == 0.0
    assert stats.spawn_s == 0.0
    assert {t["key"] for t in stats.unit_timings} \
        == {u.key for u in units}


def test_parallel_pool_records_worker_unit_timings(config, units):
    stats = PoolStats(2)
    WorkerPool(2).map_units(units, config, stats=stats)
    workers = [t for t in stats.unit_timings if t["where"] == "worker"]
    assert workers, "expected at least one worker-computed unit"
    for timing in workers:
        assert timing["run_s"] >= 0
        assert timing["queue_s"] >= 0
        assert timing["return_s"] >= 0
        assert timing["overhead_s"] >= 0
    if stats.retried_in_process == 0:
        assert stats.spawn_s > 0


def test_pool_on_progress_fires_per_completion(config, units):
    seen = []
    WorkerPool(1).map_units(
        units, config,
        on_progress=lambda unit, timing: seen.append((unit.key, timing)))
    assert [k for k, _ in seen] == [u.key for u in units]
    assert all(t["run_s"] >= 0 for _, t in seen)


def test_stats_to_dict_carries_spawn(config, units):
    stats = PoolStats(1)
    WorkerPool(1).map_units(units[:2], config, stats=stats)
    doc = stats.to_dict()
    assert doc["jobs"] == 1 and doc["executed"] == 2
    assert doc["spawn_s"] == 0.0


# ---------------------------------------------------------------------------
# execute(): the fabric's own phase split
# ---------------------------------------------------------------------------

def test_execute_report_carries_host_timing(config):
    result, report = execute("fig3", config, jobs=1, quick=True)
    t = report.host_timing
    for phase in ("plan_s", "cache_lookup_s", "cache_store_s", "pool_s",
                  "spawn_s", "assemble_s"):
        assert phase in t, phase
        assert t[phase] >= 0
    assert len(report.unit_timings) == report.computed
    doc = report.to_dict()
    assert doc["host_timing"] == t
    assert doc["unit_timings"] == report.unit_timings
    assert "pool" in report.render()


# ---------------------------------------------------------------------------
# ProgressStream
# ---------------------------------------------------------------------------

def test_progress_stream_writes_flushed_jsonl(tmp_path):
    path = tmp_path / "p.jsonl"
    with ProgressStream(str(path)) as ps:
        ps.emit({"event": "start", "units": 3})
        ps.emit({"event": "done"})
    records = [json.loads(ln) for ln in
               path.read_text().strip().splitlines()]
    assert [r["event"] for r in records] == ["start", "done"]
    assert all(r["t_s"] >= 0 for r in records)
    assert records[0]["t_s"] <= records[1]["t_s"]


def test_progress_stream_stderr_not_owned(capsys):
    ps = ProgressStream("-")
    ps.emit({"event": "ping"})
    ps.close()
    ps.emit({"event": "after-close"})       # silently dropped, no raise
    err = capsys.readouterr().err
    assert '"event": "ping"' in err
    assert "after-close" not in err


def test_execute_emits_start_units_done(config, tmp_path):
    path = tmp_path / "p.jsonl"
    with ProgressStream(str(path)) as ps:
        execute("fig3", config, jobs=2, quick=True, progress=ps)
    records = [json.loads(ln) for ln in
               path.read_text().strip().splitlines()]
    kinds = [r["event"] for r in records]
    assert kinds[0] == "start" and kinds[-1] == "done"
    units = [r for r in records if r["event"] == "unit"]
    assert len(units) == records[0]["to_compute"]
    dones = [r["done"] for r in units]
    assert dones == sorted(dones) and dones[-1] == len(units)
    assert all(r["eta_s"] is None or r["eta_s"] >= 0 for r in units)


# ---------------------------------------------------------------------------
# the host block of benchmark run records
# ---------------------------------------------------------------------------

def test_bench_host_block_is_enriched(config):
    from repro.exec.bench import host_info

    host = host_info()
    assert host["cpu_count"] >= 1
    assert host["python"] and host["platform"]
    assert "cpu_model" in host and "physical_cpus" in host
    assert "loadavg_1m" in host
    assert host["calibration_miters_s"] > 0


# ---------------------------------------------------------------------------
# telemetry under worker crash / retry (the resilience event stream)
# ---------------------------------------------------------------------------

def test_progress_jsonl_stays_well_formed_under_worker_crash(
        config, tmp_path):
    """Chaos-killed workers must not tear the JSONL stream: every line
    parses, a retry event is emitted, and ETA/occupancy recover (the
    done counter still reaches the total)."""
    from repro.exec import ResiliencePolicy, chaos_from_dict

    chaos = chaos_from_dict({"faults": [
        {"kind": "kill_worker", "unit": 0},
        {"kind": "drop_return", "unit": 1},
    ]})
    path = tmp_path / "crash.jsonl"
    with ProgressStream(str(path)) as ps:
        execute("fig3", config, jobs=2, quick=True, progress=ps,
                chaos=chaos, policy=ResiliencePolicy(backoff_s=0.0))
    records = [json.loads(line)                      # every line parses
               for line in path.read_text().strip().splitlines()]
    kinds = [r["event"] for r in records]
    assert kinds[0] == "start" and kinds[-1] == "done"
    retries = [r for r in records if r["event"] == "retry"]
    assert retries, "expected retry events in the stream"
    for retry in retries:
        assert retry["key"] and retry["attempt"] >= 2
        assert "error" in retry and "t_s" in retry
    units = [r for r in records if r["event"] == "unit"]
    dones = [r["done"] for r in units]
    assert dones == sorted(dones)
    assert dones[-1] == records[0]["to_compute"]     # sweep completed
    assert all(r["eta_s"] is None or r["eta_s"] >= 0 for r in units)
    assert all(r["workers_busy"] >= 0 for r in units)
