"""Tests for metrics manifests (span summaries, experiment manifests)."""

import json

import pytest

from repro.core import spp1000
from repro.experiments import run_experiment
from repro.obs import build_manifest, span_summary, write_metrics
from repro.sim import Tracer, use_tracer

CFG = spp1000(2)


def test_span_summary_aggregates_durations_and_imbalance():
    t = Tracer(enabled=True)
    # two tracks: 100 ns and 300 ns of "work" -> imbalance 1.5
    t.complete(0.0, 100.0, "work", pid=0, tid=0)
    t.complete(0.0, 300.0, "work", pid=0, tid=1)
    summary = span_summary(t)
    s = summary["work"]
    assert s["count"] == 2
    assert s["total_ns"] == pytest.approx(400.0)
    assert s["mean_ns"] == pytest.approx(200.0)
    assert s["max_ns"] == pytest.approx(300.0)
    assert s["min_ns"] == pytest.approx(100.0)
    assert s["tracks"] == 2
    assert s["imbalance"] == pytest.approx(1.5)


def test_span_summary_sums_counters_and_breakdown():
    t = Tracer(enabled=True)
    t.begin(0.0, "phase", pid=0, tid=0)
    t.emit(1.0, "load.miss.remote")
    t.end(10.0, "phase", pid=0, tid=0)
    t.complete(0.0, 50.0, "push", pid=0, tid=0,
               args={"pipe_ns": 30.0, "stall_ns": 20.0})
    t.complete(50.0, 50.0, "push", pid=0, tid=0,
               args={"pipe_ns": 35.0, "stall_ns": 15.0})
    summary = span_summary(t)
    assert summary["phase"]["counters"] == {"load.miss.remote": 1}
    assert summary["push"]["breakdown_ns"] == {
        "pipe_ns": pytest.approx(65.0), "stall_ns": pytest.approx(35.0)}


def test_experiment_manifest_end_to_end():
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        result = run_experiment("fig3", config=CFG,
                                thread_counts=[2, 4], rounds=2)
    manifest = result.manifest(config=CFG, tracer=tracer)
    # must be pure-JSON serializable
    round_trip = json.loads(json.dumps(manifest))
    assert round_trip["experiment"]["id"] == "fig3"
    assert round_trip["machine"]["n_cpus"] == 16
    assert round_trip["headline"]["thread_counts"] == [2, 4]
    # per-phase counter deltas: the fork_join span saw protocol events
    fork = round_trip["phases"]["fork_join"]
    assert fork["count"] > 0
    assert any(k.startswith("atomic") or k.startswith("load")
               for k in fork["counters"])
    inst = round_trip["instrumentation"]
    assert inst["tracer_simulated_cost_ns"] == 0.0
    assert inst["timer_reads"] == tracer.count("timer.read")
    assert inst["timer_overhead_total_ns"] == pytest.approx(
        inst["timer_reads"] * CFG.cycles(CFG.timer_overhead_cycles))


def test_write_metrics_file(tmp_path):
    path = tmp_path / "metrics.json"
    write_metrics(build_manifest(tracer=Tracer(enabled=True), config=CFG),
                  str(path))
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["generator"] == "repro.obs"


def test_manifest_sanitizes_non_json_values():
    import numpy as np

    manifest = build_manifest(extra={
        "np_scalar": np.float64(1.5),
        "np_array": np.arange(3),
        "tuple": (1, 2),
    })
    doc = json.loads(json.dumps(manifest))
    assert doc["np_scalar"] == 1.5
    assert doc["np_array"] == [0, 1, 2]
    assert doc["tuple"] == [1, 2]


def test_manifest_rejects_unknown_profiler_blocks():
    with pytest.raises(TypeError, match="bogus"):
        build_manifest(bogus={})
