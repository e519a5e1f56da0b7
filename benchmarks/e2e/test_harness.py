"""Self-tests of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hostclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT, check=True):
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=check)


# -- seeded inputs ----------------------------------------------------------

@pytest.mark.parametrize("experiments", [workloads.DES, workloads.MODEL,
                                         workloads.ALL])
def test_pass_orders_are_deterministic_per_seed(experiments):
    def passes(seed):
        orders = workloads.pass_orders(seed, experiments)
        return [next(orders) for _ in range(4)]

    assert passes(1) == passes(1)
    assert passes(1) != passes(2)
    assert all(sorted(p) == sorted(experiments) for p in passes(3))


def test_service_specs_are_deterministic_per_seed():
    assert workloads.service_specs(1, 2) == workloads.service_specs(1, 2)
    assert workloads.service_specs(1, 2) != workloads.service_specs(2, 2)
    assert (workloads.service_specs(1, 2, mix=0)
            != workloads.service_specs(1, 2, mix=1))


def test_each_client_resubmits_only_its_own_cold_specs():
    clients = workloads.service_specs(7, 2)
    cold_seeds = [seed for c in clients for _, seed in c.cold]
    assert len(set(cold_seeds)) == len(cold_seeds)  # each a new cache key
    # same simulated work per client in every cold stretch
    mixes = {tuple(tuple(sorted(name for name, _ in specs))
                   for phase, specs in c.stretches() if phase == "cold")
             for c in clients}
    assert len(mixes) == 1
    for client in clients:
        assert len(client.cold) == 30
        assert len(client.warm) == 100
        assert set(client.warm) <= set(client.cold)
        assert {name for name, _ in client.cold} == set(
            workloads.SERVICE_MIX)


# -- span arithmetic ----------------------------------------------------------

def test_self_time_is_duration_minus_child_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0])
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))
    inner = recorder.wrap("inner", lambda: "done")
    outer = recorder.wrap("outer", lambda: inner())
    root = recorder.begin("other")
    assert outer() == "done"
    recorder.end(root)
    assert recorder.layer_seconds() == {"other": 6.0, "outer": 2.0,
                                        "inner": 2.0}
    assert recorder.counts == {"other": 1, "outer": 1, "inner": 1}
    assert [s.parent for s in recorder.spans] == [None, 0, 1]


def test_region_time_moves_from_its_span_to_its_row():
    scope = SimpleNamespace(_self_ns={}, _stack=[], _mark=0)
    ticks = iter([0.0, 1.0, 4.0, 5.0])
    recorder = spans.SpanRecorder(scope, clock=lambda: next(ticks))
    root = recorder.begin("other")
    span = recorder.begin("runtime.run")
    scope._self_ns = {"memory": 1_000_000_000, "app": 500_000_000}
    recorder.end(span)
    recorder.end(root)
    assert recorder.layer_seconds() == {
        "other": 2.0, "runtime.run": 1.5, "machine.memory": 1.0,
        "runtime.app": 0.5}


def test_patched_wraps_lookups_and_restores_them():
    from repro.core.config import spp1000
    from repro.experiments import fig7_fem
    from repro.machine import Machine

    problems = dict(fig7_fem._PROBLEMS)
    init = Machine.__dict__["__init__"]
    recorder = spans.SpanRecorder()
    with spans.patched(recorder):
        assert fig7_fem._PROBLEMS["large"] is not problems["large"]
        assert fig7_fem.large_problem is fig7_fem._PROBLEMS["large"]
        Machine(spp1000())
    assert recorder.counts["machine.build"] == 1
    assert fig7_fem._PROBLEMS == problems
    assert Machine.__dict__["__init__"] is init


# -- host-speed scaling -----------------------------------------------------------

def test_host_clock_scales_by_the_reference_at_both_ends(monkeypatch):
    nominal = hostclock.REF_NOMINAL_S
    samples = iter([2 * nominal, 2 * nominal, nominal])
    monkeypatch.setattr(hostclock, "reference_s", lambda: next(samples))
    clock = hostclock.HostClock()
    # the reference took twice its nominal time: 2 s of wall reads 1 s
    assert clock.scale(2.0) == pytest.approx(1.0)
    assert clock.scale(3.0) == pytest.approx(2.0)
    assert clock.samples == [2 * nominal, 2 * nominal, nominal]


# -- correctness checks -------------------------------------------------------

def test_golden_covers_every_unit_experiment():
    assert set(workloads.load_golden()) == set(workloads.ALL)


def test_golden_check_flags_a_perturbed_result():
    data = {"thread_counts": [1, 2], "us": [1.5, 2.5]}
    checks = workloads.Checks({"fig2": workloads.digest(data)})
    checks.result("fig2", data)
    assert checks.failures == []
    checks.result("fig2", {"thread_counts": [1, 2], "us": [1.5, 2.5000001]})
    checks.result("fig2", data, computed=3, warm=True)
    assert checks.attempted == 3
    assert len(checks.failures) == 2


def test_service_run_reports_when_every_submit_is_refused(monkeypatch,
                                                          tmp_path):
    from repro import sdk

    class IdleServer:
        startup_s = 0.01
        port = 0

        def __init__(self, cache_dir):
            pass

        def stop(self):
            pass

    class RefusingClient:
        def __init__(self, host, port):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, *args, **kwargs):
            raise sdk.ServerError("queue_full", "the job queue is full")

    monkeypatch.setattr(workloads, "Server", IdleServer)
    monkeypatch.setattr(sdk, "Client", RefusingClient)
    outcome = workloads.run_service(1, 0, False, tmp_path)
    n_jobs = outcome.detail["clients"] * (workloads.COLD_PER_CLIENT
                                          + workloads.WARM_PER_CLIENT)
    assert outcome.checks.attempted == n_jobs
    assert len(outcome.checks.failures) == n_jobs
    assert "queue_full" in outcome.checks.failures[0]
    assert outcome.metrics["request_p50_ms"] == (None, "ms")
    assert outcome.detail["latency_ms"] == {
        "cold": {"n": 0, "p50": None, "p80": None},
        "warm": {"n": 0, "p50": None, "p95": None}}


# -- the command line -----------------------------------------------------------

def test_benchmark_json_matches_the_metric_specs():
    assert [w["name"] for w in BENCH["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in BENCH["end_to_end"]} == workloads.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCH["per_layer"]} == workloads.LAYER_METRICS


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_those_in_benchmark_json(trace, kind, tmp_path):
    out = tmp_path / "run.json"
    proc = _run("--workload", "des", "--seed", "1", "--seconds", "0",
                "--trace", str(trace), "--out", str(out))
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[kind]}
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["provenance"]["seed"] == 1
    if trace:
        rows = sum(doc["detail"]["layers_s"].values())
        assert rows == pytest.approx(doc["detail"]["trace_wall_s"], rel=0.01)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "des", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
