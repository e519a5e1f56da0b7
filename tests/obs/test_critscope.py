"""The critical-path & wait-state analyzer: attribution, path, what-ifs.

The three acceptance properties of docs/critpath.md:

1. zero-cost: with no analyzer installed, results and final simulated
   clocks are bit-identical to an instrumented run;
2. exactness: per-thread category cycles sum exactly to the thread's
   total simulated cycles (idle is the constructed remainder);
3. honesty: what-if projections agree with actual re-runs under the
   correspondingly scaled config parameters (within 10%).
"""

import pytest

from repro.core import spp1000
from repro.experiments.fig2_forkjoin import forkjoin_time_us
from repro.experiments.fig3_barrier import barrier_metrics_us
from repro.machine import Machine
from repro.obs import HostScope, use_hostscope
from repro.obs.critscope import (CATEGORIES, CritScope, scaled_config,
                                 use_critscope)
from repro.runtime import Barrier, Placement, Runtime


def barrier_workload(config, n=8, rounds=2):
    """A barrier loop returning (result, final sim clock)."""
    machine = Machine(config)
    runtime = Runtime(machine)
    barrier = Barrier(runtime, n)

    def body(env, tid):
        for _ in range(rounds):
            yield env.compute(100 * (tid + 1))
            yield from barrier.wait(env)
        return tid * 2

    def main(env):
        results = yield from env.fork_join(n, body, Placement.UNIFORM)
        return results

    result = runtime.run(main)
    machine.sim.run()  # drain
    return result, machine.sim.now


# ---------------------------------------------------------------------------
# zero-cost contract
# ---------------------------------------------------------------------------

def test_results_and_clocks_bit_identical_with_analyzer():
    cfg = spp1000(2)
    bare_result, bare_clock = barrier_workload(cfg)
    cs = CritScope(cfg)
    with use_critscope(cs):
        observed_result, observed_clock = barrier_workload(cfg)
    assert observed_result == bare_result
    assert observed_clock == bare_clock          # bit-identical, not approx
    assert cs.run_of_interest() is not None      # ... and it did observe


def test_analyzer_adds_no_event():
    """Segments are recorded inside the operations' own slices: the
    heap sees the same pushes and dispatches with the analyzer on."""
    cfg = spp1000(2)
    counts = []
    for cs in (None, CritScope(cfg)):
        hs = HostScope()
        with use_hostscope(hs), use_critscope(cs):
            barrier_workload(cfg)
        counts.append((hs.events, hs.pushes))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0


def test_no_analyzer_means_no_recording():
    cfg = spp1000(1)
    machine = Machine(cfg)
    assert machine.critscope is None
    runtime = Runtime(machine)
    assert Runtime(machine).machine.critscope is None
    del runtime


# ---------------------------------------------------------------------------
# exact per-thread attribution
# ---------------------------------------------------------------------------

def test_per_thread_category_cycles_sum_exactly_to_total():
    cfg = spp1000(2)
    cs = CritScope(cfg)
    with use_critscope(cs):
        barrier_workload(cfg, n=8, rounds=3)
    rows = cs.thread_totals()
    assert len(rows) == 9                        # parent + 8 team threads
    for row in rows:
        total = sum(row["categories_ns"].values())
        assert total == pytest.approx(row["total_ns"], abs=1e-6), row
        assert row["categories_ns"]["idle"] >= -1e-9


def test_wait_states_land_in_their_categories():
    cfg = spp1000(2)
    cs = CritScope(cfg)
    with use_critscope(cs):
        barrier_workload(cfg, n=8, rounds=2)
    agg = cs.aggregate_totals()
    assert agg["forkjoin"] > 0
    assert agg["barrier_wait"] > 0
    assert agg["barrier_release"] > 0
    assert agg["compute"] > 0
    assert agg["msg_send"] == 0 and agg["msg_recv"] == 0


def test_pvm_traffic_lands_in_message_categories():
    from repro.pvm import PvmSystem

    cfg = spp1000(2)
    cs = CritScope(cfg)
    with use_critscope(cs):
        pvm = PvmSystem(Runtime(Machine(cfg)))

        def body(task, tid):
            if tid == 0:
                yield from task.send(1, "ping", 64)
                return None
            return (yield from task.recv(0))

        results = pvm.run_tasks(2, body)
    assert results[1] == "ping"
    agg = cs.aggregate_totals()
    assert agg["msg_send"] > 0
    assert agg["msg_recv"] > 0


# ---------------------------------------------------------------------------
# the critical path
# ---------------------------------------------------------------------------

def test_critical_path_partitions_the_makespan():
    cfg = spp1000(2)
    cs = CritScope(cfg)
    with use_critscope(cs):
        barrier_workload(cfg, n=8, rounds=2)
    cp = cs.critical_path()
    run = cs.run_of_interest()
    assert cp["total_ns"] == pytest.approx(run.makespan)
    attributed = sum(cp["categories_ns"].values())
    assert attributed == pytest.approx(cp["total_ns"], rel=1e-9)
    # a barrier loop's path must cross threads via release edges
    tids_on_path = {s["tid"] for s in cp["steps"]}
    assert len(tids_on_path) > 1


def test_critical_path_of_pure_compute_is_all_compute():
    cfg = spp1000(1)
    cs = CritScope(cfg)
    with use_critscope(cs):
        machine = Machine(cfg)
        runtime = Runtime(machine)

        def main(env):
            yield env.compute(10_000)
            return "done"

        assert runtime.run(main) == "done"
    cp = cs.critical_path()
    assert cp["categories_ns"]["compute"] == pytest.approx(cp["total_ns"])


# ---------------------------------------------------------------------------
# golden: the paper's two linear laws (Fig 2, §4.2)
# ---------------------------------------------------------------------------

def test_fig2_forkjoin_per_thread_slope_golden():
    # Paper §4.1: ~10 us per additional thread *pair* within one
    # hypernode.  The parent's attributed forkjoin time must reproduce
    # that slope (~5 us/thread: spawn 3.8 us + join/desc writes).
    cfg = spp1000(2)
    parent_fj = {}
    for n in (2, 8):
        cs = CritScope(cfg)
        with use_critscope(cs):
            forkjoin_time_us(n, Placement.HIGH_LOCALITY, cfg, repeats=1)
        rows = cs.thread_totals()
        parent_fj[n] = next(
            r for r in rows if r["tid"] == 0)["categories_ns"]["forkjoin"]
    slope_us = (parent_fj[8] - parent_fj[2]) / 6 / 1e3
    per_pair = 2 * slope_us
    assert 8.0 <= per_pair <= 12.0, per_pair    # the paper's ~10 us/pair
    # and the spawn cost itself is the dominant part of the slope
    spawn_us = cfg.cycles(cfg.spawn_local_cycles) / 1e3
    assert slope_us >= spawn_us


def test_barrier_release_linear_term_golden():
    # §4.2: the last-in/last-out gap grows linearly because the releaser
    # walks every waiter.  The critical path's barrier_release time must
    # carry that linear term: slope at least the per-thread release cost.
    cfg = spp1000(2)
    rel = {}
    for n in (4, 16):
        cs = CritScope(cfg)
        with use_critscope(cs):
            barrier_metrics_us(n, Placement.UNIFORM, cfg, rounds=1)
        rel[n] = cs.critical_path()["categories_ns"]["barrier_release"]
    slope_us = (rel[16] - rel[4]) / 12 / 1e3
    per_thread_us = cfg.cycles(cfg.barrier_release_per_thread_cycles) / 1e3
    assert slope_us >= per_thread_us            # 1.4 us/thread floor
    assert slope_us <= 2.0                      # fig3's ~2 us/thread ceiling


# ---------------------------------------------------------------------------
# what-if projections and their validation protocol
# ---------------------------------------------------------------------------

def _observed_barrier_makespan(config, n=16, rounds=3):
    cs = CritScope(config)
    with use_critscope(cs):
        barrier_metrics_us(n, Placement.UNIFORM, config, rounds=rounds)
    return cs, cs.run_of_interest().makespan


def test_what_if_barrier_release_within_10pct_of_actual_rerun():
    cfg = spp1000(2)
    cs, _base = _observed_barrier_makespan(cfg)
    projection = cs.what_if("barrier_release", 2.0)
    _, actual = _observed_barrier_makespan(
        scaled_config(cfg, "barrier_release", 2.0))
    error = abs(projection["projected_total_ns"] - actual) / actual
    assert error <= 0.10, (projection["projected_total_ns"], actual)


def test_what_if_idle_category_projects_nothing():
    cfg = spp1000(2)
    cs, base = _observed_barrier_makespan(cfg, n=4, rounds=1)
    projection = cs.what_if("idle", 4.0)
    # idle is never on the walked path of a live run end-thread
    assert projection["projected_total_ns"] <= base + 1e-6
    with pytest.raises(KeyError):
        cs.what_if("quantum_tunneling", 2.0)
    with pytest.raises(ValueError):
        cs.what_if("compute", 0.0)


def test_scaled_config_maps_categories_to_cost_knobs():
    cfg = spp1000(2)
    half = scaled_config(cfg, "barrier_release", 2.0)
    assert half.barrier_release_per_thread_cycles == pytest.approx(
        cfg.barrier_release_per_thread_cycles / 2)
    assert half.remote_release_extra_cycles == pytest.approx(
        cfg.remote_release_extra_cycles / 2)
    assert half.spawn_local_cycles == cfg.spawn_local_cycles  # untouched
    with pytest.raises(KeyError) as ei:
        scaled_config(cfg, "idle", 2.0)
    assert "scalable categories" in str(ei.value)
    with pytest.raises(ValueError):
        scaled_config(cfg, "forkjoin", -1.0)


# ---------------------------------------------------------------------------
# reporting surfaces
# ---------------------------------------------------------------------------

def test_to_dict_schema_and_render():
    cfg = spp1000(2)
    cs = CritScope(cfg)
    with use_critscope(cs):
        barrier_workload(cfg, n=8, rounds=2)
    doc = cs.to_dict(top=5, what_if=[("barrier_release", 2.0)])
    assert doc["schema_version"] == 2
    assert doc["clock_ns"] == cfg.clock_ns
    for row in doc["threads"]:
        assert set(row["categories_cycles"]) == set(CATEGORIES)
    assert doc["teams"] and doc["teams"][0]["n_threads"] == 8
    assert doc["teams"][0]["threads_per_hypernode"]
    assert len(doc["critical_path"]["longest_steps"]) <= 5
    assert [p["category"] for p in doc["what_if"]] == ["barrier_release"]
    text = cs.render(title="critscope: test", top=5)
    assert "per-thread cycle attribution" in text
    assert "wait states" in text and "legend:" in text
    assert "critical path" in text
    assert "what-if projections" in text


def test_render_empty_scope_is_graceful():
    cs = CritScope(spp1000(1))
    assert "no machine-level thread activity" in cs.render()
    assert cs.thread_totals() == []
    assert cs.critical_path()["total_ns"] == 0.0


def test_manifest_folds_critscope_block():
    from repro.obs.metrics import build_manifest

    cfg = spp1000(2)
    cs = CritScope(cfg)
    with use_critscope(cs):
        barrier_workload(cfg, n=4, rounds=1)
    manifest = build_manifest(config=cfg, critscope=cs)
    block = manifest["critscope"]
    assert block["schema_version"] == 2
    assert block["threads"]
    # pre-rendered dicts pass through unchanged too
    manifest2 = build_manifest(critscope=cs.to_dict(top=3))
    assert manifest2["critscope"]["critical_path"]

