"""Fig 8 reproduction shape checks."""

import pytest

from repro.core import spp1000
from repro.exec import execute, plan_units
from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def fig8():
    return run_experiment("fig8")


def test_all_sizes_and_configs_present(fig8):
    assert set(fig8.data) == {"32K", "256K", "2M"}
    labels = {s.label for s in fig8.series}
    assert "32K 1-hypernode" in labels
    assert "2M 2-hypernodes" in labels


def test_speedups_monotone(fig8):
    for d in fig8.data.values():
        assert d["one_node_speedup"] == sorted(d["one_node_speedup"])
        assert d["two_node_speedup"] == sorted(d["two_node_speedup"])


def test_degradation_small_across_hypernodes(fig8):
    """Paper: between 2 and 7 percent."""
    for label, d in fig8.data.items():
        for p, deg in d["degradation"].items():
            assert 0.0 <= deg <= 0.09, f"{label} p={p}: {deg:.1%}"


def test_single_cpu_and_16_cpu_rates(fig8):
    d = fig8.data["32K"]
    assert 20.0 <= d["single_cpu_mflops"] <= 40.0      # paper: 27.5
    assert 300.0 <= d["mflops_16"] <= 500.0            # paper: 384


def test_c90_reference_and_favourable_comparison(fig8):
    for d in fig8.data.values():
        assert 95.0 <= d["c90_mflops"] <= 175.0        # paper: 120
        assert d["mflops_16"] > d["c90_mflops"]


def test_problem_size_affects_16_processor_speedup(fig8):
    s = {label: d["two_node_speedup"][-1] for label, d in fig8.data.items()}
    assert max(s.values()) - min(s.values()) > 0.5


def test_one_hypernode_runs_only_the_one_node_series():
    """fig8 compares one hypernode with two; a machine with one plans and
    reports the 1-hypernode series and the C90 reference, nothing more."""
    config = spp1000(n_hypernodes=1)
    keys = [u.key for u in plan_units("fig8", config)]
    assert keys == [f"{name}:{style}" for name in ("32k", "256k", "2m")
                    for style in ("high:1", "high:2", "high:4", "high:8",
                                  "c90")]
    result, report = execute("fig8", config, jobs=1, quick=True)
    assert report.computed == len(keys)
    assert [s.label for s in result.series] == [
        "32K 1-hypernode", "256K 1-hypernode", "2M 1-hypernode"]
    for d in result.data.values():
        assert set(d) == {"one_node_speedup", "single_cpu_mflops",
                          "c90_mflops"}


def test_direct_run_computes_each_key_once(monkeypatch):
    """A run() without the fabric memoises its points as the fabric
    does: fig8 looks up 51 points over its 27 planned keys."""
    from repro.experiments import fig8_nbody

    calls = []

    def fake_unit(params, config):
        calls.append(params)
        return 100.0 if params.get("style") == "c90" else [1e9, 1e9]

    monkeypatch.setattr(fig8_nbody, "_unit", fake_unit)
    run_experiment("fig8")
    assert len(calls) == len(plan_units("fig8", spp1000())) == 27
