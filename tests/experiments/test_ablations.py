"""Tests for the §6 ablation experiment."""

import json

import pytest

from repro.cli import main
from repro.core import spp1000
from repro.exec import plan_units
from repro.experiments import run_experiment
from repro.experiments.ablations import (
    cache_residency_ratio,
    measured_miss_latencies_us,
    os_interference_overhead,
)


@pytest.fixture(scope="module")
def ablations():
    return run_experiment("ablations")


def test_latency_ordering(ablations):
    lat = ablations.data["latencies_us"]
    assert lat["hit"] < lat["local_miss"] < lat["remote_miss"]
    assert lat["gcb_hit"] < lat["remote_miss"]


def test_remote_local_ratio_about_8(ablations):
    assert 5.0 <= ablations.data["remote_local_miss_ratio"] <= 12.0


def test_cache_residency_factor_about_3(ablations):
    assert 2.0 <= ablations.data["cache_residency_ratio"] <= 6.0


def test_os_interference_positive_but_moderate(ablations):
    overhead = ablations.data["os_interference_overhead"]
    assert 0.0 < overhead < 0.25


def test_ring_sensitivity_monotone(ablations):
    rows = ablations.data["ring_sensitivity"]
    effs = [eff for _f, eff in rows]
    assert effs == sorted(effs, reverse=True)


def test_direct_helpers_match_experiment(ablations):
    assert measured_miss_latencies_us()["hit"] == \
        ablations.data["latencies_us"]["hit"]
    assert cache_residency_ratio() == \
        ablations.data["cache_residency_ratio"]
    assert os_interference_overhead() == \
        ablations.data["os_interference_overhead"]


def test_one_hypernode_measures_the_local_rows_only(tmp_path):
    """One hypernode has no remote CPU and too few for the OS and ring
    rows: it plans the latencies and the residency, and its data leaves
    the other rows out."""
    keys = [u.key for u in plan_units("ablations", spp1000(n_hypernodes=1))]
    assert keys == ["latencies", "residency"]
    metrics = tmp_path / "m.json"
    assert main(["ablations", "--hypernodes", "1", "--no-cache",
                 "--metrics", str(metrics)]) == 0
    data = json.loads(metrics.read_text())["headline"]
    assert "remote_local_miss_ratio" not in data
    assert set(data) == {"latencies_us", "cache_residency_ratio"}
    assert set(data["latencies_us"]) == {"hit", "local_miss"}
