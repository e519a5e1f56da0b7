"""Tests for the 128-CPU extrapolation experiment."""

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def scale():
    return run_experiment("scale128")


def test_covers_all_four_applications(scale):
    labels = {s.label for s in scale.series}
    assert labels == {"PIC 64x64x32", "FEM large", "N-body 2M",
                      "PPM 480x960"}


def test_cpu_axis_up_to_128(scale):
    assert scale.data["cpus"] == [8, 16, 32, 64, 128]


def test_speedups_monotone_in_machine_size(scale):
    for series in scale.series:
        assert list(series.y) == sorted(series.y), series.label


def test_ppm_scales_best_pic_worst(scale):
    """PPM's tile locality scales nearly linearly; PIC's write-shared
    mesh saturates first."""
    at_128 = {s.label: s.y[-1] for s in scale.series}
    assert at_128["PPM 480x960"] > 90.0
    assert at_128["PIC 64x64x32"] < at_128["N-body 2M"] \
        < at_128["PPM 480x960"]
    assert at_128["PIC 64x64x32"] > 10.0


def test_single_hypernode_efficiency_high_everywhere(scale):
    """Paper §6: one hypernode scales excellently for every code."""
    for name in ("PIC 64x64x32", "FEM large", "N-body 2M", "PPM 480x960"):
        eff8 = scale.data[name]["efficiency"][0]
        assert eff8 > 0.8, f"{name}: 8-CPU efficiency {eff8:.2f}"
