"""Figure 4 reproduction: message round-trip shapes."""

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def fig4():
    return run_experiment("fig4")


def curves(fig4):
    return {s.label: dict(zip(s.x, s.y)) for s in fig4.series}


def test_local_small_message_rt_order_30us(fig4):
    local = curves(fig4)["local (one hypernode)"]
    assert 10.0 <= local[64] <= 60.0


def test_global_local_ratio_near_2_3(fig4):
    ratio = fig4.data["small_message_global_local_ratio"]
    assert 1.7 <= ratio <= 3.2, f"ratio {ratio:.2f}"


def test_approximately_constant_below_8kb(fig4):
    for label, curve in curves(fig4).items():
        assert curve[8192] / curve[64] < 2.6, label


def test_substantial_increase_beyond_8kb(fig4):
    for label, curve in curves(fig4).items():
        assert curve[16384] / curve[8192] > 1.8, label


def test_superlinear_page_growth(fig4):
    for label, curve in curves(fig4).items():
        # 4x the pages beyond the knee costs more than 2.5x the time
        assert curve[65536] / curve[16384] > 2.5, label


def test_global_always_slower_than_local(fig4):
    c = curves(fig4)
    local, globl = c["local (one hypernode)"], c["global (two hypernodes)"]
    for size in local:
        assert globl[size] > local[size]
