"""Figure 3 reproduction: barrier cost shapes."""

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def fig3():
    return run_experiment("fig3")


def series_map(fig3):
    return {s.label: dict(zip(s.x, s.y)) for s in fig3.series}


def test_has_four_series(fig3):
    assert len(fig3.series) == 4


def test_lifo_single_hypernode_is_a_few_us(fig3):
    lifo = series_map(fig3)["LIFO high locality"]
    for n in (2, 4, 8):
        assert 1.0 <= lifo[n] <= 8.0


def test_lifo_jump_when_second_hypernode_joins(fig3):
    lifo = series_map(fig3)["LIFO high locality"]
    jump = lifo[10] - lifo[8]
    assert 0.3 <= jump <= 5.0, f"LIFO crossing jump {jump:.2f} us"


def test_lifo_roughly_flat_within_regimes(fig3):
    lifo = series_map(fig3)["LIFO high locality"]
    assert lifo[8] - lifo[2] <= 3.0     # one-hypernode regime
    assert abs(lifo[16] - lifo[10]) <= 2.0  # two-hypernode regime


def test_lilo_grows_about_2us_per_thread(fig3):
    lilo = series_map(fig3)["LILO high locality"]
    slope = (lilo[16] - lilo[8]) / 8
    assert 0.8 <= slope <= 4.0, f"LILO slope {slope:.2f} us/thread"


def test_uniform_lilo_converges_to_high_locality_at_16(fig3):
    m = series_map(fig3)
    hi, un = m["LILO high locality"][16], m["LILO uniform"][16]
    assert abs(hi - un) / hi < 0.35


def test_uniform_more_expensive_at_small_counts(fig3):
    m = series_map(fig3)
    assert m["LILO uniform"][2] > m["LILO high locality"][2]
    assert m["LIFO uniform"][2] > m["LIFO high locality"][2]
