"""Figure 2 reproduction: fork-join cost shapes."""

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def fig2():
    return run_experiment("fig2")


def test_result_has_both_placements(fig2):
    labels = {s.label for s in fig2.series}
    assert labels == {"high locality", "uniform distribution"}


def test_cost_monotone_in_threads(fig2):
    for series in fig2.series:
        assert list(series.y) == sorted(series.y)


def test_local_pair_cost_near_10us(fig2):
    counts = fig2.data["thread_counts"]
    high = dict(zip(counts, fig2.data["high_locality_us"]))
    per_pair = (high[8] - high[4]) / 2
    assert 5.0 <= per_pair <= 20.0, f"{per_pair:.1f} us/pair"


def test_uniform_pair_cost_about_double_local(fig2):
    counts = fig2.data["thread_counts"]
    high = dict(zip(counts, fig2.data["high_locality_us"]))
    uni = dict(zip(counts, fig2.data["uniform_us"]))
    local_pair = (high[8] - high[4]) / 2
    uniform_pair = (uni[8] - uni[4]) / 2
    assert 1.3 <= uniform_pair / local_pair <= 3.5


def test_crossing_step_of_order_50us(fig2):
    counts = fig2.data["thread_counts"]
    high = dict(zip(counts, fig2.data["high_locality_us"]))
    pair = (high[8] - high[4]) / 2
    step = (high[10] - high[8]) - pair  # beyond the marginal pair cost
    assert 25.0 <= step <= 110.0, f"crossing step {step:.1f} us"


def test_uniform_pays_crossing_from_two_threads(fig2):
    counts = fig2.data["thread_counts"]
    high = dict(zip(counts, fig2.data["high_locality_us"]))
    uni = dict(zip(counts, fig2.data["uniform_us"]))
    assert uni[2] > high[2] + 25.0
