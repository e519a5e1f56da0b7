"""Golden-anchor fidelity residuals (repro.obs.fidelity)."""

import pytest

from repro.core import spp1000
from repro.obs.fidelity import (
    FIDELITY_EXPERIMENTS,
    GOLDEN_ANCHORS,
    fidelity_residuals,
)


def fig2_data(pair_us=10.0, uniform_pair_us=20.0, step_us=60.0):
    """Synthetic fig2 curves with exact, controllable anchor values."""
    counts = [2, 4, 6, 8, 10]
    high = [pair_us * n / 2 for n in counts]
    high[-1] = high[-2] + pair_us + step_us  # 8 -> 10 crosses the node
    uniform = [uniform_pair_us * n / 2 for n in counts]
    return {"thread_counts": counts, "high_locality_us": high,
            "uniform_us": uniform}


def test_exact_expectations_give_zero_residuals():
    fid = fidelity_residuals("fig2", fig2_data(step_us=50.0))
    assert fid is not None
    assert fid["within_tolerance"] is True
    assert fid["max_abs_rel_err"] == 0.0
    for metric in ("local_pair_slope_us", "uniform_local_slope_ratio",
                   "cross_node_step_us"):
        entry = fid["metrics"][metric]
        assert entry["rel_err"] == 0.0
        assert entry["within_tolerance"] is True
        assert entry["source"] == "paper"


def test_out_of_tolerance_anchor_is_flagged():
    # local pair slope 3x the paper's 10us: rel_err 2.0 >> tol 0.5
    fid = fidelity_residuals("fig2", fig2_data(pair_us=30.0,
                                               uniform_pair_us=60.0))
    assert fid["within_tolerance"] is False
    bad = fid["metrics"]["local_pair_slope_us"]
    assert bad["within_tolerance"] is False
    assert bad["rel_err"] == pytest.approx(2.0)
    assert fid["max_abs_rel_err"] >= 2.0


def test_missing_inputs_skip_the_anchor_not_the_experiment():
    data = fig2_data()
    del data["uniform_us"]  # uniform ratio becomes uncomputable
    fid = fidelity_residuals("fig2", data)
    assert fid is not None
    assert "uniform_local_slope_ratio" not in fid["metrics"]
    assert "local_pair_slope_us" in fid["metrics"]


def test_trimmed_sweep_yields_none_not_error():
    # a reduced machine that never reaches the anchored thread counts
    fid = fidelity_residuals("fig2", {"thread_counts": [2],
                                      "high_locality_us": [10.0],
                                      "uniform_us": [20.0]})
    assert fid is None


def test_unanchored_experiment_returns_none():
    assert fidelity_residuals("table1", {"whatever": 1}) is None
    assert fidelity_residuals("nope", {}) is None


def test_fidelity_covers_the_fig2_to_fig8_suite():
    # there is no fig5 experiment (the paper's Figure 5 is a photograph)
    assert set(FIDELITY_EXPERIMENTS) == {"fig2", "fig3", "fig4", "fig6",
                                         "fig7", "fig8"}


@pytest.mark.parametrize("fig", sorted(FIDELITY_EXPERIMENTS))
def test_reproduction_is_within_tolerance(fig):
    """The live simulator's curves must sit inside every golden
    tolerance."""
    from repro.experiments import get_experiment

    result = get_experiment(fig)(spp1000())
    fid = fidelity_residuals(fig, result.data)
    assert fid is not None, f"{fig}: no anchor computed"
    assert len(fid["metrics"]) == len(GOLDEN_ANCHORS[fig])
    assert fid["within_tolerance"] is True, fid


def test_residuals_never_mutate_the_data():
    data = fig2_data()
    import copy

    before = copy.deepcopy(data)
    fidelity_residuals("fig2", data)
    assert data == before


def test_reproduction_anchors_are_pinned_exactly():
    """A reproduction anchor is the simulator's own deterministic output,
    so its tolerance leaves room for float noise, not for model drift."""
    pinned = [a for anchors in GOLDEN_ANCHORS.values() for a in anchors
              if a.source == "reproduction"]
    assert len(pinned) == 4
    assert all(a.tolerance <= 1e-9 for a in pinned)


def test_fig6_anchors_skip_a_machine_below_16_cpus():
    from repro.experiments import get_experiment

    result = get_experiment("fig6")(spp1000(n_hypernodes=1))
    assert fidelity_residuals("fig6", result.data) is None
