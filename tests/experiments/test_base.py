"""Tests for the experiment registry and result rendering."""

import pytest

from repro.core import Series, Table
from repro.experiments import (
    ExperimentResult,
    get_experiment,
    list_experiments,
    register,
    run_experiment,
)
from repro.experiments.base import _REGISTRY


def test_registry_contains_all_paper_artifacts():
    ids = set(list_experiments())
    for required in ["fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
                     "table1", "table2", "ablations", "contention",
                     "scale128", "memclass"]:
        assert required in ids


def test_get_unknown_experiment_raises_with_listing():
    with pytest.raises(KeyError, match="fig2"):
        get_experiment("nonexistent")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        register("fig2", "dup", run=lambda values, config, quick=False: None,
                 plan_units=lambda config, quick=False: [],
                 unit=lambda params, config: None)


def test_result_render_includes_everything():
    t = Table("T", ["a"])
    t.add_row(1)
    r = ExperimentResult("x1", "demo", tables=[t],
                         series=[Series("s", [1], [2.0])],
                         notes="a note")
    out = r.render()
    assert "x1" in out and "demo" in out
    assert "T" in out and "a note" in out and "s" in out


def test_run_experiment_dispatches():
    fn = get_experiment("fig2")
    assert callable(fn)
