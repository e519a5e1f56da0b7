"""Tests for work-unit planning and the PointStore protocol."""

import pytest

import repro.experiments  # noqa: F401  (registers every planner)
from repro.core import spp1000
from repro.exec.units import (
    PointStore,
    WorkUnit,
    plan_units,
    register_units,
    run_unit,
    unit_experiments,
)
from repro.experiments import list_experiments


def test_every_registered_experiment_plans_unique_keys():
    config = spp1000()
    for exp_id in unit_experiments():
        units = plan_units(exp_id, config)
        assert units, exp_id
        keys = [u.key for u in units]
        assert len(keys) == len(set(keys)), exp_id
        for unit in units:
            assert unit.experiment_id == exp_id


def test_every_experiment_has_a_planner():
    # one way to run an experiment: every public id plans work units
    public = [exp_id for exp_id in list_experiments()
              if not exp_id.startswith("_")]
    assert unit_experiments() == public


def test_plan_units_unknown_experiment_lists_known_ones():
    with pytest.raises(KeyError) as exc:
        plan_units("nope", spp1000())
    assert "unknown experiment 'nope'" in str(exc.value)
    assert "fig3" in str(exc.value)


def test_planner_shrinks_with_machine_size():
    # a 1-hypernode machine has 8 CPUs; counts above that are dropped
    full = plan_units("fig3", spp1000())
    small = plan_units("fig3", spp1000(n_hypernodes=1))
    assert len(small) < len(full)


def test_work_unit_is_hashable_on_params_content():
    a = WorkUnit("x", "k", {"p": 1, "q": [1, 2]})
    b = WorkUnit("x", "k", {"q": [1, 2], "p": 1})
    assert hash(a) == hash(b)
    assert a == b


def test_run_unit_computes_point():
    config = spp1000()
    unit = plan_units("table2", config)[0]
    value = run_unit("table2", unit.params, config)
    assert isinstance(value, float) and value > 0


def test_register_units_rejects_duplicates():
    with pytest.raises(ValueError):
        register_units("fig3", lambda config, quick=False: [],
                       lambda params, config: None)


def test_point_store_serves_and_falls_back():
    store = PointStore({"a": 1})
    assert store.point("a", lambda: 99) == 1
    assert store.point("b", lambda: 2) == 2
    assert store.hits == 1
    assert store.computed == 1
    # the fallback value is memoised for subsequent lookups
    assert store.point("b", lambda: 3) == 2
