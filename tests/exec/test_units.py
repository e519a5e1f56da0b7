"""Tests for work-unit planning and for assembly from planned units."""

import pytest

from repro.core import spp1000
from repro.exec.pool import WorkerPool
from repro.exec.units import WorkUnit, plan_units, run_unit, unit_experiments
from repro.experiments import get_experiment, list_experiments


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


class _RecordingValues(dict):
    """Planned unit values that record every key read from them."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize(
    "exp_id, hypernodes, quick",
    [(exp_id, hypernodes, True) for exp_id in unit_experiments()
     for hypernodes in (1, 2)] + [("degraded", 2, False)])
def test_assembly_reads_exactly_the_planned_keys(exp_id, hypernodes, quick):
    """A planned unit that assembly never reads is wasted compute, and a
    key it reads that the plan lacks is a KeyError."""
    config = spp1000(n_hypernodes=hypernodes)
    units = plan_units(exp_id, config, quick=quick)
    values = _RecordingValues(WorkerPool(1).map_units(units, config))
    get_experiment(exp_id)(values, config, quick=quick)
    assert values.read == {unit.key for unit in units}
