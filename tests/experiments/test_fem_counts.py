"""The experiment path counts FEM meshes; it never builds one.

The performance model reads only a mesh's point and element counts, so
fig7, memclass and scale128 must run without triangulating anything, and
a scale128 unit must build only the application it runs.
"""

import pytest

from repro.apps.fem import mesh
from repro.apps.fem.workload import FEMWorkload
from repro.core import spp1000
from repro.exec import execute
from repro.exec.units import run_unit
from repro.experiments import scale128


@pytest.fixture
def no_meshes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the experiment path built a FEM mesh")

    monkeypatch.setattr(mesh, "rectangle_mesh", refuse)


@pytest.mark.parametrize("exp", ["fig7", "memclass", "scale128"])
def test_fem_experiments_build_no_mesh(no_meshes, exp):
    result, report = execute(exp, spp1000(n_hypernodes=2), jobs=1,
                             quick=True)
    assert result.data
    assert report.computed > 0


def test_scale128_plan_builds_no_mesh(no_meshes):
    units = scale128.plan_units(spp1000(n_hypernodes=2))
    assert {u.params["app"] for u in units} == set(scale128._APPS)


def test_scale128_pic_unit_builds_no_fem_workload(monkeypatch):
    built = []
    init = FEMWorkload.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FEMWorkload, "__init__", counting_init)
    params = {"app": "PIC 64x64x32", "hypernodes": 1, "threads": 1}
    assert run_unit("scale128", params, spp1000()) > 0
    assert built == []
    run_unit("scale128", dict(params, app="FEM large"), spp1000())
    assert len(built) == 1
