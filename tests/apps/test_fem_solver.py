"""Physics tests for the FEM gas-dynamics solver."""

import numpy as np
import pytest

from repro.apps.fem.gasdyn import GasDynamicsFEM, sod_tube, uniform_flow
from repro.apps.fem.mesh import rectangle_mesh


@pytest.fixture
def periodic_solver():
    mesh = rectangle_mesh(24, 24, periodic=True)
    return GasDynamicsFEM(mesh)


def test_solver_validation():
    mesh = rectangle_mesh(4, 4)
    with pytest.raises(ValueError):
        GasDynamicsFEM(mesh, gamma=0.9)
    with pytest.raises(ValueError):
        GasDynamicsFEM(mesh, cfl=0.0)


def test_uniform_flow_is_steady(periodic_solver):
    state = uniform_flow(periodic_solver.mesh, rho=1.0, u=0.4, v=-0.3,
                         pressure=2.0)
    new, dt = periodic_solver.step(state)
    assert dt > 0
    assert np.allclose(new.u, state.u, atol=1e-12)


def test_conservation_on_periodic_mesh():
    mesh = rectangle_mesh(48, 6, periodic=True, width=1.0, height=0.125)
    solver = GasDynamicsFEM(mesh)
    state = sod_tube(mesh)
    before = solver.totals(state)
    state, _ = solver.run(state, 40)
    after = solver.totals(state)
    for key in before:
        assert after[key] == pytest.approx(before[key], abs=1e-10), key


def test_sod_tube_develops_waves():
    mesh = rectangle_mesh(128, 4, periodic=True, width=1.0, height=1 / 32)
    solver = GasDynamicsFEM(mesh)
    state = sod_tube(mesh)
    state, dts = solver.run(state, 120)
    rho = state.rho
    # density must now take intermediate values between the two initial
    # states (shock plateau and rarefaction fan)
    intermediate = np.sum((rho > 0.2) & (rho < 0.9))
    assert intermediate > mesh.n_points * 0.05
    # and remain physical
    assert rho.min() > 0
    assert state.pressure().min() > 0


def test_timestep_shrinks_with_stronger_waves(periodic_solver):
    quiet = uniform_flow(periodic_solver.mesh, pressure=1.0)
    loud = uniform_flow(periodic_solver.mesh, pressure=100.0)
    assert periodic_solver.stable_dt(loud) < periodic_solver.stable_dt(quiet)


def test_max_wavespeed_uniform_state(periodic_solver):
    state = uniform_flow(periodic_solver.mesh, rho=1.0, u=0.0, v=0.0,
                         pressure=1.0, gamma=1.4)
    # c = sqrt(gamma p / rho) = sqrt(1.4)
    assert periodic_solver.max_wavespeed(state) == \
        pytest.approx(np.sqrt(1.4), rel=1e-6)


def test_dissipation_damps_perturbations():
    mesh = rectangle_mesh(16, 16, periodic=True)
    solver = GasDynamicsFEM(mesh, dissipation=1.0)
    state = uniform_flow(mesh)
    rng = np.random.default_rng(11)
    state.u[:, 0] += 0.01 * rng.standard_normal(mesh.n_points)
    var0 = state.rho.var()
    state, _ = solver.run(state, 30)
    assert state.rho.var() < var0


def test_flops_per_step_uses_paper_constant():
    mesh = rectangle_mesh(8, 8)
    solver = GasDynamicsFEM(mesh)
    assert solver.flops_per_step() == 437.0 * mesh.n_points


def test_nonperiodic_mesh_runs():
    mesh = rectangle_mesh(16, 16)
    solver = GasDynamicsFEM(mesh)
    state = uniform_flow(mesh, u=0.1)
    state, dt = solver.step(state)
    assert np.isfinite(state.u).all()
