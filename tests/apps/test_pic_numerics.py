"""Physics tests for the PIC implementation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.pic.grid import Grid3D
from repro.apps.pic.interpolation import (
    deposit_charge,
    gather_field,
    tsc_weights,
)
from repro.apps.pic.particles import ParticleSet, beam_plasma
from repro.apps.pic.poisson import solve_fields
from repro.apps.pic.simulation import PICSimulation


@pytest.fixture
def grid():
    return Grid3D(8, 8, 8)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3D(2, 8, 8)


def test_grid_wrap_is_periodic(grid):
    pos = np.array([[8.5, -0.5, 16.0]])
    wrapped = grid.wrap(pos)
    assert np.allclose(wrapped, [[0.5, 7.5, 0.0]])


def test_tsc_weights_sum_to_one(grid):
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 8, size=(100, 3))
    _, w = tsc_weights(pos, grid)
    assert np.allclose(w.sum(axis=2), 1.0)


@given(x=st.floats(0.0, 7.999), y=st.floats(0.0, 7.999),
       z=st.floats(0.0, 7.999))
@settings(max_examples=50)
def test_tsc_weights_nonnegative_and_normalised(x, y, z):
    grid = Grid3D(8, 8, 8)
    _, w = tsc_weights(np.array([[x, y, z]]), grid)
    assert np.all(w >= 0)
    assert np.allclose(w.sum(axis=2), 1.0)


def test_deposit_conserves_charge(grid):
    rng = np.random.default_rng(2)
    pos = rng.uniform(0, 8, size=(500, 3))
    rho = deposit_charge(pos, charge=-1.0, grid=grid)
    assert rho.sum() == pytest.approx(-500.0)


def test_deposit_centered_particle_hits_27_points(grid):
    rho = deposit_charge(np.array([[4.25, 4.25, 4.25]]), 1.0, grid)
    assert np.count_nonzero(rho) == 27
    assert rho.sum() == pytest.approx(1.0)


def test_gather_of_uniform_field_is_exact(grid):
    rng = np.random.default_rng(3)
    pos = rng.uniform(0, 8, size=(200, 3))
    uniform = [np.full(grid.shape, 2.5), np.zeros(grid.shape),
               np.full(grid.shape, -1.0)]
    e = gather_field(uniform, pos, grid)
    assert np.allclose(e[:, 0], 2.5)
    assert np.allclose(e[:, 1], 0.0)
    assert np.allclose(e[:, 2], -1.0)


def test_poisson_solves_single_mode():
    """A single Fourier mode of rho must return phi = rho_k/k^2 exactly."""
    grid = Grid3D(16, 16, 16)
    x = np.arange(16)
    kx = 2 * np.pi / 16
    rho = np.cos(kx * x)[:, None, None] * np.ones(grid.shape)
    phi, fields = solve_fields(rho, grid)
    expected_phi = rho / kx ** 2
    assert np.allclose(phi, expected_phi, atol=1e-10)
    # E_x = -d(phi)/dx = +sin(kx x)/kx; E_y = E_z = 0
    assert np.allclose(fields[1], 0.0, atol=1e-10)
    assert np.allclose(fields[2], 0.0, atol=1e-10)
    expected_ex = np.sin(kx * x)[:, None, None] / kx * np.ones(grid.shape)
    assert np.allclose(fields[0], expected_ex, atol=1e-10)


def test_poisson_rejects_wrong_shape(grid):
    with pytest.raises(ValueError):
        solve_fields(np.zeros((4, 4, 4)), grid)


def test_neutral_uniform_plasma_stays_quiet(grid):
    """A uniform plasma has (almost) no fields and no secular heating."""
    # particles exactly on grid points, uniform density
    xs = np.arange(8)
    pos = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"),
                   axis=-1).reshape(-1, 3).astype(float)
    particles = ParticleSet(pos.copy(), np.zeros_like(pos), -1.0, 1.0)
    sim = PICSimulation(grid, particles, dt=0.1)
    diag = sim.step()
    assert diag["field_energy"] == pytest.approx(0.0, abs=1e-12)
    assert diag["kinetic_energy"] == pytest.approx(0.0, abs=1e-12)


def test_momentum_conserved_by_self_forces():
    """TSC deposit/gather symmetry: total momentum change ~ 0."""
    grid = Grid3D(8, 8, 8)
    rng = np.random.default_rng(4)
    n = 400
    particles = ParticleSet(
        rng.uniform(0, 8, size=(n, 3)),
        rng.normal(0, 0.01, size=(n, 3)), -1.0, 1.0)
    sim = PICSimulation(grid, particles, dt=0.1)
    p_before = particles.momentum.copy()
    sim.step()
    p_after = particles.momentum
    # self-force cancellation: momentum drift tiny relative to thermal scale
    assert np.all(np.abs(p_after - p_before) < 1e-8 * n)


def test_two_step_charge_conservation():
    grid = Grid3D(8, 8, 8)
    particles = beam_plasma(grid, plasma_per_cell=2, beam_per_cell=1,
                            seed=5)
    sim = PICSimulation(grid, particles, dt=0.1)
    d1 = sim.step()
    d2 = sim.step()
    assert d1["total_charge"] == pytest.approx(-particles.n)
    assert d2["total_charge"] == pytest.approx(-particles.n)


def test_beam_plasma_initial_condition():
    grid = Grid3D(8, 8, 8)
    p = beam_plasma(grid, plasma_per_cell=8, beam_per_cell=1,
                    beam_velocity=0.5, seed=6)
    assert p.n == 9 * grid.n_cells
    n_beam = grid.n_cells
    beam_v = p.velocities[-n_beam:]
    assert np.allclose(beam_v[:, 0], 0.5)
    assert np.allclose(beam_v[:, 1:], 0.0)
    # plasma is roughly thermal, zero-mean
    plasma_v = p.velocities[:-n_beam]
    assert abs(plasma_v.mean()) < 0.01


def test_beam_instability_grows_field_energy():
    """The paper's test problem is a two-stream-unstable configuration:
    electrostatic field energy must grow from the noise level."""
    grid = Grid3D(8, 8, 8)
    particles = beam_plasma(grid, plasma_per_cell=8, beam_per_cell=1,
                            thermal_velocity=0.01, beam_velocity=1.5,
                            seed=7)
    sim = PICSimulation(grid, particles, dt=0.3)
    history = sim.run(60)
    early = history[1]["field_energy"]
    late = max(h["field_energy"] for h in history[30:])
    assert late > 1.8 * early


def test_flops_per_step_positive_and_scales():
    grid_small, grid_big = Grid3D(8, 8, 8), Grid3D(16, 16, 16)
    p_small = beam_plasma(grid_small, 2, 1, seed=8)
    p_big = beam_plasma(grid_big, 2, 1, seed=8)
    f_small = PICSimulation(grid_small, p_small).flops_per_step()
    f_big = PICSimulation(grid_big, p_big).flops_per_step()
    assert f_small > 0
    assert f_big > 7 * f_small  # 8x particles/cells


def test_particleset_validation():
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((5, 3)), np.zeros((4, 3)), -1.0, 1.0)
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((5, 3)), np.zeros((5, 3)), -1.0, 0.0)


def test_simulation_rejects_bad_dt():
    grid = Grid3D(8, 8, 8)
    p = beam_plasma(grid, 1, 0, seed=9)
    with pytest.raises(ValueError):
        PICSimulation(grid, p, dt=0.0)
