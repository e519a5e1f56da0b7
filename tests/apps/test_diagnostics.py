"""Tests for the application diagnostics modules."""

import math

import numpy as np
import pytest

from repro.apps.fem.driver import FEMSimulation
from repro.apps.fem.gasdyn import sod_tube, uniform_flow
from repro.apps.fem.mesh import rectangle_mesh
from repro.apps.nbody.bodies import plummer_sphere, uniform_cube
from repro.apps.nbody.diagnostics import (
    lagrangian_radius,
    plummer_density,
    radial_density_profile,
    virial_ratio,
)
from repro.apps.pic.diagnostics import (
    density_spectrum,
    energy_budget,
    field_energy_growth_rate,
    velocity_histogram,
)
from repro.apps.pic.grid import Grid3D
from repro.apps.pic.particles import beam_plasma
from repro.apps.pic.simulation import PICSimulation


# -- PIC -----------------------------------------------------------------

def test_growth_rate_of_synthetic_exponential():
    dt = 0.5
    gamma = 0.3
    history = [{"field_energy": math.exp(2 * gamma * dt * k)}
               for k in range(20)]
    est = field_energy_growth_rate(history, dt, (2, 18))
    assert est == pytest.approx(gamma, rel=1e-9)


def test_growth_rate_window_validation():
    history = [{"field_energy": 1.0}] * 5
    with pytest.raises(ValueError):
        field_energy_growth_rate(history, 0.1, (3, 3))
    with pytest.raises(ValueError):
        field_energy_growth_rate(history, 0.1, (0, 10))


def test_velocity_histogram_of_beam_plasma_is_bimodal():
    grid = Grid3D(8, 8, 8)
    particles = beam_plasma(grid, 8, 1, thermal_velocity=0.05,
                            beam_velocity=1.0, seed=40)
    centres, counts = velocity_histogram(particles, component=0)
    # the plasma peak near 0 and the beam near 1.0 both populated
    near_zero = counts[np.abs(centres) < 0.2].sum()
    near_beam = counts[np.abs(centres - 1.0) < 0.2].sum()
    assert near_zero > 8 * near_beam / 2  # plasma is 8x denser
    assert near_beam > 0
    with pytest.raises(ValueError):
        velocity_histogram(particles, component=5)


def test_density_spectrum_peaks_at_seeded_mode():
    rho = np.zeros((16, 8, 8))
    x = np.arange(16)
    rho += np.cos(2 * np.pi * 3 * x / 16)[:, None, None]
    power = density_spectrum(rho, axis=0)
    assert int(np.argmax(power[1:9])) + 1 == 3


def test_energy_budget_reports_drift():
    grid = Grid3D(8, 8, 8)
    particles = beam_plasma(grid, 4, 0, seed=41)
    sim = PICSimulation(grid, particles, dt=0.1)
    sim.run(5)
    budget = energy_budget(sim.history)
    assert budget["initial_total"] > 0
    assert budget["relative_drift"] < 0.5
    with pytest.raises(ValueError):
        energy_budget([])


# -- N-body --------------------------------------------------------------

def test_plummer_profile_matches_analytic():
    bodies = plummer_sphere(20000, seed=42)
    radii, density = radial_density_profile(bodies, bins=10, r_max=2.0)
    expected = plummer_density(radii)
    # inner bins have plenty of particles: within 30%
    ratio = density[:5] / expected[:5]
    assert np.all((0.7 < ratio) & (ratio < 1.3)), ratio


def test_uniform_cube_profile_is_flat_inside():
    bodies = uniform_cube(50000, seed=43)
    radii, density = radial_density_profile(bodies, bins=8, r_max=0.4)
    inner = density[1:5]
    assert inner.max() / inner.min() < 1.3


def test_half_mass_radius_of_plummer():
    bodies = plummer_sphere(20000, seed=44)
    r_half = lagrangian_radius(bodies, 0.5)
    # analytic Plummer half-mass radius: a/sqrt(2^(2/3)-1) ~ 1.30 a
    assert 1.0 <= r_half <= 1.7
    with pytest.raises(ValueError):
        lagrangian_radius(bodies, 1.5)


def test_virial_ratio_near_unity_for_plummer():
    bodies = plummer_sphere(3000, seed=45)
    q = virial_ratio(bodies)
    assert 0.7 <= q <= 1.3


def test_virial_ratio_zero_for_cold_system():
    bodies = uniform_cube(100, seed=46)
    assert virial_ratio(bodies) == 0.0


# -- FEM ------------------------------------------------------------------

def test_fem_simulation_history_and_conservation():
    mesh = rectangle_mesh(24, 6, periodic=True, width=1.0, height=0.25)
    sim = FEMSimulation(mesh, sod_tube(mesh))
    sim.run(n_steps=10)
    assert len(sim.history) == 10
    assert sim.is_physical()
    first, last = sim.history[0], sim.history[-1]
    assert last["mass"] == pytest.approx(first["mass"], abs=1e-12)
    assert last["time"] > first["time"] > 0


def test_fem_simulation_run_until_time():
    mesh = rectangle_mesh(16, 16, periodic=True)
    sim = FEMSimulation(mesh, uniform_flow(mesh, u=0.2))
    sim.run(until_time=0.05)
    assert sim.time >= 0.05
    with pytest.raises(ValueError):
        sim.run()
    with pytest.raises(ValueError):
        sim.run(n_steps=1, until_time=1.0)


def test_fem_mach_number_uniform_flow():
    mesh = rectangle_mesh(8, 8, periodic=True)
    # rho=1, p=1, gamma=1.4 -> c=sqrt(1.4); u=0.5 -> M=0.4226
    sim = FEMSimulation(mesh, uniform_flow(mesh, u=0.5))
    mach = sim.mach_number()
    assert np.allclose(mach, 0.5 / np.sqrt(1.4))
