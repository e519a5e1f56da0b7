"""PPM validation against the exact Riemann solution."""

import numpy as np
import pytest

from repro.apps.ppm.exact_riemann import (
    RiemannState,
    exact_riemann,
    sample_riemann,
    sod_exact,
)
from repro.apps.ppm.solver import PPMSolver2D, sod_state


def test_sod_star_region_matches_literature():
    """Toro's book quotes p* = 0.30313, u* = 0.92745 for Sod."""
    p, u = exact_riemann(RiemannState(1.0, 0.0, 1.0),
                         RiemannState(0.125, 0.0, 0.1))
    assert p == pytest.approx(0.30313, abs=2e-5)
    assert u == pytest.approx(0.92745, abs=2e-5)


def test_symmetric_collision_has_zero_star_velocity():
    p, u = exact_riemann(RiemannState(1.0, 1.0, 1.0),
                         RiemannState(1.0, -1.0, 1.0))
    assert u == pytest.approx(0.0, abs=1e-12)
    assert p > 1.0   # two shocks compress the middle


def test_vacuum_generation_detected():
    with pytest.raises(ValueError):
        exact_riemann(RiemannState(1.0, -10.0, 1.0),
                      RiemannState(1.0, 10.0, 1.0))


def test_state_validation():
    with pytest.raises(ValueError):
        RiemannState(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        sod_exact(np.array([0.5]), t=0.0)


def test_sampled_solution_limits():
    """Far left/right of the fan the initial states are untouched."""
    left = RiemannState(1.0, 0.0, 1.0)
    right = RiemannState(0.125, 0.0, 0.1)
    rho, u, p = sample_riemann(left, right, np.array([-10.0, 10.0]))
    assert (rho[0], u[0], p[0]) == pytest.approx((1.0, 0.0, 1.0))
    assert (rho[1], u[1], p[1]) == pytest.approx((0.125, 0.0, 0.1))


def test_sampled_solution_monotone_density_through_rarefaction():
    rho, _u, _p = sod_exact(np.linspace(0.2, 0.45, 50), t=0.15)
    assert np.all(np.diff(rho) <= 1e-12)


def _run_sod(nx, t_end=0.15):
    solver = PPMSolver2D(sod_state(nx, 8), dx=1.0 / nx, dy=1.0 / 8)
    t = 0.0
    while t < t_end:
        dt = min(solver.stable_dt(), t_end - t)
        solver.u = solver._padded_sweep(solver.u, dt, axis=1)
        solver.u = solver._padded_sweep(solver.u, dt, axis=2)
        t += dt
    return solver, t


def test_ppm_matches_exact_sod_in_clean_region():
    nx = 256
    solver, t = _run_sod(nx)
    x = (np.arange(nx) + 0.5) / nx
    rho_exact, u_exact, p_exact = sod_exact(x, t)
    # the periodic wrap launches its own waves from x=0/1; compare the
    # region only the x=0.5 fan has reached
    mask = np.abs(x - 0.5) < 0.22
    rho_num = solver.u[0][:, 0]
    err = np.abs(rho_num - rho_exact)[mask].mean()
    assert err < 0.03, f"L1 density error {err:.4f}"


def test_ppm_sod_error_decreases_with_resolution():
    def error(nx):
        solver, t = _run_sod(nx)
        x = (np.arange(nx) + 0.5) / nx
        rho_exact, _u, _p = sod_exact(x, t)
        mask = np.abs(x - 0.5) < 0.22
        return float(np.abs(solver.u[0][:, 0] - rho_exact)[mask].mean())

    assert error(256) < 0.75 * error(64)
