"""Convergence and accuracy tests for the PPM scheme."""

import numpy as np
import pytest

from repro.apps.ppm.eos import GammaLawEOS
from repro.apps.ppm.solver import PPMSolver2D, uniform_state


def advecting_wave(nx, amplitude=1e-3, velocity=1.0):
    """A smooth acoustic-free density wave advected by uniform flow."""
    u = uniform_state(nx, 8, rho=1.0, ux=velocity, p=1.0)
    x = (np.arange(nx) + 0.5) / nx
    perturbation = amplitude * np.sin(2 * np.pi * x)[:, None]
    rho = 1.0 + perturbation
    # entropy wave: pressure constant, velocity constant
    gamma = 1.4
    u[0] = rho
    u[1] = rho * velocity
    u[2] = 0.0
    u[3] = 1.0 / (gamma - 1.0) + 0.5 * rho * velocity ** 2
    return u


def advection_error(nx, n_periods=0.25):
    solver = PPMSolver2D(advecting_wave(nx), dx=1.0 / nx, dy=1.0 / 8,
                         cfl=0.4)
    t_end = n_periods  # domain length 1, velocity 1
    t = 0.0
    while t < t_end:
        dt = min(solver.stable_dt(), t_end - t)
        solver.u = solver._padded_sweep(solver.u, dt, axis=1)
        solver.u = solver._padded_sweep(solver.u, dt, axis=2)
        t += dt
    # exact solution: the initial profile shifted by t_end
    x = (np.arange(nx) + 0.5) / nx
    exact = 1.0 + 1e-3 * np.sin(2 * np.pi * (x - t_end))
    return float(np.abs(solver.u[0][:, 0] - exact).mean())


def test_smooth_advection_converges_with_resolution():
    """Error decreases with resolution (the first-order-in-time update
    bounds the rate; PROMETHEUS's characteristic tracing would steepen
    it — documented substitution, see DESIGN.md)."""
    e_coarse = advection_error(32)
    e_mid = advection_error(64)
    e_fine = advection_error(128)
    assert e_mid < e_coarse
    assert e_fine < 0.55 * e_coarse, (e_coarse, e_fine)


def test_advected_wave_keeps_pressure_uniform():
    solver = PPMSolver2D(advecting_wave(64), dx=1 / 64, dy=1 / 8, cfl=0.4)
    solver.run(20)
    _rho, _ux, _uy, p = solver.primitive_fields()
    assert np.abs(p - 1.0).max() < 5e-3


def test_wave_amplitude_not_amplified():
    """Monotone schemes may damp but never amplify a smooth wave."""
    solver = PPMSolver2D(advecting_wave(64), dx=1 / 64, dy=1 / 8, cfl=0.4)
    solver.run(30)
    rho = solver.u[0][:, 0]
    assert rho.max() <= 1.0 + 1e-3 + 1e-9
    assert rho.min() >= 1.0 - 1e-3 - 1e-9
