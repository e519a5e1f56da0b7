"""Physics tests for the PPM hydrodynamics code."""

import numpy as np
import pytest

from repro.apps.ppm.eos import GammaLawEOS
from repro.apps.ppm.reconstruct import ppm_reconstruct, vanleer_slopes
from repro.apps.ppm.riemann import hllc_flux
from repro.apps.ppm.solver import (
    PPMSolver2D,
    blast_state,
    sod_state,
    uniform_state,
)
from repro.apps.ppm.sweep import sweep


# -- reconstruction ---------------------------------------------------------

def test_reconstruction_exact_for_linear_data():
    x = np.linspace(0, 1, 20)[:, None]
    a = 2.0 + 3.0 * x
    left, right = ppm_reconstruct(a)
    # interior parabola edges of linear data sit mid-way between cells
    assert np.allclose(right[2:-3, 0], 0.5 * (a[2:-3, 0] + a[3:-2, 0]))
    assert np.allclose(left[3:-2, 0], 0.5 * (a[2:-3, 0] + a[3:-2, 0]))


def test_reconstruction_is_monotone_at_a_jump():
    a = np.where(np.arange(20) < 10, 1.0, 0.125)[:, None]
    left, right = ppm_reconstruct(a)
    lo, hi = a.min(), a.max()
    assert np.all(left >= lo - 1e-12) and np.all(left <= hi + 1e-12)
    assert np.all(right >= lo - 1e-12) and np.all(right <= hi + 1e-12)


def test_reconstruction_flattens_extrema():
    a = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])[:, None]
    left, right = ppm_reconstruct(a)
    # every interior cell is a local extremum -> piecewise constant
    assert np.allclose(left[2:-2], a[2:-2])
    assert np.allclose(right[2:-2], a[2:-2])


def test_reconstruction_needs_five_cells():
    with pytest.raises(ValueError):
        ppm_reconstruct(np.zeros((4, 1)))


def test_vanleer_slopes_zero_at_extrema_and_edges():
    a = np.array([0.0, 2.0, 1.0, 3.0, 3.5])[:, None]
    d = vanleer_slopes(a)
    assert d[0, 0] == 0.0 and d[-1, 0] == 0.0
    assert d[1, 0] == 0.0  # local max at index 1


# -- Riemann solver ------------------------------------------------------------

def test_hllc_flux_of_identical_states_is_exact():
    eos = GammaLawEOS(1.4)
    state = (np.array([1.0]), np.array([0.5]), np.array([0.1]),
             np.array([2.0]))
    flux = hllc_flux(state, state, eos)
    rho, u, v, p = (s[0] for s in state)
    e = p / 0.4 + 0.5 * rho * (u * u + v * v)
    assert flux[0, 0] == pytest.approx(rho * u)
    assert flux[1, 0] == pytest.approx(rho * u * u + p)
    assert flux[2, 0] == pytest.approx(rho * u * v)
    assert flux[3, 0] == pytest.approx((e + p) * u)


def test_hllc_flux_upwinds_supersonic_flow():
    eos = GammaLawEOS(1.4)
    left = (np.array([1.0]), np.array([10.0]), np.array([0.0]),
            np.array([1.0]))
    right = (np.array([0.5]), np.array([10.0]), np.array([0.0]),
             np.array([0.5]))
    flux = hllc_flux(left, right, eos)
    # flow is supersonic to the right: flux must be the left flux
    assert flux[0, 0] == pytest.approx(10.0)


def test_hllc_symmetric_states_have_zero_mass_flux():
    eos = GammaLawEOS(1.4)
    left = (np.array([1.0]), np.array([1.0]), np.array([0.0]),
            np.array([1.0]))
    right = (np.array([1.0]), np.array([-1.0]), np.array([0.0]),
             np.array([1.0]))
    flux = hllc_flux(left, right, eos)
    assert flux[0, 0] == pytest.approx(0.0, abs=1e-12)


# -- solver ------------------------------------------------------------------------

def test_uniform_state_is_steady():
    solver = PPMSolver2D(uniform_state(24, 16, ux=0.5, uy=-0.25))
    u0 = solver.u.copy()
    solver.run(3)
    assert np.allclose(solver.u, u0, atol=1e-12)


def test_conservation_exact_on_periodic_grid():
    solver = PPMSolver2D(sod_state(64, 8), dx=1 / 64, dy=1 / 8)
    before = solver.totals()
    solver.run(30)
    after = solver.totals()
    for key in before:
        assert after[key] == pytest.approx(before[key], abs=1e-12), key


def test_sod_shock_structure():
    solver = PPMSolver2D(sod_state(256, 8), dx=1 / 256, dy=1 / 8)
    t = 0.0
    while t < 0.15:
        t += solver.step()
    rho = solver.u[0][:, 0]
    # the four-state structure: left state, rarefaction/contact plateau
    # values, right state must all be present
    assert rho.max() <= 1.0 + 1e-6
    assert rho.min() >= 0.125 - 1e-6
    plateau = np.sum((rho > 0.25) & (rho < 0.45))   # post-shock ~0.27-0.43
    assert plateau > 10
    # solution stays y-independent
    assert np.allclose(solver.u[0], solver.u[0][:, :1])


def test_blast_wave_stays_positive_and_symmetric():
    solver = PPMSolver2D(blast_state(40, 40), dx=1 / 40, dy=1 / 40,
                         cfl=0.3)
    solver.run(20)
    rho, ux, uy, p = solver.primitive_fields()
    assert rho.min() > 0 and p.min() > 0
    # mirror symmetries of the centred blast survive exactly; x<->y
    # (transpose) symmetry is only approximate under x-then-y splitting
    assert np.allclose(rho, rho[::-1, :], atol=1e-8)
    assert np.allclose(rho, rho[:, ::-1], atol=1e-8)
    assert np.abs(rho - rho.T).max() < 0.25 * rho.max()


def test_sweep_validation():
    u = uniform_state(16, 16)
    with pytest.raises(ValueError):
        sweep(u, 0.1, 1.0, GammaLawEOS(), axis=0)
    with pytest.raises(ValueError):
        sweep(uniform_state(6, 16), 0.1, 1.0, GammaLawEOS(), axis=1)


def test_solver_validation():
    with pytest.raises(ValueError):
        PPMSolver2D(np.zeros((3, 8, 8)))
    with pytest.raises(ValueError):
        PPMSolver2D(uniform_state(8, 8), cfl=0.0)


def test_ppm_workload_tile_divisibility():
    from repro.apps.ppm import PPMProblem, PPMWorkload
    from repro.core import spp1000

    with pytest.raises(ValueError):
        PPMProblem(100, 480, 7, 16)     # tiles don't divide the grid
    workload = PPMWorkload(PPMProblem(120, 480, 4, 16), spp1000())
    with pytest.raises(ValueError):
        workload.run(5)                 # 64 tiles don't divide over 5
