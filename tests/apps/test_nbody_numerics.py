"""Physics and structure tests for the N-body tree code."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.nbody.bodies import Bodies, plummer_sphere, uniform_cube
from repro.apps.nbody.force import direct_forces, tree_forces
from repro.apps.nbody.integrator import NBodySimulation
from repro.apps.nbody.tree import build_octree, morton_keys_3d


def test_bodies_validation():
    with pytest.raises(ValueError):
        Bodies(np.zeros((3, 3)), np.zeros((2, 3)), np.ones(3))
    with pytest.raises(ValueError):
        Bodies(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3))


def test_plummer_properties():
    b = plummer_sphere(2000, seed=3)
    assert b.n == 2000
    assert b.masses.sum() == pytest.approx(1.0)
    # centre-of-mass frame
    assert np.allclose(b.total_momentum(), 0.0, atol=1e-12)
    # near virial equilibrium: 2K + W ~ 0 (loose band for finite N)
    k = b.kinetic_energy()
    w = b.potential_energy()
    assert -0.7 <= 2 * k / abs(w) - 1.0 <= 0.7


def test_uniform_cube_cold_start():
    b = uniform_cube(100, seed=4)
    assert b.kinetic_energy() == 0.0
    assert np.all(np.abs(b.positions) <= 0.5)


# -- Morton keys and octree -----------------------------------------------------

def test_morton_keys_are_unique_for_distinct_cells():
    pos = np.array([[0.0, 0.0, 0.0], [0.9, 0.9, 0.9], [0.1, 0.8, 0.3]])
    keys = morton_keys_3d(pos, np.zeros(3), 1.0)
    assert len(set(keys.tolist())) == 3


def test_octree_invariants_plummer():
    b = plummer_sphere(1500, seed=5)
    tree = build_octree(b, leaf_size=8)
    tree.check_invariants()
    assert tree.mass[0] == pytest.approx(1.0)
    assert np.allclose(tree.com[0], (b.masses[:, None] * b.positions)
                       .sum(axis=0), atol=1e-12)


@given(n=st.integers(1, 200), leaf=st.sampled_from([1, 4, 16]))
@settings(max_examples=20, deadline=None)
def test_octree_invariants_random(n, leaf):
    rng = np.random.default_rng(n)
    b = Bodies(rng.normal(size=(n, 3)), np.zeros((n, 3)),
               rng.uniform(0.5, 2.0, n))
    tree = build_octree(b, leaf_size=leaf)
    tree.check_invariants()
    # every particle accounted for exactly once across the leaves
    total = sum(int(tree.end[i] - tree.start[i]) for i in tree.leaves())
    assert total == n


def test_octree_identical_positions_terminate():
    """Coincident particles must not recurse forever."""
    pos = np.zeros((20, 3))
    b = Bodies(pos, np.zeros_like(pos), np.ones(20))
    tree = build_octree(b, leaf_size=4)
    assert tree.mass[0] == pytest.approx(20.0)


def test_octree_leaf_size_validation():
    b = plummer_sphere(10, seed=6)
    with pytest.raises(ValueError):
        build_octree(b, leaf_size=0)


# -- forces ------------------------------------------------------------------------

def test_tree_forces_match_direct_summation():
    b = plummer_sphere(800, seed=7)
    result = tree_forces(b, theta=0.5, softening=0.02)
    reference = direct_forces(b, softening=0.02)
    num = np.linalg.norm(result.accelerations - reference, axis=1)
    den = np.linalg.norm(reference, axis=1)
    rel = num / np.maximum(den, 1e-12)
    assert rel.mean() < 0.01
    assert np.percentile(rel, 99) < 0.08


def test_smaller_theta_is_more_accurate():
    b = plummer_sphere(600, seed=8)
    reference = direct_forces(b, softening=0.02)

    def err(theta):
        res = tree_forces(b, theta=theta, softening=0.02)
        return float(np.linalg.norm(res.accelerations - reference)
                     / np.linalg.norm(reference))

    assert err(0.3) < err(0.9)


def test_theta_zero_rejected():
    b = plummer_sphere(10, seed=9)
    with pytest.raises(ValueError):
        tree_forces(b, theta=0.0)


def test_larger_theta_prunes_more():
    b = plummer_sphere(1000, seed=10)
    loose = tree_forces(b, theta=1.0)
    tight = tree_forces(b, theta=0.3)
    assert loose.total_interactions < tight.total_interactions
    assert loose.flops < tight.flops


def test_tree_forces_far_fewer_interactions_than_n_squared():
    b = plummer_sphere(2000, seed=11)
    result = tree_forces(b, theta=0.7)
    assert result.total_interactions < 0.6 * b.n * b.n


def test_two_body_force_is_newtonian():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = Bodies(pos, np.zeros_like(pos), np.array([1.0, 1.0]))
    acc = direct_forces(b, softening=0.0)
    assert acc[0, 0] == pytest.approx(1.0)   # G m / r^2 toward +x
    assert acc[1, 0] == pytest.approx(-1.0)


# -- integration -------------------------------------------------------------------

def test_leapfrog_conserves_energy():
    b = plummer_sphere(400, seed=12)
    sim = NBodySimulation(b, dt=0.005, theta=0.5, softening=0.05,
                          leaf_size=8)
    e0 = sim.energies()["total"]
    sim.run(10)
    e1 = sim.energies()["total"]
    assert abs((e1 - e0) / e0) < 0.02


def test_leapfrog_conserves_momentum():
    """Barnes-Hut approximations break exact pairwise symmetry, but the
    momentum drift must stay tiny relative to the system's momentum scale
    (sum of |m v| ~ 0.3 here)."""
    b = plummer_sphere(300, seed=13)
    sim = NBodySimulation(b, dt=0.01, softening=0.05, leaf_size=8)
    sim.run(5)
    assert np.all(np.abs(b.total_momentum()) < 1e-4)


def test_simulation_records_interaction_stats():
    b = plummer_sphere(200, seed=14)
    sim = NBodySimulation(b, dt=0.01, leaf_size=8)
    sim.step()
    assert sim.last_result is not None
    assert sim.last_result.total_interactions > 0


def test_bad_dt_rejected():
    b = plummer_sphere(10, seed=15)
    with pytest.raises(ValueError):
        NBodySimulation(b, dt=-1.0)
