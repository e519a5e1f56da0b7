"""Tests for node quadrupole moments (the paper's 'high order moments')."""

import numpy as np
import pytest

from repro.apps.nbody.bodies import Bodies, plummer_sphere
from repro.apps.nbody.force import direct_forces, tree_forces
from repro.apps.nbody.tree import build_octree, compute_quadrupoles


def test_quadrupoles_are_traceless_and_symmetric():
    b = plummer_sphere(500, seed=21)
    tree = build_octree(b, leaf_size=8)
    quads = compute_quadrupoles(tree)
    traces = np.trace(quads, axis1=1, axis2=2)
    assert np.allclose(traces, 0.0, atol=1e-9)
    assert np.allclose(quads, np.transpose(quads, (0, 2, 1)), atol=1e-9)


def test_quadrupole_of_symmetric_pair():
    """Two equal masses at +/-d on x: Q = m (3 diag(2d^2) - ...) exactly."""
    pos = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    b = Bodies(pos, np.zeros_like(pos), np.array([1.0, 1.0]))
    tree = build_octree(b, leaf_size=2)
    quads = compute_quadrupoles(tree)
    # about the COM (origin): sum m (3 x x^T - r^2 I)
    expected = np.diag([2 * (3 - 1.0), -2.0, -2.0])
    assert np.allclose(quads[0], expected, atol=1e-12)


def test_parallel_axis_combination_matches_direct():
    """Internal-node quadrupoles equal the direct particle sum."""
    b = plummer_sphere(300, seed=22)
    tree = build_octree(b, leaf_size=4)
    quads = compute_quadrupoles(tree)
    # check the root directly against all particles
    delta = tree.positions - tree.com[0]
    outer = np.einsum("p,pi,pj->ij", tree.masses, delta, delta)
    r2 = np.sum(tree.masses * np.sum(delta * delta, axis=1))
    expected = 3.0 * outer - r2 * np.eye(3)
    assert np.allclose(quads[0], expected, atol=1e-9)


def test_quadrupole_improves_force_accuracy():
    b = plummer_sphere(800, seed=23)
    ref = direct_forces(b, softening=0.02)

    def rel_err(**kwargs):
        res = tree_forces(b, theta=0.8, softening=0.02, **kwargs)
        return float(np.linalg.norm(res.accelerations - ref)
                     / np.linalg.norm(ref))

    mono = rel_err()
    quad = rel_err(use_quadrupole=True)
    assert quad < 0.6 * mono, f"mono {mono:.4f}, quad {quad:.4f}"


def test_quadrupole_computed_lazily_by_tree_forces():
    b = plummer_sphere(200, seed=24)
    tree = build_octree(b, leaf_size=8)
    assert tree.quadrupole is None
    tree_forces(b, tree=tree, use_quadrupole=True)
    assert tree.quadrupole is not None


def test_quadrupole_of_single_particle_leaf_is_zero():
    pos = np.array([[0.3, 0.2, 0.1], [5.0, 5.0, 5.0]])
    b = Bodies(pos, np.zeros_like(pos), np.array([1.0, 2.0]))
    tree = build_octree(b, leaf_size=1)
    quads = compute_quadrupoles(tree)
    for node in tree.leaves():
        if tree.end[node] - tree.start[node] == 1:
            assert np.allclose(quads[node], 0.0, atol=1e-12)
