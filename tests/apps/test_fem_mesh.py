"""Tests for mesh generation and Morton ordering."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.fem import large_problem, small1_problem, small2_problem
from repro.apps.fem.mesh import TriMesh, large_mesh, rectangle_mesh, small_mesh
from repro.apps.fem.morton import (
    element_permutation,
    morton_decode,
    morton_encode,
    morton_order_mesh,
    point_permutation,
)


def test_paper_mesh_sizes_exact():
    small = small_mesh()
    assert small.n_points == 46545
    assert small.n_elements == 92160
    large = large_mesh()
    assert large.n_points == 263169
    assert large.n_elements == 524288


def test_problem_counts_match_the_meshes_they_name():
    """The problems carry closed-form counts; they must be exactly the
    counts of the meshes the paper ran."""
    small, large = small_mesh(), large_mesh()
    for problem in (small1_problem(), small2_problem()):
        assert (problem.n_points, problem.n_elements) == \
            (small.n_points, small.n_elements) == (46545, 92160)
    problem = large_problem()
    assert (problem.n_points, problem.n_elements) == \
        (large.n_points, large.n_elements) == (263169, 524288)


def _reference_triangles(nx, ny, periodic):
    """The triangulation written out quad by quad."""
    py = ny if periodic else ny + 1

    def pid(i, j):
        if periodic:
            return (i % nx) * py + (j % ny)
        return i * py + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            tris.append((pid(i, j), pid(i + 1, j), pid(i + 1, j + 1)))
            tris.append((pid(i, j), pid(i + 1, j + 1), pid(i, j + 1)))
    return np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 4), (3, 1), (6, 5), (7, 7)])
def test_rectangle_mesh_matches_the_quad_by_quad_triangulation(
        nx, ny, periodic):
    mesh = rectangle_mesh(nx, ny, periodic=periodic)
    expected = _reference_triangles(nx, ny, periodic)
    assert mesh.triangles.dtype == expected.dtype
    assert np.array_equal(mesh.triangles, expected)
    assert mesh.n_points == (nx * ny if periodic else (nx + 1) * (ny + 1))


def test_two_elements_per_point_ratio():
    mesh = small_mesh()
    assert 1.9 <= mesh.n_elements / mesh.n_points <= 2.05


def test_average_six_elements_per_point():
    mesh = rectangle_mesh(32, 32, periodic=True)
    counts = mesh.elements_per_point()
    assert counts.mean() == pytest.approx(6.0)
    assert counts.max() <= 7


def test_areas_positive_and_sum_to_domain():
    mesh = rectangle_mesh(8, 8, width=2.0, height=1.0)
    areas = mesh.areas()
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(2.0)


def test_periodic_areas_positive_and_sum_to_domain():
    mesh = rectangle_mesh(8, 8, periodic=True, width=1.0, height=1.0)
    areas = mesh.areas()
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(1.0)


def test_shape_gradients_sum_to_zero():
    """Partition of unity: shape-function gradients cancel per element."""
    for periodic in (False, True):
        mesh = rectangle_mesh(6, 5, periodic=periodic)
        bx, by = mesh.shape_gradients()
        assert np.allclose(bx.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(by.sum(axis=1), 0.0, atol=1e-12)


def test_shape_gradients_reproduce_linear_function():
    """grad(N) applied to nodal values of f = 2x + 3y gives (2, 3)."""
    mesh = rectangle_mesh(5, 7)
    f = 2.0 * mesh.points[:, 0] + 3.0 * mesh.points[:, 1]
    bx, by = mesh.shape_gradients()
    fe = f[mesh.triangles]
    assert np.allclose((bx * fe).sum(axis=1), 2.0)
    assert np.allclose((by * fe).sum(axis=1), 3.0)


def test_lumped_mass_sums_to_total_area():
    mesh = rectangle_mesh(9, 4, width=3.0, height=2.0)
    assert mesh.lumped_mass().sum() == pytest.approx(6.0)


def test_mesh_validation():
    with pytest.raises(ValueError):
        TriMesh(np.zeros((4, 3)), np.zeros((1, 3), dtype=int))
    with pytest.raises(ValueError):
        TriMesh(np.zeros((4, 2)), np.array([[0, 1, 9]]))
    with pytest.raises(ValueError):
        rectangle_mesh(0, 5)


# -- Morton ordering -----------------------------------------------------------

@given(i=st.integers(0, 2**21 - 1), j=st.integers(0, 2**21 - 1))
def test_morton_roundtrip(i, j):
    code = morton_encode(np.array([i]), np.array([j]))
    i2, j2 = morton_decode(code)
    assert (i2[0], j2[0]) == (i, j)


def test_morton_encode_rejects_bad_coords():
    with pytest.raises(ValueError):
        morton_encode(np.array([-1]), np.array([0]))
    with pytest.raises(ValueError):
        morton_encode(np.array([2**21]), np.array([0]))


def test_morton_is_strictly_monotonic_on_grid_diagonal():
    n = np.arange(100)
    codes = morton_encode(n, n)
    assert np.all(np.diff(codes) > 0)


def test_point_permutation_is_a_permutation():
    mesh = rectangle_mesh(13, 7)
    perm = point_permutation(mesh)
    assert sorted(perm) == list(range(mesh.n_points))
    eperm = element_permutation(mesh)
    assert sorted(eperm) == list(range(mesh.n_elements))


def test_morton_ordering_preserves_geometry():
    mesh = rectangle_mesh(10, 10)
    ordered = morton_order_mesh(mesh)
    assert ordered.n_points == mesh.n_points
    assert ordered.n_elements == mesh.n_elements
    assert ordered.areas().sum() == pytest.approx(mesh.areas().sum())
    assert np.all(ordered.areas() > 0)
    # same point set, different order
    assert np.allclose(np.sort(ordered.points.view("f8"), axis=0),
                       np.sort(mesh.points.view("f8"), axis=0))


def test_morton_ordering_improves_index_locality():
    """Successive elements reference nearby point indices after ordering
    — far closer than a random element order would."""
    mesh = rectangle_mesh(64, 64)
    ordered = morton_order_mesh(mesh)

    def mean_jump(m):
        mins = m.triangles.min(axis=1)
        return float(np.abs(np.diff(mins)).mean())

    rng = np.random.default_rng(13)
    shuffled = TriMesh(ordered.points,
                       ordered.triangles[rng.permutation(mesh.n_elements)])
    assert mean_jump(ordered) < 0.1 * mean_jump(shuffled)
