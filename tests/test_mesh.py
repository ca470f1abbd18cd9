"""Unit-square triangulation tests: counts, orientation, geometry, adjacency."""

import numpy as np
import pytest

from infsup_lab.mesh import (
    Mesh,
    boundary_edge_geometry,
    triangle_areas,
    triangle_diameters,
    triangle_grad_lambda,
    unit_square_mesh,
)
from oracles import boundary_edges, edge_table, unique_row_edges


def test_counts_n4():
    mesh = unit_square_mesh(4)
    assert mesh.n_nodes == 25
    assert mesh.n_triangles == 32
    assert len(mesh.boundary_edges) == 16
    assert mesh.h == pytest.approx(np.sqrt(2.0) / 4.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_counts_and_total_area(n):
    mesh = unit_square_mesh(n)
    assert mesh.n_nodes == (n + 1) ** 2
    assert mesh.n_triangles == 2 * n * n
    assert len(mesh.boundary_edges) == 4 * n
    areas = triangle_areas(mesh)
    assert np.all(areas > 0.0)                       # CCW orientation
    assert areas.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(areas, 0.5 / n**2)


def test_invalid_size():
    with pytest.raises(ValueError):
        unit_square_mesh(0)


def test_diameters_are_the_diagonal():
    for n in (1, 3, 6):
        mesh = unit_square_mesh(n)
        assert np.allclose(triangle_diameters(mesh), np.sqrt(2.0) / n)
        assert mesh.h == pytest.approx(np.sqrt(2.0) / n)


def test_barycentric_gradients():
    mesh = unit_square_mesh(2)
    grads = triangle_grad_lambda(mesh)
    # rows of grad_lambda sum to zero (partition of unity)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)
    # lambda_i is affine with lambda_i(p_k) = delta_ik, so extending from
    # vertex i along the constant gradient must hit 0 at the other vertices
    p = mesh.nodes[mesh.triangles[0]]
    for i in range(3):
        for k in range(3):
            val = 1.0 + grads[0, i] @ (p[k] - p[i])
            assert val == pytest.approx(1.0 if i == k else 0.0, abs=1e-13)


def test_interior_edges_shared_by_exactly_two_triangles():
    mesh = unit_square_mesh(4)
    interior = mesh.interior_mask()
    boundary_pairs = {tuple(sorted(e[:2])) for e in mesh.boundary_edges}
    for eid in range(mesh.n_edges):
        pair = tuple(mesh.edges[eid])
        owners = mesh.edge_tris[eid]
        if pair in boundary_pairs:
            assert owners[1] == -1 and owners[0] >= 0
            assert not interior[eid]
        else:
            assert owners[0] >= 0 and owners[1] >= 0
            assert interior[eid]
    # Euler-style count: edges = 3T/2 + boundary/2
    assert mesh.n_edges == (3 * mesh.n_triangles + len(mesh.boundary_edges)) // 2


@pytest.mark.parametrize("n", range(1, 9))
def test_edge_tris_match_a_first_come_loop(n):
    # each edge's first owner in triangle order fills slot 0, the next slot 1
    mesh = unit_square_mesh(n)
    expected = np.full((mesh.n_edges, 2), -1, dtype=np.int64)
    for tri, eids in enumerate(mesh.cell_edges):
        for eid in eids:
            expected[eid, 0 if expected[eid, 0] < 0 else 1] = tri
    assert np.array_equal(mesh.edge_tris, expected)


def test_cell_edges_index_the_right_node_pairs():
    mesh = unit_square_mesh(3)
    local = [(0, 1), (1, 2), (2, 0)]
    for t in range(mesh.n_triangles):
        tri = mesh.triangles[t]
        for k, (a, b) in enumerate(local):
            eid = mesh.cell_edges[t, k]
            assert set(mesh.edges[eid]) == {tri[a], tri[b]}


def test_boundary_edges_lie_on_the_boundary_with_outward_normals():
    mesh = unit_square_mesh(5)
    lengths, normals, midpoints = boundary_edge_geometry(mesh)
    assert np.allclose(lengths, 1.0 / 5.0)
    for (a, b, t), normal, mid in zip(mesh.boundary_edges, normals, midpoints):
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        on_bdry = lambda p: min(p[0], p[1], 1 - p[0], 1 - p[1]) < 1e-12
        assert on_bdry(pa) and on_bdry(pb)
        # stepping along the normal exits the square
        probe = mid + 1e-6 * normal
        assert not (0.0 <= probe[0] <= 1.0 and 0.0 <= probe[1] <= 1.0)
        # the owner triangle contains this edge
        assert {a, b} <= set(mesh.triangles[t])
        # outward also means away from the owner centroid
        centroid = mesh.nodes[mesh.triangles[t]].mean(axis=0)
        assert normal @ (mid - centroid) > 0.0


def test_boundary_orientation_is_ccw_around_the_domain():
    # on the bottom edge the walk goes +x, on the right +y, etc.
    mesh = unit_square_mesh(4)
    for a, b, _ in mesh.boundary_edges:
        pa, pb = mesh.nodes[a], mesh.nodes[b]
        d = pb - pa
        if abs(pa[1]) < 1e-12 and abs(pb[1]) < 1e-12:        # bottom
            assert d[0] > 0
        elif abs(pa[0] - 1) < 1e-12 and abs(pb[0] - 1) < 1e-12:  # right
            assert d[1] > 0
        elif abs(pa[1] - 1) < 1e-12 and abs(pb[1] - 1) < 1e-12:  # top
            assert d[0] < 0
        elif abs(pa[0]) < 1e-12 and abs(pb[0]) < 1e-12:      # left
            assert d[1] < 0


@pytest.mark.parametrize("n", [1, 2, 7, 32])
def test_edge_keys_match_the_unique_rows_route(n):
    # unique edges and the edge id of each directed edge, bit for bit and
    # dtype for dtype, against np.unique(axis=0) of the sorted rows
    mesh = unit_square_mesh(n)
    _, edges, inverse = unique_row_edges(mesh.triangles)
    for new, old in [(mesh.edges, edges), (mesh.cell_edges.ravel(), inverse)]:
        assert new.dtype == old.dtype
        assert np.array_equal(new, old)


@pytest.mark.parametrize("n", [*range(1, 41), 64])
def test_constructor_matches_the_separate_passes(n):
    # the edge table and boundary edges of the one constructor, values and
    # dtypes, against the table and boundary passes it replaced
    mesh = unit_square_mesh(n)
    old = [*edge_table(mesh.triangles), boundary_edges(mesh.triangles)]
    new = [mesh.edges, mesh.cell_edges, mesh.edge_tris, mesh.boundary_edges]
    for a, b in zip(new, old, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [*range(1, 41), 48, 64, 96, 128])
def test_h_is_the_largest_diameter(n):
    mesh = unit_square_mesh(n)
    assert mesh.h == triangle_diameters(mesh).max()
    if n & (n - 1) == 0:
        assert mesh.h == np.sqrt(2.0) / n
    else:
        assert mesh.h == pytest.approx(np.sqrt(2.0) / n, rel=1e-14, abs=0)


def test_a_clockwise_triangle_raises():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    Mesh(nodes, np.array([[0, 1, 2], [1, 3, 2]]))
    with pytest.raises(ValueError, match="counterclockwise"):
        Mesh(nodes, np.array([[0, 1, 2], [1, 2, 3]]))


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("bad", [-2, -1, 4], ids=["minus-2", "minus-1", "n"])
def test_a_node_index_outside_the_nodes_raises(bad):
    # -2 is node 2 to numpy's indexing: the triangles are counterclockwise,
    # and the edges and boundary edges would name node -2
    with pytest.raises(ValueError, match="outside"):
        Mesh(SQUARE, np.array([[0, 1, 3], [0, 3, bad]]))


def test_a_node_in_no_triangle_raises():
    # node 4 would be a P1 dof in no cell: a zero row of the stiffness
    nodes = np.vstack([SQUARE, [[2.0, 2.0]]])
    with pytest.raises(ValueError, match="every node"):
        Mesh(nodes, np.array([[0, 1, 3], [0, 3, 2]]))
    assert Mesh(SQUARE, np.array([[0, 1, 3], [0, 3, 2]])).n_nodes == 4
