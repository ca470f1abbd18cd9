"""Structured triangulations of the unit square.

The mesh splits an n×n grid of cells into two triangles each along the
lower-left to upper-right diagonal.  Triangles are counterclockwise, so all
signed areas are positive, and boundary edges keep the orientation of their
owning triangle, which puts the outward normal on the right-hand side of the
directed edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Triangulation of the unit square.

    ``boundary_edges`` rows are ``(node_a, node_b, owner_triangle)`` with the
    edge directed counterclockwise around the domain.  ``h`` is the common
    element diameter (the diagonal, sqrt(2)/n).
    """

    n: int
    nodes: np.ndarray            # (n_nodes, 2)
    triangles: np.ndarray        # (n_triangles, 3) int, CCW
    boundary_edges: np.ndarray   # (n_boundary_edges, 3) int
    h: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


@dataclass(frozen=True)
class EdgeTable:
    """Unique undirected edges with triangle adjacency.

    ``cell_edges[t, k]`` is the edge id of local edge k of triangle t in the
    order (v0,v1), (v1,v2), (v2,v0).  ``edge_tris`` holds up to two adjacent
    triangles per edge (-1 when absent); interior edges have exactly two.
    """

    edges: np.ndarray            # (n_edges, 2) int, each row sorted
    cell_edges: np.ndarray       # (n_triangles, 3) int
    edge_tris: np.ndarray        # (n_edges, 2) int

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def interior_mask(self) -> np.ndarray:
        return self.edge_tris[:, 1] >= 0


def unit_square_mesh(n: int) -> Mesh:
    """Uniform triangulation with ``(n+1)^2`` nodes and ``2 n^2`` triangles."""
    if n < 1:
        raise ValueError("need at least one cell per side")
    side = n + 1
    xs = np.linspace(0.0, 1.0, side)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([xg.ravel(), yg.ravel()])

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    i = i.ravel()
    j = j.ravel()
    a = j * side + i            # lower-left corner of cell (i, j)
    b = a + 1
    c = b + side
    d = a + side
    lower = np.column_stack([a, b, c])
    upper = np.column_stack([a, c, d])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    boundary = _boundary_edges(triangles)
    return Mesh(n=n, nodes=nodes, triangles=triangles,
                boundary_edges=boundary, h=float(np.sqrt(2.0) / n))


def _directed_edges(triangles: np.ndarray):
    """The local edges (v0,v1), (v1,v2), (v2,v0) of every triangle in turn.

    Returns ``(directed, edges, inverse)``: the (3T, 2) directed edges, whose
    row k belongs to triangle k // 3; the unique undirected edges, rows
    sorted, in lexicographic order; and the id in ``edges`` of each directed
    edge.  An undirected edge is the integer key ``lo (N + 1) + hi``, N the
    largest node, whose order is the lexicographic one; one stable argsort
    groups the keys.
    """
    directed = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lo, hi = directed.min(axis=1), directed.max(axis=1)
    keys = lo * (triangles.max() + 1) + hi
    order = np.argsort(keys, kind="stable")
    first = np.diff(keys[order], prepend=-1) != 0
    inverse = np.empty_like(keys)
    inverse[order] = np.cumsum(first) - 1
    edges = np.column_stack([lo, hi])[order[first]]
    return directed, edges, inverse


def _boundary_edges(triangles: np.ndarray) -> np.ndarray:
    """Directed edges whose undirected pair occurs exactly once."""
    directed, _, inverse = _directed_edges(triangles)
    once = np.flatnonzero(np.bincount(inverse)[inverse] == 1)
    rows = np.column_stack([directed[once], once // 3])
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    return rows[order]


def edge_table(mesh: Mesh) -> EdgeTable:
    _, edges, inverse = _directed_edges(mesh.triangles)
    # a stable sort keeps each edge's directed copies in triangle order, so
    # the lower triangle index fills slot 0
    order = np.argsort(inverse, kind="stable")
    ids, owners = inverse[order], order // 3
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_tris[ids[first], 0] = owners[first]
    edge_tris[ids[~first], 1] = owners[~first]
    return EdgeTable(edges=edges, cell_edges=inverse.reshape(-1, 3),
                     edge_tris=edge_tris)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def triangle_areas(mesh: Mesh) -> np.ndarray:
    p = mesh.nodes[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def triangle_grad_lambda(mesh: Mesh) -> np.ndarray:
    """Barycentric gradients for every triangle, shape (n_triangles, 3, 2)."""
    p = mesh.nodes[mesh.triangles]
    areas = triangle_areas(mesh)
    out = np.empty((mesh.n_triangles, 3, 2))
    for k in range(3):
        pj = p[:, (k + 1) % 3]
        pk = p[:, (k + 2) % 3]
        out[:, k, 0] = pj[:, 1] - pk[:, 1]
        out[:, k, 1] = pk[:, 0] - pj[:, 0]
    out /= (2.0 * areas)[:, None, None]
    return out


def triangle_diameters(mesh: Mesh) -> np.ndarray:
    p = mesh.nodes[mesh.triangles]
    l01 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    l12 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
    l20 = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    return np.max(np.column_stack([l01, l12, l20]), axis=1)


def boundary_edge_geometry(mesh: Mesh):
    """Per boundary edge: length, outward unit normal, midpoint.

    Returns ``(lengths, normals, midpoints)`` arrays aligned with
    ``mesh.boundary_edges`` rows.
    """
    a = mesh.nodes[mesh.boundary_edges[:, 0]]
    b = mesh.nodes[mesh.boundary_edges[:, 1]]
    d = b - a
    lengths = np.linalg.norm(d, axis=1)
    normals = np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]
    midpoints = 0.5 * (a + b)
    return lengths, normals, midpoints
