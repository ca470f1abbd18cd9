"""Triangulations, and the structured one of the unit square.

A ``Mesh`` is any counterclockwise triangulation, given by its nodes and
triangles; its constructor derives everything else (the edge table, the
boundary edges and h).  ``unit_square_mesh`` is one generator of it: it
splits an n×n grid of cells into two triangles each along the lower-left to
upper-right diagonal.  Boundary edges keep the orientation of their owning
triangle, which puts the outward normal on the right-hand side of the
directed edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Triangulation from ``nodes`` and counterclockwise ``triangles``.

    The edges are the unique undirected ones, rows sorted, in lexicographic
    order.  ``cell_edges[t, k]`` is the edge id of local edge k of triangle t
    in the order (v0,v1), (v1,v2), (v2,v0).  ``edge_tris`` holds up to two
    adjacent triangles per edge, the lower index first (-1 when absent);
    interior edges have exactly two.  ``boundary_edges`` rows are
    ``(node_a, node_b, owner_triangle)`` with the edge directed
    counterclockwise around the domain, sorted by node.  ``h`` is the
    largest triangle diameter.
    """

    nodes: np.ndarray                                 # (n_nodes, 2)
    triangles: np.ndarray                             # (n_triangles, 3) int
    edges: np.ndarray = field(init=False)             # (n_edges, 2) int
    cell_edges: np.ndarray = field(init=False)        # (n_triangles, 3) int
    edge_tris: np.ndarray = field(init=False)         # (n_edges, 2) int
    boundary_edges: np.ndarray = field(init=False)    # (n_boundary, 3) int
    h: float = field(init=False)

    def __post_init__(self):
        """Reject a node index outside [0, N), N the node count, a node in
        no triangle (a dof in no cell) and a clockwise or degenerate
        triangle, then derive the edge fields from one stable argsort of
        the directed edges' integer keys ``lo N + hi``, whose order is the
        lexicographic one.  The sort keeps each edge's directed copies in
        triangle order, so the lower triangle index fills slot 0."""
        if self.triangles.min() < 0 or self.triangles.max() >= self.n_nodes:
            raise ValueError("a triangle names a node outside [0, n_nodes)")
        used = np.zeros(self.n_nodes, dtype=bool)
        used[self.triangles] = True
        if not used.all():
            raise ValueError("every node must belong to a triangle")
        if np.any(triangle_areas(self) <= 0.0):
            raise ValueError("every triangle must be counterclockwise")
        directed = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        lo, hi = directed.min(axis=1), directed.max(axis=1)
        keys = lo * self.n_nodes + hi
        order = np.argsort(keys, kind="stable")
        first = np.diff(keys[order], prepend=-1) != 0
        ids = np.cumsum(first) - 1
        inverse = np.empty_like(keys)
        inverse[order] = ids
        edge_tris = np.full((ids[-1] + 1, 2), -1, dtype=np.int64)
        edge_tris[ids[first], 0] = order[first] // 3
        edge_tris[ids[~first], 1] = order[~first] // 3
        lone = order[first][edge_tris[:, 1] < 0]      # directed, on the boundary
        rows = np.column_stack([directed[lone], lone // 3])
        for name, value in [
                ("edges", np.column_stack([lo, hi])[order[first]]),
                ("cell_edges", inverse.reshape(-1, 3)),
                ("edge_tris", edge_tris),
                ("boundary_edges", rows[np.lexsort((rows[:, 1], rows[:, 0]))]),
                ("h", float(triangle_diameters(self).max()))]:
            object.__setattr__(self, name, value)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

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
    a = (j * side + i).ravel()     # lower-left corner of cell (i, j)
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([a, a + 1, a + 1 + side])
    triangles[1::2] = np.column_stack([a, a + 1 + side, a + side])
    return Mesh(nodes, triangles)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _corner_areas(p: np.ndarray) -> np.ndarray:
    """Signed areas of triangles with (B, 3, 2) corner coordinates ``p``."""
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def triangle_areas(mesh: Mesh) -> np.ndarray:
    return _corner_areas(mesh.nodes[mesh.triangles])


def cell_geometry(mesh: Mesh, cells) -> tuple[np.ndarray, np.ndarray]:
    """Areas (B,) and barycentric gradients (B, 3, 2) of the triangles
    ``cells`` (a slice or an index array), from their corners alone."""
    p = mesh.nodes[mesh.triangles[cells]]
    areas = _corner_areas(p)
    out = np.empty((len(p), 3, 2))
    for k in range(3):
        pj = p[:, (k + 1) % 3]
        pk = p[:, (k + 2) % 3]
        out[:, k, 0] = pj[:, 1] - pk[:, 1]
        out[:, k, 1] = pk[:, 0] - pj[:, 0]
    out /= (2.0 * areas)[:, None, None]
    return areas, out


def triangle_grad_lambda(mesh: Mesh) -> np.ndarray:
    """Barycentric gradients for every triangle, shape (n_triangles, 3, 2)."""
    return cell_geometry(mesh, slice(None))[1]


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
