"""Test oracles: dense routes for the package's sparse and in-place ones,
and the geometry of the dofs, which the package never needs."""

import numpy as np

from infsup_lab.fespace import ElementKind
from infsup_lab.linalg import _lu_solve_overwrite

# barycentric node of each local basis function, in the order of
# ``fespace.shape_values``: vertices, then the centroid (the bubble) or the
# midpoints of edges (0, 1), (1, 2), (2, 0) (P2)
_VERTICES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
_LOCAL_NODES = {
    ElementKind.P0: [(1 / 3, 1 / 3, 1 / 3)],
    ElementKind.P1: _VERTICES,
    ElementKind.P1_DISC: _VERTICES,
    ElementKind.P1_BUBBLE: _VERTICES + [(1 / 3, 1 / 3, 1 / 3)],
    ElementKind.P2: _VERTICES + [(0.5, 0.5, 0.0), (0.0, 0.5, 0.5),
                                 (0.5, 0.0, 0.5)],
}


def lu_solve(a, b) -> np.ndarray:
    """Dense ``a x = b`` by the package's one dense LU, on a copy of ``a``;
    ``SingularMatrix`` under its pivot contract."""
    return _lu_solve_overwrite(np.array(a, dtype=float, order="F"),
                               np.asarray(b, dtype=float))


def column_scale(m) -> float:
    """The largest column 2-norm of the scipy sparse ``m`` by scipy's sparse
    norm, which builds |m| and |m|² in full: the route that
    ``linalg.column_scale`` replaced."""
    from scipy.sparse.linalg import norm
    return float(norm(m.tocsc(), axis=0).max())


def dof_coords(space) -> np.ndarray:
    """(n_scalar_dofs, 2) points at which the scalar dofs of ``space``
    interpolate: each cell's local nodes mapped through its corners and
    scattered by ``scalar_cell_dofs``."""
    mesh = space.mesh
    coords = np.empty((space.n_scalar_dofs, 2))
    coords[space.scalar_cell_dofs] = np.einsum(
        "bk,tkd->tbd", np.array(_LOCAL_NODES[space.kind]),
        mesh.nodes[mesh.triangles])
    return coords
