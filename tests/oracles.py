"""Test oracles: dense routes for the package's sparse, in-place, sliced
and closed-form ones, and the geometry of the dofs, which the package never
needs."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from infsup_lab.assembly import boundary_flux_flux, mass, stiffness
from infsup_lab.fespace import ElementKind, build_space
from infsup_lab.linalg import _lu_solve_overwrite
from infsup_lab.mesh import boundary_edge_geometry

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


def identity_schur_complement(lu, b, c) -> np.ndarray:
    """Dense ``b a^{-1} b^T + c`` from the operator q -> b a^{-1} b^T q + c q
    applied to 64 columns of the identity at a time, each densified from a
    sparse block: the route that ``assembly.schur_complement`` replaced."""
    n_p = b.shape[0]
    out = np.empty((n_p, n_p))
    for j in range(0, n_p, 64):
        width = min(64, n_p - j)
        q = sp.eye_array(n_p, width, k=-j, format="csc")
        block = b @ lu.solve((b.T @ q).toarray())
        out[:, j:j + width] = block if c is None else block + c @ q
    return out


def inverse_constant(mesh) -> float:
    """C_i with h_E ||dv/dn||_E^2 <= C_i^2 ||grad v||^2 on P1.

    Largest eigenvalue of the pencil (h_E-weighted boundary flux-flux,
    K + 1e-12 M), one dense generalized ``eigh``.  Constants
    contribute zero numerator, so no explicit deflation is needed.
    """
    space = build_space(ElementKind.P1, mesh)
    k = stiffness(space).toarray()
    m = mass(space).toarray()
    lengths, _, _ = boundary_edge_geometry(mesh)
    n_w = boundary_flux_flux(space, edge_weights=lengths).toarray()
    n = space.n_dofs
    lam = scipy.linalg.eigh(n_w, k + 1e-12 * m, eigvals_only=True,
                            subset_by_index=[n - 1, n - 1])
    return float(np.sqrt(max(lam[0], 0.0)))
