"""Test oracles: dense routes for the package's sparse, in-place, sliced,
closed-form and eigen ones, and the geometry of the dofs, which the package
never needs."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.special

from infsup_lab import infsup
from infsup_lab.assembly import mass, stiffness
from infsup_lab.fespace import (ElementKind, FeSpace, QuadratureRule,
                                build_space, fields_at_quadrature,
                                quadrature)
from infsup_lab.linalg import dense_lu
from infsup_lab.mesh import (boundary_edge_geometry, triangle_areas,
                             triangle_grad_lambda)

# barycentric node of each local basis function, in the order of
# ``shape_values``: vertices, then the centroid (the bubble) or the
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


# The basis of each element kind and its d/dlambda written out by hand, and
# the dof numbering of each kind by its own branch: the routes that the
# polynomial tables of ``fespace.ELEMENTS``, ``fespace.tabulate`` and the
# entity numbering of ``fespace.build_space`` replaced.

def shape_values(kind, points) -> np.ndarray:
    """Basis values at barycentric ``points``; shape (..., n_local)."""
    lam = np.asarray(points, dtype=float)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    if kind is ElementKind.P0:
        vals = [np.ones_like(l1)]
    elif kind in (ElementKind.P1, ElementKind.P1_DISC):
        vals = [l1, l2, l3]
    elif kind is ElementKind.P1_BUBBLE:
        vals = [l1, l2, l3, 27.0 * l1 * l2 * l3]
    elif kind is ElementKind.P2:
        vals = [l1 * (2 * l1 - 1), l2 * (2 * l2 - 1), l3 * (2 * l3 - 1),
                4 * l1 * l2, 4 * l2 * l3, 4 * l3 * l1]
    else:
        raise ValueError(f"unknown element kind {kind}")
    return np.stack(vals, axis=-1)


def shape_gradients_bary(kind, points) -> np.ndarray:
    """d(basis)/d(lambda) at barycentric ``points``; shape (..., n_local, 3)."""
    lam = np.asarray(points, dtype=float)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    zero = np.zeros_like(l1)
    one = np.ones_like(l1)
    if kind is ElementKind.P0:
        rows = [[zero, zero, zero]]
    elif kind in (ElementKind.P1, ElementKind.P1_DISC):
        rows = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    elif kind is ElementKind.P1_BUBBLE:
        rows = [[one, zero, zero], [zero, one, zero], [zero, zero, one],
                [27 * l2 * l3, 27 * l1 * l3, 27 * l1 * l2]]
    elif kind is ElementKind.P2:
        rows = [[4 * l1 - 1, zero, zero],
                [zero, 4 * l2 - 1, zero],
                [zero, zero, 4 * l3 - 1],
                [4 * l2, 4 * l1, zero],
                [zero, 4 * l3, 4 * l2],
                [4 * l3, zero, 4 * l1]]
    else:
        raise ValueError(f"unknown element kind {kind}")
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def branch_build_space(kind, mesh, components=1) -> FeSpace:
    """``fespace.build_space`` with one branch per element kind."""
    n_nodes = mesh.n_nodes
    n_tris = mesh.n_triangles
    boundary_nodes = np.unique(mesh.boundary_edges[:, :2])
    if kind is ElementKind.P0:
        cell = np.arange(n_tris, dtype=np.int64)[:, None]
        bdofs = np.zeros(0, dtype=np.int64)
        n_scalar = n_tris
    elif kind is ElementKind.P1:
        cell = mesh.triangles.copy()
        bdofs = boundary_nodes
        n_scalar = n_nodes
    elif kind is ElementKind.P1_DISC:
        cell = np.arange(3 * n_tris, dtype=np.int64).reshape(n_tris, 3)
        bdofs = np.zeros(0, dtype=np.int64)       # purely L2-conforming
        n_scalar = 3 * n_tris
    elif kind is ElementKind.P1_BUBBLE:
        bubble = n_nodes + np.arange(n_tris, dtype=np.int64)
        cell = np.column_stack([mesh.triangles, bubble])
        bdofs = boundary_nodes           # the bubble vanishes on all edges
        n_scalar = n_nodes + n_tris
    elif kind is ElementKind.P2:
        cell = np.column_stack([mesh.triangles, n_nodes + mesh.cell_edges])
        boundary_eids = np.flatnonzero(~mesh.interior_mask())
        bdofs = np.concatenate([boundary_nodes, n_nodes + boundary_eids])
        n_scalar = n_nodes + mesh.n_edges
    else:
        raise ValueError(f"unknown element kind {kind}")
    return FeSpace(kind=kind, mesh=mesh, components=components,
                   n_scalar_dofs=n_scalar, scalar_cell_dofs=cell,
                   scalar_boundary_dofs=np.sort(bdofs))


def lu_solve(a, b) -> np.ndarray:
    """Dense ``a x = b`` by the package's one dense LU, on a copy of ``a``;
    ``SingularMatrix`` under its pivot contract."""
    return dense_lu(np.array(a, dtype=float, order="F")).solve(
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


def table_fields_at_quadrature(space, coeffs, rule):
    """``fespace.fields_at_quadrature`` from a (T, nq, n_local, 2) table of
    physical basis gradients, contracted with each cell's coefficients: the
    route that the coefficients-first contraction replaced."""
    mesh = space.mesh
    points = np.einsum("qk,tkd->tqd", rule.points, mesh.nodes[mesh.triangles])
    grads = np.einsum("qbl,tld->tqbd",
                      shape_gradients_bary(space.kind, rule.points),
                      triangle_grad_lambda(mesh))
    local = np.asarray(coeffs, dtype=float)[space.cell_dofs].reshape(
        mesh.n_triangles, space.components, space.n_local)
    values = np.einsum("qb,tcb->tqc", shape_values(space.kind, rule.points),
                       local)
    return points, values, np.einsum("tqbd,tcb->tqcd", grads, local)


def whole_mesh_field_errors(space, coeffs, exact, exact_grad):
    """``fespace.field_errors`` in one pass over all cells: the route that
    the quadrature over blocks of cells replaced."""
    rule = quadrature(6)
    w = np.outer(triangle_areas(space.mesh), rule.weights)   # (T, nq)
    pts, dv, dg = fields_at_quadrature(space, coeffs, rule, slice(None))
    dv -= np.reshape(exact(pts), dv.shape)
    l2 = float(np.sqrt(np.einsum("tq,tqc->", w, np.square(dv, out=dv))))
    dg -= np.reshape(exact_grad(pts), dg.shape)
    return l2, float(np.sqrt(np.einsum("tq,tqcd->", w, np.square(dg, out=dg))))


def unique_row_edges(triangles):
    """``directed_edges`` by ``np.unique(axis=0)`` of the sorted rows: the
    route that the integer edge keys replaced."""
    directed = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    edges, inverse = np.unique(np.sort(directed, axis=1), axis=0,
                               return_inverse=True)
    return directed, edges, inverse.ravel()


# The edge table and the boundary edges by separate passes over the directed
# edges: the route that the one ``Mesh`` constructor replaced.

def directed_edges(triangles: np.ndarray):
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


def boundary_edges(triangles: np.ndarray) -> np.ndarray:
    """Directed edges whose undirected pair occurs exactly once."""
    directed, _, inverse = directed_edges(triangles)
    once = np.flatnonzero(np.bincount(inverse)[inverse] == 1)
    rows = np.column_stack([directed[once], once // 3])
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    return rows[order]


def edge_table(triangles: np.ndarray):
    """``(edges, cell_edges, edge_tris)`` of the triangles."""
    _, edges, inverse = directed_edges(triangles)
    # a stable sort keeps each edge's directed copies in triangle order, so
    # the lower triangle index fills slot 0
    order = np.argsort(inverse, kind="stable")
    ids, owners = inverse[order], order // 3
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    edge_tris = np.full((len(edges), 2), -1, dtype=np.int64)
    edge_tris[ids[first], 0] = owners[first]
    edge_tris[ids[~first], 1] = owners[~first]
    return edges, inverse.reshape(-1, 3), edge_tris


def int64_scatter(rows_cells, cols_cells, locals_, n_rows, n_cols):
    """``assembly._scatter`` with triplets in the int64 of the cell tables,
    whose CSR keeps int64 ``indices`` and ``indptr``: the route that the
    int32 triplets replaced."""
    t, nr, nc = locals_.shape
    i = np.repeat(rows_cells[:, :, None], nc, axis=2)
    j = np.repeat(cols_cells[:, None, :], nr, axis=1)
    out = sp.coo_array((locals_.ravel(), (i.ravel(), j.ravel())),
                       shape=(n_rows, n_cols)).tocsr()
    out.eliminate_zeros()
    return out


def stroud_rule(n=4) -> QuadratureRule:
    """The Stroud conical-product rule of n x n points on the reference
    triangle, exact to degree 2n - 1: Gauss-Jacobi (weight 1 - u) in
    l2 = u and Gauss-Legendre in l3 = (1 - u) v, with points and weights
    to full precision, where the stocked rules of ``fespace`` are tables of
    15 digits."""
    x, wx = scipy.special.roots_jacobi(n, 1.0, 0.0)     # weight (1 - x)
    y, wy = np.polynomial.legendre.leggauss(n)
    u, v = np.meshgrid(0.5 * (1.0 + x), 0.5 * (1.0 + y), indexing="ij")
    l2, l3 = u.ravel(), ((1.0 - u) * v).ravel()
    # dA = (1 - u) du dv = (1 - x) dx dy / 8 on an area of 1/2
    weights = 0.25 * np.outer(wx, wy).ravel()
    return QuadratureRule(2 * n - 1, np.column_stack([1.0 - l2 - l3, l2, l3]),
                          weights)


# The volume forms from (T, nq) physical quadrature weights and a
# (T, nq, n_local, 2) table of physical basis gradients, each scalar block
# replicated over components by ``sp.block_diag``: the kernels that the
# reference tensors of ``assembly`` replaced, run on any rule (the tests
# give them ``stroud_rule()``).

def _table_weights(mesh, rule, cell_weights=None):
    w = np.outer(triangle_areas(mesh), rule.weights)
    if cell_weights is not None:
        w = w * np.asarray(cell_weights, dtype=float)[:, None]
    return w


def _table_gradients(space, rule):
    return np.einsum("qbl,tld->tqbd",
                     shape_gradients_bary(space.kind, rule.points),
                     triangle_grad_lambda(space.mesh))


def _table_components(scalar, components):
    return sp.csr_array(sp.block_diag([scalar] * components, format="csr"))


def table_stiffness(space, rule, cell_weights=None):
    w = _table_weights(space.mesh, rule, cell_weights)
    g = _table_gradients(space, rule)
    locals_ = np.einsum("tq,tqbd,tqcd->tbc", w, g, g)
    ns = space.n_scalar_dofs
    return _table_components(
        int64_scatter(space.scalar_cell_dofs, space.scalar_cell_dofs,
                      locals_, ns, ns),
        space.components)


def table_cross_mass(row_space, col_space, rule):
    w = _table_weights(row_space.mesh, rule)
    locals_ = np.einsum("tq,qb,qc->tbc", w,
                        shape_values(row_space.kind, rule.points),
                        shape_values(col_space.kind, rule.points))
    return _table_components(
        int64_scatter(row_space.scalar_cell_dofs, col_space.scalar_cell_dofs,
                      locals_, row_space.n_scalar_dofs,
                      col_space.n_scalar_dofs),
        row_space.components)


def table_divergence(v_space, p_space, rule):
    w = _table_weights(v_space.mesh, rule)
    pv = shape_values(p_space.kind, rule.points)
    gv = _table_gradients(v_space, rule)
    parts = []
    for c in range(2):
        locals_ = -np.einsum("tq,qb,tqv->tbv", w, pv, gv[..., c])
        cols = v_space.scalar_cell_dofs + c * v_space.n_scalar_dofs
        parts.append(int64_scatter(p_space.scalar_cell_dofs, cols, locals_,
                                   p_space.n_dofs, v_space.n_dofs))
    return parts[0] + parts[1]


def table_grad_coupling(v_space, p_space, rule):
    w = _table_weights(v_space.mesh, rule)
    vv = shape_values(v_space.kind, rule.points)
    gp = _table_gradients(p_space, rule)
    parts = []
    for c in range(2):
        locals_ = np.einsum("tq,qb,tqp->tbp", w, vv, gp[..., c])
        rows = v_space.scalar_cell_dofs + c * v_space.n_scalar_dofs
        parts.append(int64_scatter(rows, p_space.scalar_cell_dofs, locals_,
                                   v_space.n_dofs, p_space.n_dofs))
    return parts[0] + parts[1]


# The boundary operators and loads of scalar P1 spaces integrated by hand
# per boundary edge, each with its own edge weights w_E: the closed forms
# that ``assembly.edge_form`` and ``assembly.edge_load`` replaced.

_EDGE_GAUSS_S = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_EDGE_GAUSS_W = np.array([0.5, 0.5])


def _edge_weights(space, edge_weights=None) -> np.ndarray:
    """``|E| w_E`` per boundary edge (``w_E = 1`` by default); checks that
    ``space`` is scalar P1."""
    if space.kind is not ElementKind.P1 or space.components != 1:
        raise ValueError("boundary operators are implemented for scalar P1 "
                         "spaces only")
    lengths, _, _ = boundary_edge_geometry(space.mesh)
    return lengths if edge_weights is None else lengths * np.asarray(edge_weights)


def boundary_hat_flux(mesh) -> tuple:
    """(flux, tri_nodes), both (E, 3): per boundary edge, the constant normal
    derivative of each hat function of the edge's owner triangle, and that
    triangle's nodes."""
    _, normals, _ = boundary_edge_geometry(mesh)
    owners = mesh.boundary_edges[:, 2]
    flux = np.einsum("ekd,ed->ek", triangle_grad_lambda(mesh)[owners], normals)
    return flux, mesh.triangles[owners]


def _edge_gauss_values(mesh, func) -> np.ndarray:
    """(E, 2) values of ``func`` at the Gauss points of each boundary edge."""
    a = mesh.nodes[mesh.boundary_edges[:, 0]]
    b = mesh.nodes[mesh.boundary_edges[:, 1]]
    pts = a[:, None, :] + _EDGE_GAUSS_S[None, :, None] * (b - a)[:, None, :]
    return np.asarray(func(pts), dtype=float)


def boundary_edge_integrals(mesh, func) -> np.ndarray:
    """``int_E func ds`` per boundary edge (2-point Gauss)."""
    lengths, _, _ = boundary_edge_geometry(mesh)
    return np.einsum("e,eg,g->e", lengths, _edge_gauss_values(mesh, func),
                     _EDGE_GAUSS_W)


def boundary_mass(space, edge_weights=None):
    """``sum_E w_E int_E u v`` over boundary edges, full dof indexing."""
    w = _edge_weights(space, edge_weights)
    edges = space.mesh.boundary_edges
    local = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    n = space.n_dofs
    return int64_scatter(edges[:, :2], edges[:, :2],
                         w[:, None, None] * local, n, n)


def boundary_normal_flux(space, edge_weights=None):
    """``sum_E w_E int_E (du/dn) v`` -- test function on trace rows."""
    w = _edge_weights(space, edge_weights)
    flux, tri_nodes = boundary_hat_flux(space.mesh)
    # int_E phi_i = |E|/2 for both endpoint hats; du/dn is constant
    locals_ = np.broadcast_to(0.5 * w[:, None, None] * flux[:, None, :],
                              (len(w), 2, 3))
    n = space.n_dofs
    return int64_scatter(space.mesh.boundary_edges[:, :2], tri_nodes,
                         locals_, n, n)


def boundary_flux_flux(space, edge_weights=None):
    """``sum_E w_E int_E (du/dn)(dv/dn)`` over boundary edges."""
    w = _edge_weights(space, edge_weights)
    flux, tri_nodes = boundary_hat_flux(space.mesh)
    locals_ = w[:, None, None] * flux[:, :, None] * flux[:, None, :]
    n = space.n_dofs
    return int64_scatter(tri_nodes, tri_nodes, locals_, n, n)


def boundary_load(space, func, edge_weights=None, flux_test=False):
    """``sum_E w_E int_E d v`` (or ``d dv/dn`` with ``flux_test``)."""
    w = _edge_weights(space, edge_weights)
    dv = _edge_gauss_values(space.mesh, func)                 # (E, 2)
    out = np.zeros(space.n_dofs)
    if flux_test:
        flux, tri_nodes = boundary_hat_flux(space.mesh)
        edge_integrals = np.einsum("e,eg,g->e", w, dv, _EDGE_GAUSS_W)
        np.add.at(out, tri_nodes, edge_integrals[:, None] * flux)
    else:
        shape = np.stack([1.0 - _EDGE_GAUSS_S, _EDGE_GAUSS_S], axis=1)  # (2, 2)
        locals_ = np.einsum("e,eg,g,gk->ek", w, dv, _EDGE_GAUSS_W, shape)
        np.add.at(out, space.mesh.boundary_edges[:, :2], locals_)
    return out


def edge_trace_ops(space, edge_weights=None):
    """(t0, c0, d0): edge-indexed ``sum_E w_E int_E mu_E v``, ``sum_E w_E
    int_E mu_E dv/dn`` and the diagonal ``sum_E w_E int_E mu_E mu_F`` of one
    constant mu_E per edge, each edge scattered as a one-row cell (with
    w_E = 1, |E|: the trace and flux operators of a P0 multiplier)."""
    w = _edge_weights(space, edge_weights)
    flux, tri_nodes = boundary_hat_flux(space.mesh)
    edges = np.arange(len(w))[:, None]
    t0 = int64_scatter(edges, space.mesh.boundary_edges[:, :2],
                       np.repeat(w[:, None, None] / 2.0, 2, axis=2),
                       len(w), space.n_dofs)
    c0 = int64_scatter(edges, tri_nodes, (w[:, None] * flux)[:, None, :],
                       len(w), space.n_dofs)
    return t0, c0, sp.diags_array(w, format="csr")


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


def dense_pencil(b, x, m):
    """Eigenvalues (descending) and M-orthonormal eigenvectors of the pencil
    (B X^{-1} B^T, M), with S formed from a dense solve with X and one
    generalized ``eigh`` on copies: the oracle of ``infsup_weighted``."""
    b = sp.csr_array(b).toarray()
    s = b @ np.linalg.solve(sp.csr_array(x).toarray(), b.T)
    lam, q = scipy.linalg.eigh(s, sp.csr_array(m).toarray())
    return lam[::-1], q[:, ::-1]


def eigh_pencil(s, m_norm, n_u):
    """The route ``infsup.pencil`` took before its tridiagonal reduction,
    kept as its oracle: one generalized ``eigh`` (LAPACK ``dsygvd``) of
    copies of S and the dense M, every eigenvector formed.  Returns the
    report, with the worst mode under ``infsup._signed``'s sign rule, and
    the eigenpairs (lambda, Q), descending, Q M-orthonormal."""
    m = sp.csr_array(m_norm, dtype=float)
    lam, q = scipy.linalg.eigh(s, m.toarray())
    lam, q = lam[::-1], q[:, ::-1]
    n_p = len(lam)
    rank = int(np.count_nonzero(lam > infsup.RANK_RTOL * lam[0]))
    worst = infsup._signed(q[:, rank - 1]) if rank else np.zeros(n_p)
    report = infsup.InfSupReport(
        beta=float(np.sqrt(lam[rank - 1])) if rank else 0.0,
        sigma=np.sqrt(np.maximum(lam[:min(n_p, n_u)], 0.0)),
        numerical_rank=rank, kernel_dim_pressure=n_p - rank,
        worst_pressure_mode=worst,
        constant_pressure_angle=infsup._constant_pressure_angle(q[:, rank:],
                                                                m))
    return report, lam, q


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


@dataclass(frozen=True)
class SvdResult:
    """Full singular value decomposition ``a = u @ diag_{m,n}(sigma) @ v.T``."""

    u: np.ndarray            # (m, m) orthogonal
    sigma: np.ndarray        # (min(m, n),) non-negative, descending
    v: np.ndarray            # (n, n) orthogonal

    def sigma_matrix(self) -> np.ndarray:
        """The m×n diagonal extension of ``sigma``."""
        m, n = self.u.shape[0], self.v.shape[0]
        s = np.zeros((m, n))
        k = len(self.sigma)
        s[:k, :k] = np.diag(self.sigma)
        return s

    def reconstruct(self) -> np.ndarray:
        return self.u @ self.sigma_matrix() @ self.v.T


def svd(a) -> SvdResult:
    """Singular value decomposition with full U and V by LAPACK ``dgejsv``:
    the Jacobi oracle of the β_h that ``infsup`` takes from its
    pressure-sized eigenproblem.

    ``dgejsv`` is the preconditioned one-sided Jacobi SVD of Drmač and
    Veselić (SIAM J. Matrix Anal. Appl. 29, 2008).  It runs with
    ``JOBA='C'``: the relative error of every singular value is bounded by
    O(eps) times the condition of ``a`` with its columns scaled to unit
    norm, whatever that column scaling was, and no value is truncated.
    (The wrapper's default ``'A'`` sets every value below n·eps·‖a‖ to
    exactly zero, which would erase the small constants under study.)
    Raises ``numpy.linalg.LinAlgError`` when LAPACK reports a failure.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if min(m, n) == 0:
        return SvdResult(u=np.eye(m), sigma=np.zeros(0), v=np.eye(n))

    transposed = m < n                           # dgejsv needs rows >= cols
    # joba='C', jobu='F' (full U), jobv='V', jobr='R', jobt='N', jobp='N'
    sva, u_jsv, v_jsv, work, _, info = scipy.linalg.lapack.dgejsv(
        a.T if transposed else a,
        joba=0, jobu=1, jobv=0, jobr=1, jobt=0, jobp=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgejsv failed (info={info})")
    sigma = (work[0] / work[1]) * sva            # sva is scaled against overflow
    u, v = (v_jsv, u_jsv) if transposed else (u_jsv, v_jsv)
    return SvdResult(u=u, sigma=sigma, v=v)
