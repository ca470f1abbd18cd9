"""Finite element operator assembly on any ``Mesh``.

On affine triangles each volume form is a reference tensor per pair of
element kinds, contracted with a few coefficients per cell (Kirby, Knepley,
Logg and Scott, SIAM J. Sci. Comput. 27, 2005): no table of physical basis
gradients.  The reference tensor is a slice of ``fespace.moments``, the
exact means of the products of the element polynomials, so no volume form
takes a quadrature rule and an integral that is zero stays exactly zero.
The loads, whose integrands need not be polynomials, keep the 6-point
degree-4 rule.  Every boundary form is one 2-point
Gauss sum per boundary edge over a pair of the three ``edge_bases`` of a
P1 field (end-node hats, normal derivatives of the owner cell's hats, one
constant per edge), scattered by ``edge_form``, and every boundary load one
such sum against one basis (``edge_load``).  Every operator is a
``scipy.sparse.csr_array`` with int32 indices in canonical form (sorted
column indices, duplicate entries summed) that stores no exact zero:
contributions that cancel (right angles of the structured mesh zero some
stiffness couplings) are dropped, so a sparse factorization never treats
them as structural nonzeros.  Cell-weighted forms (the pressure-gradient
stabilizations) take per-cell weights through ``stiffness`` and
``gradient_load``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .fespace import (ELEMENTS, FeSpace, moments, quadrature,
                      quadrature_points, tabulate)
from .linalg import (Factor, NotPositiveDefinite, SingularMatrix,
                     check_pivots, column_scale, dense_lu)
from .mesh import (
    Mesh,
    boundary_edge_geometry,
    triangle_areas,
    triangle_grad_lambda,
)


def _contract(coefs: np.ndarray, tensors: np.ndarray) -> np.ndarray:
    """(T, nr, nc) local matrices ``sum_k coefs[:, k] tensors[k]`` from
    (T, K) per-cell coefficients and K reference tensors (K, nr, nc): K
    broadcast multiply-adds into one output through one reused buffer."""
    out = np.multiply.outer(coefs[:, 0], tensors[0])
    buf = np.empty_like(out) if len(tensors) > 1 else None
    for k in range(1, len(tensors)):
        out += np.multiply.outer(coefs[:, k], tensors[k], out=buf)
    return out


def _index_dtype(n_rows: int, n_cols: int, n_triplets: int) -> type:
    """The index type of an operator with ``n_triplets`` triplets:
    ``np.int32`` while every index and pointer of it and of its doubling
    by ``_expand_components`` (2 n_rows rows, column indices below
    2 n_cols, nnz at most 2 n_triplets) stays below int32's maximum, else
    ``np.int64``.  The doubling shifts int32 arrays by an int32 offset,
    which would wrap without a warning."""
    largest = 2 * max(n_rows, n_cols, n_triplets)
    return np.int32 if largest < np.iinfo(np.int32).max else np.int64


def _scatter(rows_cells: np.ndarray, cols_cells: np.ndarray,
             locals_: np.ndarray, n_rows: int, n_cols: int) -> sp.csr_array:
    """Accumulate per-cell local matrices (T, nr, nc) into a CSR matrix,
    summing the contributions of cells that share an (i, j) entry and
    dropping the sums that cancel to exact zeros.

    This is the one place that picks an operator's index type: the
    triplets are repeated from the cell tables in the type of
    ``_index_dtype``, int32 at every size the lab runs, and every product,
    slice and block of the operators keeps it, down to the CSC that
    ``sparse_lu`` hands SuperLU.  The sums do not depend on it: duplicates
    are added in input order."""
    t, nr, nc = locals_.shape
    dtype = _index_dtype(n_rows, n_cols, locals_.size)
    i = np.repeat(rows_cells.astype(dtype)[:, :, None], nc, axis=2)
    j = np.repeat(cols_cells.astype(dtype)[:, None, :], nr, axis=1)
    out = sp.coo_array((locals_.ravel(), (i.ravel(), j.ravel())),
                       shape=(n_rows, n_cols)).tocsr()
    out.eliminate_zeros()
    return out


def _expand_components(scalar: sp.csr_array, components: int) -> sp.csr_array:
    """diag(scalar, scalar) for two components, from the CSR arrays: the
    second block repeats ``data``, with ``indices`` shifted by the column
    count and ``indptr`` by the nnz."""
    if components == 1:
        return scalar
    (n_rows, n_cols), nnz = scalar.shape, scalar.nnz
    return sp.csr_array(
        (np.concatenate([scalar.data, scalar.data]),
         np.concatenate([scalar.indices, scalar.indices + n_cols]),
         np.concatenate([scalar.indptr, scalar.indptr[1:] + nnz])),
        shape=(2 * n_rows, 2 * n_cols))


def free_vector_block(form, space: FeSpace) -> sp.csr_array:
    """``form(space)[free][:, free]`` of a two-component ``space`` (free =
    ``space.free_dofs()``, component-major): ``form`` of the scalar space
    on its free dofs, doubled once."""
    scalar = replace(space, components=1)
    free = scalar.free_dofs()
    return _expand_components(form(scalar)[free][:, free], space.components)


# ---------------------------------------------------------------------------
# volume operators
# ---------------------------------------------------------------------------

def stiffness(space: FeSpace, cell_weights=None) -> sp.csr_array:
    """(grad u, grad v), block-diagonal over components for vector spaces:
    the exact means R[l, m] of dphi/dl dphi/dm (``moments``) against
    |T| w_T (G G^T)[l, m], G the cell's barycentric gradients."""
    mesh, nb = space.mesh, space.n_local
    ref = moments(space.kind, space.kind)[1:, 1:]
    scale = triangle_areas(mesh)
    if cell_weights is not None:
        scale = scale * np.asarray(cell_weights, dtype=float)
    g = triangle_grad_lambda(mesh)
    coefs = np.einsum("t,tld,tmd->tlm", scale, g, g)
    locals_ = _contract(coefs.reshape(-1, 9), ref.reshape(9, nb, nb))
    ns = space.n_scalar_dofs
    scalar = _scatter(space.scalar_cell_dofs, space.scalar_cell_dofs,
                      locals_, ns, ns)
    return _expand_components(scalar, space.components)


def cross_mass(row_space: FeSpace, col_space: FeSpace) -> sp.csr_array:
    """``(phi^col_j, phi^row_i)`` between two spaces on the same mesh."""
    if row_space.mesh is not col_space.mesh:
        raise ValueError("cross_mass needs both spaces on one mesh")
    if row_space.components != col_space.components:
        raise ValueError("cross_mass needs matching component counts")
    ref = moments(row_space.kind, col_space.kind)[0, 0]
    locals_ = _contract(triangle_areas(row_space.mesh)[:, None], ref[None])
    scalar = _scatter(row_space.scalar_cell_dofs, col_space.scalar_cell_dofs,
                      locals_, row_space.n_scalar_dofs,
                      col_space.n_scalar_dofs)
    return _expand_components(scalar, row_space.components)


def mass(space: FeSpace) -> sp.csr_array:
    """(u, v), block-diagonal over components for vector spaces."""
    return cross_mass(space, space)


def lumped_mass(space: FeSpace) -> np.ndarray:
    """Row sums of the consistent mass as a strictly positive diagonal."""
    diag = mass(space) @ np.ones(space.n_dofs)
    if np.any(diag <= 1e-12 * diag.max()):
        raise NotPositiveDefinite(
            f"lumped mass for {space.kind.value} has non-positive entries")
    return diag


def _value_gradient(values_space: FeSpace, grads_space: FeSpace,
                    sign: float) -> list:
    """``sign (phi_b, d psi_c / dx_k)`` local matrices for k = 0, 1, phi of
    ``values_space`` and psi of ``grads_space``: the exact means R[l] of
    phi dpsi/dl (``moments``) against sign |T| G[:, l, k]."""
    mesh = values_space.mesh
    ref = moments(values_space.kind, grads_space.kind)[0, 1:]
    coefs = (sign * triangle_areas(mesh))[:, None, None] \
        * triangle_grad_lambda(mesh)
    return [_contract(coefs[:, :, k], ref) for k in range(2)]


def divergence(v_space: FeSpace, p_space: FeSpace) -> sp.csr_array:
    """Constraint block ``B[q, v] = -(psi_q, div phi_v)``."""
    if v_space.components != 2 or p_space.components != 1:
        raise ValueError("divergence couples a vector velocity with a "
                         "scalar pressure")
    locals_ = np.concatenate(_value_gradient(p_space, v_space, -1.0), axis=2)
    return _scatter(p_space.scalar_cell_dofs, v_space.cell_dofs, locals_,
                    p_space.n_dofs, v_space.n_dofs)


def grad_coupling(v_space: FeSpace, p_space: FeSpace) -> sp.csr_array:
    """Vector-to-gradient coupling ``G[v, p] = (phi_v, grad psi_p)``."""
    if v_space.components != 2 or p_space.components != 1:
        raise ValueError("grad_coupling couples a vector space with a "
                         "scalar space")
    locals_ = np.concatenate(_value_gradient(v_space, p_space, 1.0), axis=1)
    return _scatter(v_space.cell_dofs, p_space.scalar_cell_dofs, locals_,
                    v_space.n_dofs, p_space.n_dofs)


def load_vector(space: FeSpace, func) -> np.ndarray:
    """Right-hand side ``(f, phi_i)`` for a callable ``func`` of positions,
    by the 6-point degree-4 rule.

    ``func`` receives an (..., 2) array of points and must return values of
    shape (...) for scalar spaces or (..., 2) for vector spaces.
    """
    rule = quadrature(4)
    mesh = space.mesh
    w = np.outer(triangle_areas(mesh), rule.weights)          # (T, nq)
    pts = quadrature_points(mesh, rule)
    fv = np.asarray(func(pts), dtype=float)
    v = tabulate(space.kind, rule.points)[0]
    out = np.zeros(space.n_dofs)
    if space.components == 1:
        if fv.shape != pts.shape[:2]:
            raise ValueError("scalar load callable returned a wrong shape")
        locals_ = np.einsum("tq,tq,qb->tb", w, fv, v)
        np.add.at(out, space.scalar_cell_dofs, locals_)
    else:
        fv = np.broadcast_to(fv, pts.shape)
        for c in range(2):
            locals_ = np.einsum("tq,tq,qb->tb", w, fv[..., c], v)
            np.add.at(out, space.scalar_cell_dofs + c * space.n_scalar_dofs,
                      locals_)
    return out


def gradient_load(space: FeSpace, func, cell_weights) -> np.ndarray:
    """Gradient-tested load ``sum_K w_K (f, grad psi_i)_K`` for scalar spaces.

    ``func`` must return vector values of shape (..., 2).
    """
    if space.components != 1:
        raise ValueError("gradient_load expects a scalar test space")
    rule = quadrature(4)
    mesh = space.mesh
    w = np.outer(triangle_areas(mesh) * cell_weights, rule.weights)
    pts = quadrature_points(mesh, rule)
    fv = np.broadcast_to(np.asarray(func(pts), dtype=float), pts.shape)
    fg = np.einsum("tqd,tld->tql", fv, triangle_grad_lambda(mesh))
    locals_ = np.einsum("tq,tql,qbl->tb", w, fg,
                        tabulate(space.kind, rule.points)[1])
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.scalar_cell_dofs, locals_)
    return out


# ---------------------------------------------------------------------------
# boundary forms
# ---------------------------------------------------------------------------

#: 2-point Gauss rule on [0, 1]
_EDGE_GAUSS_S = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_EDGE_GAUSS_W = np.array([0.5, 0.5])


class EdgeBasis(NamedTuple):
    """Functions on the boundary edges: per edge E their dofs (E, k), their
    values at E's two Gauss points (E, 2, k), and the number of dofs."""

    dofs: np.ndarray
    values: np.ndarray
    size: int


def edge_bases(mesh: Mesh) -> tuple[EdgeBasis, EdgeBasis, EdgeBasis]:
    """(hats, flux, constants) of a P1 field on the boundary edges: the two
    end-node hats, the constant normal derivatives of the owner triangle's
    three hats (``flux.values[e, g] @ u[flux.dofs[e]]`` is du/dn on edge e),
    and one constant per edge, numbered like ``mesh.boundary_edges``."""
    edges, (_, normals, _) = mesh.boundary_edges, boundary_edge_geometry(mesh)
    flux = np.einsum("ekd,ed->ek", triangle_grad_lambda(mesh)[edges[:, 2]],
                     normals)
    hats = np.stack([1.0 - _EDGE_GAUSS_S, _EDGE_GAUSS_S], axis=1)  # (2, 2)
    n = len(edges)
    return (EdgeBasis(edges[:, :2], np.broadcast_to(hats, (n, 2, 2)),
                      mesh.n_nodes),
            EdgeBasis(mesh.triangles[edges[:, 2]],
                      np.broadcast_to(flux[:, None, :], (n, 2, 3)),
                      mesh.n_nodes),
            EdgeBasis(np.arange(n)[:, None], np.ones((n, 2, 1)), n))


def edge_form(rows: EdgeBasis, cols: EdgeBasis, weights) -> sp.csr_array:
    """``sum_E w_E int_E r c ds`` over boundary edges, r of ``rows`` and c
    of ``cols``, from ``weights`` = |E| w_E."""
    locals_ = np.einsum("e,g,egr,egc->erc", weights, _EDGE_GAUSS_W,
                        rows.values, cols.values)
    return _scatter(rows.dofs, cols.dofs, locals_, rows.size, cols.size)


def edge_load(mesh: Mesh, rows: EdgeBasis, func, weights) -> np.ndarray:
    """``sum_E w_E int_E func r ds`` over boundary edges, r of ``rows``,
    from ``weights`` = |E| w_E and a scalar callable ``func`` of (E, 2, 2)
    Gauss points."""
    a = mesh.nodes[mesh.boundary_edges[:, 0]]
    b = mesh.nodes[mesh.boundary_edges[:, 1]]
    pts = a[:, None, :] + _EDGE_GAUSS_S[None, :, None] * (b - a)[:, None, :]
    out = np.zeros(rows.size)
    np.add.at(out, rows.dofs,
              np.einsum("e,g,eg,egr->er", weights, _EDGE_GAUSS_W,
                        np.asarray(func(pts), dtype=float), rows.values))
    return out


# ---------------------------------------------------------------------------
# saddle-point container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaddleSystem:
    """Two-field saddle system with optional stabilization and mean constraint.

    The assembled block form is::

        [ a            b^T        0 ] [u]   [f]
        [ b           -c          m ] [p] = [g]
        [ 0            m^T        0 ] [mu]  [0]

    with the mean row/column present when ``pressure_mass`` M is set:
    ``m = M 1``, the integral of each pressure basis function, since every
    pressure space here (P0, P1) is a partition of unity.  ``a`` is the
    eliminated block and must be nonsingular; for the Stokes and weak-bc
    systems it is the velocity block, on the free velocity dofs when the
    boundary is Dirichlet.  ``c`` need not be positive semidefinite: the
    locking systems put -lambda S_p or -A_X there.
    """

    a: sp.csr_array
    b: sp.csr_array
    c: sp.csr_array | None
    f: np.ndarray
    g: np.ndarray
    pressure_mass: sp.csr_array | None
    spaces: tuple | None = None      # (field space, pressure space or None)

    @property
    def n_u(self) -> int:
        return self.a.shape[0]

    @property
    def n_p(self) -> int:
        return self.b.shape[0]

    @property
    def n_total(self) -> int:
        extra = 0 if self.pressure_mass is None else 1
        return self.n_u + self.n_p + extra

    @property
    def mean_row(self) -> np.ndarray | None:
        """``m = M 1``, the row of the mean constraint (None without one)."""
        if self.pressure_mass is None:
            return None
        return self.pressure_mass @ np.ones(self.n_p)

    def full_matrix(self) -> np.ndarray:
        """The dense assembled matrix: a test oracle for ``solve_saddle``."""
        nu, np_ = self.n_u, self.n_p
        k = np.zeros((self.n_total, self.n_total))
        bd = self.b.toarray()
        k[:nu, :nu] = self.a.toarray()
        k[:nu, nu:nu + np_] = bd.T
        k[nu:nu + np_, :nu] = bd
        if self.c is not None:
            k[nu:nu + np_, nu:nu + np_] = -self.c.toarray()
        if self.pressure_mass is not None:
            k[nu:nu + np_, -1] = k[-1, nu:nu + np_] = self.mean_row
        return k

    def full_rhs(self) -> np.ndarray:
        rhs = np.concatenate([self.f, self.g])
        if self.pressure_mass is not None:
            rhs = np.append(rhs, 0.0)
        return rhs

    def relative_residual(self, x) -> float:
        """``||K x - rhs|| / (||K||_F ||x|| + ||rhs||)`` from the blocks, K
        never assembled: equal to the same quantity formed with the dense
        ``full_matrix()``."""
        n_u, n_p = self.n_u, self.n_p
        u, p, m = x[:n_u], x[n_u:n_u + n_p], self.mean_row
        r_p = self.b @ u - self.g
        parts = [self.a @ u + self.b.T @ p - self.f, r_p]
        entries = [self.a.data, self.b.data, self.b.data]
        if self.c is not None:
            r_p -= self.c @ p
            entries.append(self.c.data)
        if m is not None:
            r_p += x[-1] * m
            parts.append([m @ p])
            entries += [m, m]
        scale = (np.sqrt(sum(e @ e for e in entries)) * np.linalg.norm(x)
                 + np.linalg.norm(self.full_rhs()))
        residual = np.linalg.norm(np.concatenate(parts))
        return float(residual / scale) if scale > 0 else 0.0


#: b^T columns per SuperLU solve.  Seconds in ``schur_complement`` at 16 /
#: 32 / 64 columns (median of 5 CLI runs, one BLAS thread): ``infsup
#: --pair th --n 32`` 0.58 / 0.50 / 0.83, ``locking --method corrected
#: --w-mass consistent --n 48`` 3.97 / 4.39 / 3.82, ``weakbc --method bh
#: --n 64`` 0.060 / 0.066 / 0.071: 16 is at most 4% slower than 64, with a
#: quarter of its n_u × width workspace
SCHUR_BLOCK = 16

#: relative residual at which the pressure CG of ``solve_saddle_pcg`` stops
#: (absolute tolerance 0): printed errors match the dense route at n <= 64
CG_RTOL = 1e-12


def _diagonal_half(matrix: sp.csr_array) -> sp.csr_array | None:
    """K when the CSR ``matrix`` is exactly diag(K, K) (its bottom rows
    repeat the top rows with column indices shifted by n), else None."""
    n, odd = divmod(matrix.shape[0], 2)
    ptr, idx, val = matrix.indptr, matrix.indices, matrix.data
    half = ptr[n]
    if odd or not (np.array_equal(ptr[n:] - half, ptr[:n + 1])
            and np.array_equal(idx[:half] + n, idx[half:])
            and np.array_equal(val[:half], val[half:])):
        return None
    return sp.csr_array((val[:half], idx[:half], ptr[:n + 1]), shape=(n, n))


def _element_blocks(matrix: sp.csr_array) -> np.ndarray | None:
    """The (n/k, k, k) diagonal blocks of the canonical CSR ``matrix`` when
    it is exactly block-diagonal with full k×k blocks on the contiguous
    rows and columns ``k i ... k i + k - 1``, k (the entries of row 0) at
    most an element's largest local dof count, else None.  n k distinct
    entries, each in its row's block, can only fill every block, so the
    data array is the blocks in row-major order."""
    n, ptr, idx = matrix.shape[0], matrix.indptr, matrix.indices
    k = int(ptr[1])
    largest = max(len(element.basis) for element in ELEMENTS.values())
    if not (0 < k <= largest and matrix.nnz == n * k
            and matrix.has_canonical_format
            and np.array_equal(idx // k,
                               np.repeat(np.arange(n) // k, np.diff(ptr)))):
        return None
    return matrix.data.reshape(-1, k, k)


def sparse_lu(matrix: sp.csr_array, what: str) -> Factor:
    """The ``linalg.Factor`` of a matrix that must be nonsingular, else
    ``SingularMatrix`` naming ``what``; every route checks its pivots
    against ``PIVOT_RTOL`` times the largest column norm.

    * Empty (no free dof, as at n=1), or block-diagonal with full k×k
      blocks on contiguous dofs (k ≤ 6, an element-local field such as the
      discontinuous multiplier mass of ``locking``): ``element``, the exact
      inverse, element by element (static condensation), as a CSR of the
      same pattern, so ``solve`` is a sparse product.  The pivots come
      from one batched LU of the blocks (getrf in compiled code).
    * diag(K, K), as every Stokes velocity block and β_h's velocity norm
      are: ``two-block``, the SuperLU factor of K alone; a (2n,) or (2n, k)
      right-hand side is solved as one (n, 2k) block through a
      Fortran-order reshape, a view of a column-major right-hand side.
    * Otherwise: ``superlu``, with the same reshape, to (n, k).

    Every matrix factored here is a structurally symmetric FE operator, so
    SuperLU runs in its symmetric mode: minimum degree on
    ``matrix^T + matrix``, and a diagonal pivot is kept unless it is below
    1e-3 times the largest remaining entry of its column (Li, ACM TOMS 31,
    2005).
    Threshold 1 (partial pivoting) leaves the symmetric ordering and filled
    the condensed Schur factor of ``solve_saddle`` 35-150 fold.

    scipy.sparse.linalg is imported only for a SuperLU factor: runs that
    never need one do not load its extension modules.  Of matrix size, it
    allocates SuperLU's workspace and factor, no more, and keeps only the
    factor: the CSC copies of L and U that scipy builds and caches on the
    first ``SuperLU.L`` or ``.U`` access (the pivot read here; 68 MiB at
    TH n=128) are emptied right after the read, a short-lived cost of it.
    The operators carry int32 indices (``_scatter``), so SuperLU takes the
    ``np.intc`` index arrays of the CSC as they are, with no cast copy."""
    matrix = sp.csr_array(matrix)
    if not matrix.shape[0]:
        return Factor(lambda rhs: matrix @ rhs, "element", np.zeros(0), True)
    blocks = _element_blocks(matrix)
    if blocks is not None:
        rows, _, upper = scipy.linalg.lu(blocks, p_indices=True,
                                         check_finite=False)
        pivots = np.diagonal(upper, axis1=1, axis2=2)
        singular = np.flatnonzero(np.any(pivots == 0.0, axis=1))
        if singular.size:
            raise SingularMatrix(f"{what}: element block {singular[0]} is "
                                 f"exactly singular")
        check_pivots(pivots, column_scale(matrix))
        inv = sp.csr_array((np.linalg.inv(blocks).ravel(), matrix.indices,
                            matrix.indptr), shape=matrix.shape)
        return Factor(lambda rhs: inv @ rhs, "element", pivots.ravel(),
                      bool(np.all(rows == np.arange(blocks.shape[-1]))))
    from scipy.sparse.linalg import splu

    block = _diagonal_half(matrix)
    factored = matrix if block is None else block
    col_scale = column_scale(factored)
    try:
        lu = splu(factored.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=1e-3, options={"SymmetricMode": True})
    except RuntimeError as exc:          # SuperLU's text can name its sources
        raise SingularMatrix(f"{what}: exactly singular (SuperLU)") from exc
    pivots = np.tile(lu.U.diagonal(), 1 if block is None else 2)
    # the read made CSC copies of L and U that scipy caches on the factor;
    # solve never reads them, so their arrays go (resize frees nothing)
    empty = sp.csc_array(lu.shape)
    for copy in (lu.L, lu.U):
        copy.data, copy.indices, copy.indptr = (empty.data, empty.indices,
                                                empty.indptr)
    check_pivots(pivots, col_scale)

    def solve(rhs):
        rhs = np.asarray(rhs, dtype=float)
        x = lu.solve(rhs.reshape((lu.shape[0], -1), order="F"))
        return x.reshape(rhs.shape, order="F")

    return Factor(solve, "superlu" if block is None else "two-block", pivots,
                  bool(np.array_equal(lu.perm_r, lu.perm_c)))


def schur_complement(lu, b: sp.csr_array, c: sp.csr_array | None,
                     out: np.ndarray) -> np.ndarray:
    """Dense ``b a^{-1} b^T + c`` written into the leading n_p × n_p block
    of ``out`` (both callers pass a Fortran-order buffer), which it
    returns, SCHUR_BLOCK columns at a time: rows j:k of ``b`` densify
    column-major as the right-hand side (the layout SuperLU solves without
    a transposing copy), and columns j:k of ``c`` come from one CSC copy
    (workspace n_u × SCHUR_BLOCK).  This is the Schur matrix of a
    SuperLU-factored ``a``, which is dense; ``solve_saddle`` forms that of
    an element-block factor sparse instead."""
    n_p = b.shape[0]
    out = out[:n_p, :n_p]
    c = None if c is None else sp.csc_array(c)
    for j in range(0, n_p, SCHUR_BLOCK):
        k = min(j + SCHUR_BLOCK, n_p)
        out[:, j:k] = b @ lu.solve(b[j:k].T.toarray(order="F"))
        if c is not None:
            out[:, j:k] += c[:, j:k].toarray()
    return out


def solve_saddle(system: SaddleSystem) -> tuple[np.ndarray, float]:
    """Solve the block system by eliminating the block ``a`` and factoring
    its Schur complement.

    1. ``sparse_lu`` factors ``a``, which must be nonsingular: an
       element-local ``a`` (the discontinuous multiplier mass) is inverted
       exactly, block by block (route ``element``), any other by SuperLU.
    2. The Schur complement ``-(b a^{-1} b^T + c)`` is bordered by the
       mean row ``m = M 1`` and factored; its pivot test is the
       singularity verdict (the unstabilized equal-order pair fails there
       with a zero pivot).
       * Element-local ``a`` (static condensation): ``a^{-1}``, the
         element factor's solve of the identity, has the pattern of ``a``,
         so the Schur complement is a sparse FE operator from one sparse
         product, and ``sparse_lu`` factors it.
       * Otherwise it is dense: ``schur_complement`` writes it in
         SCHUR_BLOCK-column blocks (a dense n_u × SCHUR_BLOCK workspace)
         into one Fortran-order array, which ``linalg.dense_lu``
         LU-factors in place.  This route is also the oracle of the
         sparse one.
    3. ``u = a^{-1} (f - b^T p)``; with no rows in y, the first solve.

    This is the solver of the locking, Nitsche and Barbosa-Hughes
    systems, the ``p1p1-plain`` verdict, the oracle of
    ``solve_saddle_pcg`` and the oracle of the multiplier's pencil solve
    (``weakbc.solve_multiplier``).
    SuperLU never sees the indefinite (and, for the unstable pair,
    singular) full system: factoring that one can crash the process or
    return a huge solution without complaint.  Returns ``(x, residual_rel)``
    with ``x`` ordered like ``full_rhs()`` and ``residual_rel`` from
    ``relative_residual``; no dense N×N matrix is formed.
    """
    b, f, m, n_p = system.b, system.f, system.mean_row, system.n_p
    lu = sparse_lu(system.a, "velocity block")

    a_inv_f = lu.solve(f)
    rhs_p = system.g - b @ a_inv_f
    if m is not None:
        rhs_p = np.append(rhs_p, 0.0)
    n_y = len(rhs_p)
    if not n_y:
        y = rhs_p
    elif lu.route == "element":
        # sorted like a: the products sum in the order the digits came from
        a_inv = lu.solve(sp.eye_array(system.n_u, format="csr"))
        schur = b @ a_inv.sorted_indices() @ b.T
        schur = -(schur if system.c is None else schur + system.c)
        if m is not None:
            border = sp.csr_array(m[:, None])
            schur = sp.block_array([[schur, border], [border.T, None]],
                                   format="csr")
        y = sparse_lu(schur, "Schur complement").solve(rhs_p)
    else:
        schur = np.empty((n_y, n_y), order="F")
        schur_complement(lu, b, system.c, schur)
        schur[:n_p, :n_p] *= -1.0
        if m is not None:
            schur[:n_p, -1] = schur[-1, :n_p] = m
            schur[-1, -1] = 0.0
        y = dense_lu(schur).solve(rhs_p)
    u = lu.solve(f - b.T @ y[:n_p]) if n_y else a_inv_f
    x = np.concatenate([u, y])
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("non-finite solution from the block elimination")
    return x, system.relative_residual(x)


def solve_saddle_pcg(system: SaddleSystem) -> tuple[np.ndarray, float, int]:
    """Solve a mean-constrained system by CG on its pressure Schur
    complement, which must be symmetric with only the constants in its
    kernel.

    ``u = a^{-1} (f - b^T p)`` leaves ``(S + c) p = r + mu m`` with
    ``S = b a^{-1} b^T``, ``r = b a^{-1} f - g`` and, for solvability,
    ``mu = -(1^T r) / (1^T m)``.  ``cg`` applies ``S + c`` through the
    factor of ``a`` and runs to ``CG_RTOL``, preconditioned by ``M + c`` (M,
    the system's pressure mass with ``m = M 1``, when ``c`` is None) with
    ``(M + c)^{-1} r`` projected M-orthogonally off the constants
    (``c 1 = 0``).  ``S <= 2 M`` and the
    stabilized inf-sup condition ``S + c >= gamma M`` (gamma = beta_h^2 for
    a stable pair; Verfürth 1984) bound ``S + c`` between min(gamma, 1)/2
    and 2 times ``M + c``, so the iterations do not grow with n; against M
    alone, douglas-wang's c grows like 1/h and so did its iterations.  A CG
    that stops short raises ``LinAlgError``; on a singular ``S + c`` it
    would not, so ``solve_saddle`` stays the verdict and the oracle.
    Returns ``(x, residual_rel, iterations)``.
    """
    from scipy.sparse.linalg import LinearOperator, cg

    b, c, f, m = system.b, system.c, system.f, system.mean_row
    lu = sparse_lu(system.a, "velocity block")
    mass_lu = sparse_lu(system.pressure_mass if c is None
                        else system.pressure_mass + c, "pressure preconditioner")

    bt = b.T

    def schur(q):
        out = b @ lu.solve(bt @ q)
        return out if c is None else out + c @ q

    def precondition(r):
        z = mass_lu.solve(r)
        return z - (m @ z) / m.sum()

    r = b @ lu.solve(f) - system.g
    mu = -r.sum() / m.sum()
    iterations = []
    shape = (system.n_p,) * 2
    p, info = cg(LinearOperator(shape, matvec=schur, dtype=float),
                 r + mu * m, rtol=CG_RTOL, atol=0.0,
                 callback=iterations.append,
                 M=LinearOperator(shape, matvec=precondition, dtype=float))
    if info != 0:
        raise np.linalg.LinAlgError(
            f"pressure CG stopped after {len(iterations)} iterations "
            f"without reaching rtol {CG_RTOL:g} (info={info})")
    x = np.concatenate([lu.solve(f - b.T @ p), p, [mu]])
    return x, system.relative_residual(x), len(iterations)
