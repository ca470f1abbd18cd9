"""Dense and sparse linear algebra kernels used throughout the package.

Dense matrices are plain 2-D float64 ``numpy.ndarray`` objects (row-major).
The two spectral routines that the whole inf-sup machinery rests on are
LAPACK routes with this module's contracts on top: ``svd`` calls the
preconditioned one-sided Jacobi SVD ``dgejsv`` in its ``JOBA='C'`` mode, so
small singular values keep high relative accuracy instead of being rounded
to zero against the largest one, and ``sym_eig`` calls ``eigh``, an
independent tridiagonal route for cross-checks.  Factor-based solves
(``lu_solve``, ``cholesky``) likewise delegate the factorization to LAPACK
via scipy/numpy but keep the error contracts of this module; ``check_pivots``
is the pivot contract itself, shared with the sparse velocity-block factor
of ``assembly.solve_saddle``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SingularMatrix(ValueError):
    """A pivot fell below the singularity threshold during factorization."""


class NotPositiveDefinite(ValueError):
    """Cholesky hit a non-positive diagonal pivot."""


class IndexOutOfRange(IndexError):
    """Triplet index outside the declared matrix shape."""


#: relative pivot threshold for lu_solve (× max initial column norm)
PIVOT_RTOL = 1e-14

#: relative symmetry tolerance required before cholesky / sym_eig
SYMMETRY_RTOL = 1e-12


def _as_dense(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def _require_symmetric(a: np.ndarray, what: str) -> None:
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return
    if np.linalg.norm(a - a.T) > SYMMETRY_RTOL * scale:
        raise ValueError(f"{what} requires a symmetric matrix "
                         f"(relative asymmetry > {SYMMETRY_RTOL:g})")


# ---------------------------------------------------------------------------
# factor-based solves
# ---------------------------------------------------------------------------

def check_pivots(pivots, col_scale: float) -> None:
    """Raise ``SingularMatrix`` unless every pivot magnitude exceeds
    ``PIVOT_RTOL`` times ``col_scale``, the largest column norm of the
    factored matrix."""
    pivots = np.abs(np.asarray(pivots, dtype=float))
    threshold = PIVOT_RTOL * col_scale
    if not np.all(np.isfinite(pivots)) or np.min(pivots) <= threshold:
        raise SingularMatrix(f"pivot {np.min(pivots):.3e} below threshold "
                             f"{threshold:.3e}")


def lu_solve(a, b) -> np.ndarray:
    """Solve ``a x = b`` by LU with partial pivoting.

    Raises ``SingularMatrix`` when any pivot magnitude drops below
    ``PIVOT_RTOL`` times the largest initial column norm.  ``b`` may be a
    vector or a matrix of right-hand sides.
    """
    a = _as_dense(a)
    n, m = a.shape
    if n != m:
        raise ValueError("lu_solve needs a square matrix")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != n:
        raise ValueError("right-hand side length mismatch")
    if n == 0:
        return b.copy()

    col_scale = float(np.max(np.linalg.norm(a, axis=0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # we do our own pivot check below
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    if not np.all(np.isfinite(lu)):
        raise SingularMatrix("non-finite entries in the LU factors")
    check_pivots(np.diag(lu), col_scale)
    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("non-finite solution from LU back substitution")
    return x


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with ``L Lᵀ = a`` for symmetric positive definite a."""
    a = _as_dense(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("cholesky needs a square matrix")
    _require_symmetric(a, "cholesky")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


# ---------------------------------------------------------------------------
# spectral routines (LAPACK dgejsv / eigh)
# ---------------------------------------------------------------------------

#: relative rank tolerance factor: rank_tol = RANK_RTOL * max(m, n)
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SvdResult:
    """Full singular value decomposition ``a = u @ diag_{m,n}(sigma) @ v.T``."""

    u: np.ndarray            # (m, m) orthogonal
    sigma: np.ndarray        # (min(m, n),) non-negative, descending
    v: np.ndarray            # (n, n) orthogonal
    rank_tol: float
    numerical_rank: int

    def sigma_matrix(self) -> np.ndarray:
        """The m×n diagonal extension of ``sigma``."""
        m, n = self.u.shape[0], self.v.shape[0]
        s = np.zeros((m, n))
        k = len(self.sigma)
        s[:k, :k] = np.diag(self.sigma)
        return s

    def reconstruct(self) -> np.ndarray:
        return self.u @ self.sigma_matrix() @ self.v.T


def svd(a, rank_tol: float | None = None) -> SvdResult:
    """Singular value decomposition with full U and V by LAPACK ``dgejsv``.

    ``dgejsv`` is the preconditioned one-sided Jacobi SVD of Drmač and
    Veselić (SIAM J. Matrix Anal. Appl. 29, 2008).  It runs with
    ``JOBA='C'``: the relative error of every singular value is bounded by
    O(eps) times the condition of ``a`` with its columns scaled to unit
    norm, whatever that column scaling was, and no value is truncated.
    (The wrapper's default ``'A'`` sets every value below n·eps·‖a‖ to
    exactly zero, which would erase the small constants under study.)

    ``rank_tol`` is the relative tolerance defining the numerical rank
    (count of sigma[i] > rank_tol * sigma[0]); the default is
    ``RANK_RTOL * max(m, n)``.  Raises ``numpy.linalg.LinAlgError`` when
    LAPACK reports a failure.
    """
    a = _as_dense(a)
    m, n = a.shape
    if rank_tol is None:
        rank_tol = RANK_RTOL * max(m, n, 1)
    if min(m, n) == 0:
        return SvdResult(u=np.eye(m), sigma=np.zeros(0), v=np.eye(n),
                         rank_tol=rank_tol, numerical_rank=0)

    transposed = m < n                           # dgejsv needs rows >= cols
    # joba='C', jobu='F' (full U), jobv='V', jobr='R', jobt='N', jobp='N'
    sva, u_jsv, v_jsv, work, _, info = scipy.linalg.lapack.dgejsv(
        a.T if transposed else a,
        joba=0, jobu=1, jobv=0, jobr=1, jobt=0, jobp=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgejsv failed (info={info})")
    sigma = (work[0] / work[1]) * sva            # sva is scaled against overflow
    u, v = (v_jsv, u_jsv) if transposed else (u_jsv, v_jsv)

    rank = int(np.count_nonzero(sigma > rank_tol * sigma[0]))
    return SvdResult(u=u, sigma=sigma, v=v, rank_tol=rank_tol,
                     numerical_rank=rank)


def sym_eig(a):
    """Eigen-decomposition of a symmetric matrix by LAPACK (``eigh``).

    Returns ``(eigenvalues descending, eigenvector matrix Q)`` with
    ``a @ Q = Q @ diag(eigenvalues)``.  ``eigh`` is a tridiagonal
    reduction, a LAPACK route independent of ``svd``'s Jacobi iteration,
    so the two can cross-check each other.
    """
    a = _as_dense(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("sym_eig needs a square matrix")
    _require_symmetric(a, "sym_eig")
    lam, q = scipy.linalg.eigh(a, check_finite=False)
    return lam[::-1], q[:, ::-1]


# ---------------------------------------------------------------------------
# CSR sparse matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse row matrix (sorted column indices, no duplicates)."""

    rows: int
    cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.values)

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.cols:
            raise ValueError("matvec length mismatch")
        counts = np.diff(self.row_ptr)
        row_of = np.repeat(np.arange(self.rows), counts)
        return np.bincount(row_of, weights=self.values * x[self.col_idx],
                           minlength=self.rows)

    def rmatvec(self, y) -> np.ndarray:
        """Transpose product ``Aᵀ y``."""
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.rows:
            raise ValueError("rmatvec length mismatch")
        counts = np.diff(self.row_ptr)
        row_of = np.repeat(np.arange(self.rows), counts)
        return np.bincount(self.col_idx, weights=self.values * y[row_of],
                           minlength=self.cols)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        counts = np.diff(self.row_ptr)
        row_of = np.repeat(np.arange(self.rows), counts)
        out[row_of, self.col_idx] = self.values
        return out

    def transpose(self) -> "CsrMatrix":
        counts = np.diff(self.row_ptr)
        row_of = np.repeat(np.arange(self.rows), counts)
        return csr_from_arrays(self.cols, self.rows,
                               self.col_idx, row_of, self.values)

    def scaled(self, factor: float) -> "CsrMatrix":
        return CsrMatrix(self.rows, self.cols, self.row_ptr,
                         self.col_idx, factor * self.values)

    def add(self, other: "CsrMatrix") -> "CsrMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in CSR add")
        counts_a = np.diff(self.row_ptr)
        counts_b = np.diff(other.row_ptr)
        i = np.concatenate([np.repeat(np.arange(self.rows), counts_a),
                            np.repeat(np.arange(other.rows), counts_b)])
        j = np.concatenate([self.col_idx, other.col_idx])
        v = np.concatenate([self.values, other.values])
        return csr_from_arrays(self.rows, self.cols, i, j, v)


def csr_from_arrays(rows: int, cols: int, i, j, v) -> CsrMatrix:
    """Build a CSR matrix from parallel index/value arrays, summing duplicates."""
    i = np.asarray(i, dtype=np.int64).ravel()
    j = np.asarray(j, dtype=np.int64).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if not (len(i) == len(j) == len(v)):
        raise ValueError("triplet arrays must have equal length")
    if len(i) and (i.min() < 0 or i.max() >= rows or j.min() < 0 or j.max() >= cols):
        raise IndexOutOfRange("triplet index outside matrix shape")

    if len(i) == 0:
        return CsrMatrix(rows, cols, np.zeros(rows + 1, np.int64),
                         np.zeros(0, np.int64), np.zeros(0))

    order = np.lexsort((j, i))
    i, j, v = i[order], j[order], v[order]
    new_group = np.empty(len(i), bool)
    new_group[0] = True
    new_group[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
    starts = np.flatnonzero(new_group)
    summed = np.add.reduceat(v, starts)
    iu, ju = i[starts], j[starts]
    row_ptr = np.zeros(rows + 1, np.int64)
    np.add.at(row_ptr, iu + 1, 1)
    np.cumsum(row_ptr, out=row_ptr)
    return CsrMatrix(rows, cols, row_ptr, ju, summed)


def csr_from_dense(a) -> CsrMatrix:
    """The CSR form of a dense matrix, keeping its nonzero entries."""
    a = np.asarray(a, dtype=float)
    i, j = np.nonzero(a)
    return csr_from_arrays(a.shape[0], a.shape[1], i, j, a[i, j])


def csr_from_triplets(rows: int, cols: int, entries) -> CsrMatrix:
    """Build a CSR matrix from an iterable of ``(i, j, value)`` triplets."""
    entries = list(entries)
    if not entries:
        return csr_from_arrays(rows, cols, [], [], [])
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("entries must be (i, j, value) triplets")
    i = arr[:, 0]
    j = arr[:, 1]
    if np.any(i != np.round(i)) or np.any(j != np.round(j)):
        raise IndexOutOfRange("non-integer triplet index")
    return csr_from_arrays(rows, cols, i.astype(np.int64),
                           j.astype(np.int64), arr[:, 2])
