"""Dense linear algebra kernels and the numerical contracts of the package.

Dense matrices are plain 2-D float64 ``numpy.ndarray`` objects (row-major);
sparse operators are ``scipy.sparse.csr_array`` objects built in
``assembly``, and no sparse kernel lives here.

``_lu_solve_overwrite`` is the package's one dense LU, the factor of the
dense bordered pressure Schur matrix in ``assembly.solve_saddle``: LAPACK
factors in place, and this module's pivot contract, ``check_pivots`` with
``column_scale`` (shared with every factor of ``assembly.sparse_lu``), decides
singularity.  ``require_symmetric`` is the symmetry contract, shared with
the norm matrices of ``infsup``.  The two spectral routines are the
package's independent cross-checks, used by the selftest and the test
oracles (β_h itself comes from ``infsup``'s pressure-sized eigenproblem):
``svd`` calls the preconditioned one-sided Jacobi SVD ``dgejsv`` in its
``JOBA='C'`` mode, so small singular values keep high relative accuracy
instead of being rounded to zero against the largest one, and ``sym_eig``
calls ``eigh``, a tridiagonal route.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp


class SingularMatrix(ValueError):
    """A pivot fell below the singularity threshold during factorization."""


class NotPositiveDefinite(ValueError):
    """A matrix required to be positive definite has a non-positive pivot."""


#: relative pivot threshold of every LU factor (× max initial column norm)
PIVOT_RTOL = 1e-14

#: relative symmetry tolerance required of norm matrices and by sym_eig
SYMMETRY_RTOL = 1e-12


def _as_dense(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def require_symmetric(a, what: str) -> None:
    """Raise ``ValueError`` unless ``‖a − aᵀ‖_F ≤ SYMMETRY_RTOL ‖a‖_F``;
    ``a`` is dense or scipy sparse."""
    scale, asymmetry = (np.linalg.norm(z.data if sp.issparse(z) else z)
                        for z in (a, a - a.T))
    if asymmetry > SYMMETRY_RTOL * scale:
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


def column_scale(a) -> float:
    """The pivot contract's scale, the largest column 2-norm of ``a``:
    dense, or scipy sparse read from its CSR arrays, duplicates summed."""
    if not sp.issparse(a):
        return float(np.sqrt(np.max(np.einsum("ij,ij->j", a, a))))
    a = sp.csr_array(a) if a.has_canonical_format else a.tocoo().tocsr()
    return float(np.sqrt(np.bincount(a.indices, a.data ** 2, a.shape[1]).max()))


def _lu_solve_overwrite(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` by LU with partial pivoting, overwriting ``a`` (a
    non-empty, square, finite float64 matrix) with its LU factors; no copy
    is made when ``a`` is Fortran-ordered.  ``b`` is a vector or a matrix
    of right-hand sides.

    Raises ``SingularMatrix`` when any pivot magnitude drops below
    ``PIVOT_RTOL`` times the largest initial column norm.
    """
    col_scale = column_scale(a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # we do our own pivot check below
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=True,
                                         check_finite=False)
    if not np.all(np.isfinite(lu)):
        raise SingularMatrix("non-finite entries in the LU factors")
    check_pivots(np.diag(lu), col_scale)
    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("non-finite solution from LU back substitution")
    return x


# ---------------------------------------------------------------------------
# spectral routines (LAPACK dgejsv / eigh)
# ---------------------------------------------------------------------------

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
    """Singular value decomposition with full U and V by LAPACK ``dgejsv``.

    ``dgejsv`` is the preconditioned one-sided Jacobi SVD of Drmač and
    Veselić (SIAM J. Matrix Anal. Appl. 29, 2008).  It runs with
    ``JOBA='C'``: the relative error of every singular value is bounded by
    O(eps) times the condition of ``a`` with its columns scaled to unit
    norm, whatever that column scaling was, and no value is truncated.
    (The wrapper's default ``'A'`` sets every value below n·eps·‖a‖ to
    exactly zero, which would erase the small constants under study.)
    Raises ``numpy.linalg.LinAlgError`` when LAPACK reports a failure.
    """
    a = _as_dense(a)
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
    require_symmetric(a, "sym_eig")
    lam, q = scipy.linalg.eigh(a, check_finite=False)
    return lam[::-1], q[:, ::-1]
