"""The numerical contracts of the package, its factor type and dense LU.

Dense matrices are plain 2-D float64 ``numpy.ndarray`` objects (row-major);
sparse operators are ``scipy.sparse.csr_array`` objects built in
``assembly``, and no sparse kernel lives here.

The module holds the two exceptions a contract raises, ``SingularMatrix``
and ``NotPositiveDefinite``; the symmetry contract ``require_symmetric``,
which the norm matrices of ``infsup`` must meet; the pivot contract
``check_pivots`` with its scale ``column_scale``; ``Factor``, the type of
every factor, which ``assembly.sparse_lu`` makes on its sparse routes; and
``dense_lu``, the one dense LU, the factor of the dense bordered pressure
Schur matrix in ``assembly.solve_saddle``.  β_h itself comes from
``infsup``'s pressure-sized eigenproblem.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
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

#: relative symmetry tolerance required of norm matrices
SYMMETRY_RTOL = 1e-12


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


@dataclass(frozen=True)
class Factor:
    """A factor whose pivots passed ``check_pivots``.  ``solve`` takes a
    vector or columns; ``route`` is ``element``, ``two-block``, ``superlu``
    (``assembly.sparse_lu``) or ``dense``; ``pivots`` has one per row.
    ``diagonal_pivots`` holds when each was taken on the diagonal of a
    symmetric permutation (SuperLU: ``perm_r == perm_c``; getrf: no row
    exchange): on a symmetric matrix their signs are then its inertia."""

    solve: Callable
    route: str
    pivots: np.ndarray
    diagonal_pivots: bool


def dense_lu(a: np.ndarray) -> Factor:
    """The ``dense`` factor of ``a`` (a non-empty, square, finite float64
    matrix) by LU with partial pivoting, which overwrites ``a`` (no copy
    when it is Fortran-ordered).  Raises ``SingularMatrix`` when any pivot
    magnitude drops below ``PIVOT_RTOL`` times the largest initial column
    norm, and on a non-finite solution."""
    col_scale = column_scale(a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # we do our own pivot check below
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=True,
                                         check_finite=False)
    if not np.all(np.isfinite(lu)):
        raise SingularMatrix("non-finite entries in the LU factors")
    check_pivots(np.diag(lu), col_scale)

    def solve(b):
        x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
        if not np.all(np.isfinite(x)):
            raise SingularMatrix("non-finite solution from LU back substitution")
        return x

    return Factor(solve, "dense", np.diag(lu),
                  bool(np.all(piv == np.arange(len(piv)))))
