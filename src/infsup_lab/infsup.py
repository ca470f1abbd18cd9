"""Discrete inf-sup constants from one pressure-sized symmetric eigenproblem.

For a pair (V_h, Q_h) with divergence block B (pressure rows, free-velocity
columns), velocity norm matrix X and pressure norm matrix M, the squared
inf-sup constant is the smallest nonzero eigenvalue of the pencil

    S q = lambda M q,    S = B X^{-1} B^T    (Chapelle-Bathe inf-sup test),

and beta = sqrt(lambda).  A pair is measured with X the velocity
H1-seminorm Gram on free dofs and M the pressure mass, the constant of the
actual quotient b(v,q)/(|v|_1 ||q||_0).  The two steps are shared with
the weak-bc multiplier, which solves through the same pencil: ``spd_schur``
forms S dense by ``assembly.schur_complement`` from the
``assembly.sparse_lu`` factor of X, whose pivots are X's SPD check, and
``pencil`` reduces it to tridiagonal form once (Golub-Van Loan, 2013,
8.3, 8.7).  (X = I and M = I give the smallest positive singular value of
B, which falls with h for every pair.)  Constant pressures are never
deflated -- they land in the numerical kernel, excluded by the rank
tolerance, where squaring the spectrum puts their ``sigma`` at 0 or 6e-9
to 4.5e-8 sigma_0 (n = 2 ... 32), not at an SVD's 1e-16 sigma_0.

The report also carries ``constant_pressure_angle``, the sine of the angle
between the constant pressure and the numerical kernel, read from the same
M-orthonormal kernel eigenvectors: ~0 when the constants are correctly
classified as a kernel direction, so any further kernel dimension is a
spurious pressure mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .assembly import (divergence, free_vector_block, mass, schur_complement,
                       sparse_lu, stiffness)
from .fespace import ElementKind, FeSpace, build_space, interior_edge_pairs
from .linalg import (Factor, NotPositiveDefinite, SingularMatrix,
                     require_symmetric)
from .mesh import Mesh

PAIRS = {
    "p1p1": (ElementKind.P1, ElementKind.P1),
    "p1p0": (ElementKind.P1, ElementKind.P0),
    "mini": (ElementKind.P1_BUBBLE, ElementKind.P1),
    "taylor-hood": (ElementKind.P2, ElementKind.P1),
    "p2p0": (ElementKind.P2, ElementKind.P0),
}

#: numerical rank = #{lambda_i > RANK_RTOL * lambda_0}, lambda = sigma^2.  No
#: max(m, n) factor: on lambda it would cut p1p1's beta by n=256, squared it
#: falls below the eigensolver's round-off at n=4.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class InfSupReport:
    beta: float
    sigma: np.ndarray               # min(n_p, n_u) values, descending
    numerical_rank: int
    kernel_dim_pressure: int
    worst_pressure_mode: np.ndarray
    constant_pressure_angle: float  # sin(constants, kernel) in the M norm


def pair_spaces(pair: str, mesh: Mesh) -> tuple[FeSpace, FeSpace]:
    if pair not in PAIRS:
        raise ValueError(f"unknown element pair {pair!r}")
    vkind, pkind = PAIRS[pair]
    return build_space(vkind, mesh, components=2), build_space(pkind, mesh)


def pair_operators(v_space: FeSpace, p_space: FeSpace):
    """Sparse CSR (B, X, M) of a pair: divergence block restricted to free
    velocity columns, velocity stiffness on free dofs (diag(K, K), from the
    scalar K), pressure mass.  The Stokes solve and the inf-sup constant
    both use these blocks."""
    b = divergence(v_space, p_space)[:, v_space.free_dofs()]
    return b, free_vector_block(stiffness, v_space), mass(p_space)


def _positive_definite(factor) -> bool:
    """The SPD rule of a symmetric matrix from its ``sparse_lu`` factor:
    diagonal pivots (their signs are then its inertia), all > 0.  It is
    sufficient, not necessary: an SPD matrix that its factor pivots off the
    diagonal fails it; no velocity norm of the five pairs does (n ≤ 64)."""
    return factor.diagonal_pivots and bool(np.all(factor.pivots > 0.0))


def spd_schur(b: sp.csr_array, x_norm) -> tuple[np.ndarray, Factor]:
    """Dense B X^{-1} B^T, Fortran-ordered, and the ``sparse_lu`` factor of
    X (of K alone for diag(K, K)) it is formed from.  X must be symmetric
    (else ``ValueError``) and its factor pass ``_positive_definite`` (else
    ``NotPositiveDefinite``)."""
    x = sp.csr_array(x_norm, dtype=float)
    require_symmetric(x, "infsup_weighted")
    try:
        factor = sparse_lu(x, "velocity norm")
    except SingularMatrix as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if not _positive_definite(factor):
        raise NotPositiveDefinite("velocity norm: off-diagonal or "
                                  "non-positive pivot")
    n_p = b.shape[0]
    return schur_complement(factor, b, None,
                            np.empty((n_p, n_p), order="F")), factor


def _constant_pressure_angle(kernel: np.ndarray, m) -> float:
    """sin of the angle between the constant pressure and span(kernel),
    whose columns are M-orthonormal; 1 for an empty kernel."""
    if kernel.shape[1] == 0:
        return 1.0
    ones = np.ones(kernel.shape[0])
    m_ones = m @ ones
    gap = ones - kernel @ (kernel.T @ m_ones)
    return float(np.sqrt((gap @ (m @ gap)) / (ones @ m_ones)))


def _lapack(routine, *args, **kwargs):
    """A LAPACK wrapper's outputs but ``info``; ``LinAlgError`` if nonzero."""
    *out, info = routine(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__}: info {info}")
    return out[0] if len(out) == 1 else out


def _apply_q(c: np.ndarray, tau: np.ndarray, rows: np.ndarray, trans: bool):
    """``rows`` (k x n, Fortran order) <- rows Q^T, or rows Q if ``trans``,
    Q = H_0 ... H_{n-2} of the lower ``dsytrd`` reflectors in ``c``: v_j is
    1 at row j + 1 and c[j + 2:, j] below.  In place, one H_j at a time."""
    for j in range(len(tau)) if trans else reversed(range(len(tau))):
        v, tail = np.concatenate(([1.0], c[j + 2:, j])), rows[:, j + 1:]
        blas.dger(-tau[j], blas.dgemv(1.0, tail, v), v, a=tail, overwrite_a=1)


#: |entries| within this fraction of max|mode| tie (mirror-image entries)
SIGN_TIE_RTOL = 1e-8


def _signed(mode: np.ndarray) -> np.ndarray:
    """``mode`` at unit Euclidean norm, with its largest-magnitude entry
    positive, the first of the entries that tie for it."""
    mode, size = mode / np.linalg.norm(mode), np.abs(mode)
    lead = np.flatnonzero(size >= (1.0 - SIGN_TIE_RTOL) * size.max())[0]
    return -mode if mode[lead] < 0.0 else mode


def pencil(s: np.ndarray, m_norm, n_u: int):
    """The report of the pencil (S, M), S from ``spd_schur`` of a block
    with ``n_u`` columns, and ``solve``, r -> S^{-1} r.

    One reduction in S's and the dense M's Fortran buffers: M = L L^T
    (``dpotrf``), L^{-1} S L^{-T} = Q T Q^T (two ``dtrsm``, ``dsytrd``),
    every eigenvalue of T (``dsterf``) and, T taken as one block, its
    eigenvectors from the kernel up to the worst mode only (``dstein``;
    rank 0 means S = 0), mapped back by Q and L^{-T}.  ``solve`` is L^{-T} Q
    T^{-1} Q^T L^{-1} r (``dpttrf``): no n_p x n_p eigenvector matrix.  BLAS
    stands in for ``dsygst``, ``dormqr``, ``dtrtrs`` and ``dstebz``: each
    wrapper would map 64 KB of code in a CLI child.

    M (dense or sparse) must be symmetric positive definite: an asymmetric
    one raises ``ValueError``, an indefinite or singular one
    ``NotPositiveDefinite``; any other LAPACK failure ``LinAlgError``.  The
    reported worst mode is the plain nodal/cell eigenvector at unit
    Euclidean norm (not unit M-norm), its largest entry positive.
    """
    m = sp.csr_array(m_norm, dtype=float)
    require_symmetric(m, "infsup_weighted")
    n_p = len(s)
    if not n_p:
        return InfSupReport(0.0, np.zeros(0), 0, 0, np.zeros(0), 1.0), np.copy
    try:
        chol = _lapack(lapack.dpotrf, m.toarray(order="F"), lower=1,
                       overwrite_a=1)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"pressure norm: {exc}") from exc
    s = blas.dtrsm(1.0, chol, s, lower=1, overwrite_b=1)
    s = blas.dtrsm(1.0, chol, s, side=1, lower=1, trans_a=1, overwrite_b=1)
    lwork = int(_lapack(lapack.dsytrd_lwork, n_p, lower=1))
    s, d, e, tau = _lapack(lapack.dsytrd, s, lower=1, lwork=lwork,
                           overwrite_a=1)
    lam = _lapack(lapack.dsterf, d, e)[::-1]
    rank = int(np.count_nonzero(lam > RANK_RTOL * lam[0]))
    kernel_dim = n_p - rank
    one, window = np.ones(n_p, dtype=np.intc), lam[::-1][:kernel_dim + 1]
    rows = (np.ascontiguousarray(_lapack(lapack.dstein, d, e, window, one,
                                         n_p * one)).T
            if rank else np.eye(n_p, order="F"))
    _apply_q(s, tau, rows, False)
    x = blas.dtrsm(1.0, chol, rows, side=1, lower=1, overwrite_b=1).T
    report = InfSupReport(
        beta=float(np.sqrt(lam[rank - 1])) if rank else 0.0,
        sigma=np.sqrt(np.maximum(lam[:min(n_p, n_u)], 0.0)),
        numerical_rank=rank, kernel_dim_pressure=kernel_dim,
        worst_pressure_mode=_signed(x[:, -1]) if rank else np.zeros(n_p),
        constant_pressure_angle=_constant_pressure_angle(x[:, :kernel_dim],
                                                         m))

    def solve(r: np.ndarray) -> np.ndarray:
        row = blas.dtrsm(1.0, chol, r[None, :], side=1, lower=1, trans_a=1)
        _apply_q(s, tau, row, True)
        row = _lapack(lapack.dpttrs, *_lapack(lapack.dpttrf, d, e), row.T,
                      overwrite_b=1).T
        _apply_q(s, tau, row, False)
        return blas.dtrsm(1.0, chol, row, side=1, lower=1)[0]

    return report, solve


def infsup_weighted(b, x_norm, m_norm) -> InfSupReport:
    """beta from the pencil (B X^{-1} B^T, M): ``spd_schur``, whose factor
    of X is dropped before ``pencil`` reduces it."""
    b = sp.csr_array(b, dtype=float)
    s = spd_schur(b, x_norm)[0]
    return pencil(s, m_norm, b.shape[1])[0]


def study(pair: str, mesh: Mesh) -> InfSupReport:
    """Assemble a named pair on a mesh and report its inf-sup constant."""
    return infsup_weighted(*pair_operators(*pair_spaces(pair, mesh)))


#: entries below this fraction of max|mode| are round-off zeros, without sign
ALTERNATION_RTOL = 1e-10


def alternation_score(mode: np.ndarray, mesh: Mesh, kind: ElementKind) -> float:
    """Fraction of interior edges across which the mode changes sign.

    Only edges with both sides above ``ALTERNATION_RTOL`` times max|mode|
    count, in the numerator and the denominator alike: the sign of a
    round-off zero is noise.  An all-zero mode scores 0.  Checkerboard modes
    score near 1, smooth fields near the fraction of edges crossing their
    zero set.
    """
    i, j = interior_edge_pairs(mesh, kind)
    left, right = mode[i], mode[j]
    tol = ALTERNATION_RTOL * np.max(np.abs(mode), initial=0.0)
    signed = (np.abs(left) > tol) & (np.abs(right) > tol)
    if not signed.any():
        return 0.0
    flips = (left * right < 0) & signed
    return float(flips.sum() / signed.sum())
