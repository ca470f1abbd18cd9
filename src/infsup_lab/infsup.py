"""Discrete inf-sup constants from singular spectra of the divergence block.

For a pair (V_h, Q_h) with divergence block B (pressure rows, free-velocity
columns), the Euclidean inf-sup constant is the smallest positive singular
value of B.  The norm-weighted constant whitens both sides first,

    beta = sigma_min+( R^{-1} B L^{-T} ),   X = L L^T,  M = R R^T,

with X the velocity H1-seminorm Gram on free dofs and M the pressure mass;
this is the constant of the actual inf-sup quotient b(v,q)/(|v|_1 ||q||_0).
Constant pressures are never deflated -- they land in the numerical kernel
and are excluded by the rank tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import mass, stiffness
from .fespace import ElementKind, FeSpace, build_space
from .linalg import cholesky, svd
from .mesh import Mesh, edge_table

PAIRS = {
    "p1p1": (ElementKind.P1, ElementKind.P1),
    "p1p0": (ElementKind.P1, ElementKind.P0),
    "mini": (ElementKind.P1_BUBBLE, ElementKind.P1),
    "taylor-hood": (ElementKind.P2, ElementKind.P1),
    "p2p0": (ElementKind.P2, ElementKind.P0),
}


@dataclass(frozen=True)
class InfSupReport:
    beta: float
    mode: str                       # "euclidean" | "weighted"
    sigma: np.ndarray               # full spectrum, descending
    numerical_rank: int
    kernel_dim_pressure: int
    worst_pressure_mode: np.ndarray
    pair: str
    h: float


def pair_spaces(pair: str, mesh: Mesh) -> tuple[FeSpace, FeSpace]:
    if pair not in PAIRS:
        raise ValueError(f"unknown element pair {pair!r}")
    vkind, pkind = PAIRS[pair]
    return build_space(vkind, mesh, components=2), build_space(pkind, mesh)


def pair_operators(pair: str, mesh: Mesh):
    """Dense (B, X, M) for a named pair: divergence block restricted to free
    velocity columns, velocity stiffness on free dofs, pressure mass."""
    from .assembly import divergence

    v_space, p_space = pair_spaces(pair, mesh)
    free = v_space.free_dofs()
    b = divergence(v_space, p_space).toarray()[:, free]
    x = stiffness(v_space).toarray()[np.ix_(free, free)]
    m = mass(p_space).toarray()
    return b, x, m


def _report(sigma_result, pressure_modes, mode, pair, h):
    sigma = sigma_result.sigma
    rank = sigma_result.numerical_rank
    n_p = pressure_modes.shape[0]
    beta = float(sigma[rank - 1]) if rank > 0 else 0.0
    worst = pressure_modes[:, rank - 1] if rank > 0 else np.zeros(n_p)
    nrm = np.linalg.norm(worst)
    if nrm > 0:
        worst = worst / nrm
    return InfSupReport(beta=beta, mode=mode, sigma=sigma,
                        numerical_rank=rank,
                        kernel_dim_pressure=n_p - rank,
                        worst_pressure_mode=worst, pair=pair, h=h)


def _whiten(b, x_norm, m_norm) -> tuple[np.ndarray, np.ndarray]:
    """(W, R) with W = R^{-1} B L^{-T}, X = L L^T, M = R R^T.

    Raises NotPositiveDefinite (via Cholesky) when either norm matrix is
    not SPD.
    """
    l_fac = cholesky(np.asarray(x_norm, dtype=float))
    r_fac = cholesky(np.asarray(m_norm, dtype=float))
    # B L^{-T} = (L^{-1} B^T)^T
    bl = scipy.linalg.solve_triangular(
        l_fac, np.asarray(b, dtype=float).T, lower=True).T
    return scipy.linalg.solve_triangular(r_fac, bl, lower=True), r_fac


def infsup_euclidean(b: np.ndarray, pair: str = "custom",
                     h: float = float("nan")) -> InfSupReport:
    """beta = smallest positive singular value of the raw block.

    ``b`` has one row per pressure dof, so the pressure-side singular
    vectors are the left factor's columns.
    """
    b = np.asarray(b, dtype=float)
    result = svd(b)
    return _report(result, result.u, "euclidean", pair, h)


def infsup_weighted(b: np.ndarray, x_norm: np.ndarray, m_norm: np.ndarray,
                    pair: str = "custom", h: float = float("nan")) -> InfSupReport:
    """beta of the whitened block R^{-1} B L^{-T}.

    Raises NotPositiveDefinite (via Cholesky) when either norm matrix is
    not SPD.  Pressure modes are mapped back through R^{-T} so the reported
    worst mode is a plain nodal/cell vector, scaled to unit Euclidean norm
    (not unit M-norm).
    """
    w, r_fac = _whiten(b, x_norm, m_norm)
    result = svd(w)
    modes = scipy.linalg.solve_triangular(r_fac.T, result.u, lower=False)
    return _report(result, modes, "weighted", pair, h)


def study(pair: str, mesh: Mesh, weighted: bool = True) -> InfSupReport:
    """Assemble a named pair on a mesh and report its inf-sup constant."""
    b, x, m = pair_operators(pair, mesh)
    if weighted:
        return infsup_weighted(b, x, m, pair=pair, h=mesh.h)
    return infsup_euclidean(b, pair=pair, h=mesh.h)


def spurious_mode(report: InfSupReport) -> np.ndarray:
    """The unit pressure vector achieving beta, ready for field export."""
    return report.worst_pressure_mode.copy()


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
    table = edge_table(mesh)
    interior = table.interior_mask()
    if kind is ElementKind.P0:
        left = mode[table.edge_tris[interior, 0]]
        right = mode[table.edge_tris[interior, 1]]
    elif kind is ElementKind.P1:
        left = mode[table.edges[interior, 0]]
        right = mode[table.edges[interior, 1]]
    else:
        raise ValueError("alternation score defined for P0/P1 pressures")
    tol = ALTERNATION_RTOL * np.max(np.abs(mode), initial=0.0)
    signed = (np.abs(left) > tol) & (np.abs(right) > tol)
    if not signed.any():
        return 0.0
    flips = (left * right < 0) & signed
    return float(flips.sum() / signed.sum())


def constant_pressure_angle(pair: str, mesh: Mesh,
                            weighted: bool = True) -> float:
    """sin of the angle between the constant pressure and the numerical kernel.

    Measured in the whitened coordinates where the kernel singular vectors
    are orthonormal; ~0 when the constant is correctly classified as a
    spurious-free kernel direction.
    """
    b, x, m = pair_operators(pair, mesh)
    ones = np.ones(b.shape[0])
    if weighted:
        w, r_fac = _whiten(b, x, m)
        vec = r_fac.T @ ones
    else:
        w = b
        vec = ones
    result = svd(w)
    kernel = result.u[:, result.numerical_rank:]
    if kernel.shape[1] == 0:
        return 1.0
    vec = vec / np.linalg.norm(vec)
    return float(np.linalg.norm(vec - kernel @ (kernel.T @ vec)))
