"""Weak Dirichlet enforcement for -lap(u) + u = f on the unit square.

Three routes, all on continuous P1:

* ``multiplier``      trace Lagrange multiplier, saddle system
                      [[A+M, T^T], [T, 0]]; lambda approximates -du/dn
* ``barbosa-hughes``  the multiplier system stabilized by
                      -alpha sum_E h_E <lambda + du/dn, mu + dv/dn>_E,
                      which restores solvability for any trace space
* ``nitsche``         multiplier-free symmetric form with consistency
                      terms and penalty gamma sum_E (1/h_E) <u, v>_E

``method_from_name`` is the one constructor of a ``WeakBcMethod`` from a
label.  Stability parameters are calibrated by the inverse-inequality
constant C_i, the least constant with sum_E h_E ||dv/dn||_E^2 <= C_i^2
||grad v||^2 for P1 fields v, and on every ``unit_square_mesh(n)``
C_i^2 = 2 exactly.  Each boundary edge E is a leg, of length h, of a
right isosceles cell T of area h^2 / 2 on which grad v is constant, so
h_E ||dv/dn||_E^2 = h^2 (dv/dn)^2 <= h^2 |grad v|^2 = 2 ||grad v||_T^2,
with equality for the hat of the vertex opposite E; a corner cell with
both legs on the boundary has orthogonal normals, so its two edges still
sum to at most h^2 |grad v|^2.  The largest eigenvalue of the dense
pencil of that inequality (``inverse_constant`` in ``tests/oracles.py``)
is 2 to round-off at n = 1 ... 16.  Hence the module constants GAMMA =
4 C_i^2 = 8 and ALPHA = 0.5 / C_i^2 = 1/4.

``equivalence_check`` solves the eliminated (Nitsche) form of BH(P0)
through ``solve``, like every system here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (
    SaddleSystem,
    _scatter,
    boundary_edge_integrals,
    boundary_flux_flux,
    boundary_hat_flux,
    boundary_load,
    boundary_mass,
    boundary_normal_flux,
    load_vector,
    mass,
    solve_saddle,
    stiffness,
)
from .fespace import ElementKind, FeSpace, build_space, field_errors
from .infsup import InfSupReport, infsup_weighted
from .mesh import Mesh, boundary_edge_geometry


class UnsupportedTrace(ValueError):
    """Requested multiplier trace space is not available."""


@dataclass(frozen=True)
class WeakBcMethod:
    name: str                    # multiplier | barbosa-hughes | nitsche
    alpha: float | None = None
    gamma: float | None = None
    trace: str = "p1"            # multiplier space: p1 | p0

    def __post_init__(self):
        if self.name not in ("multiplier", "barbosa-hughes", "nitsche"):
            raise ValueError(f"unknown weak-bc method {self.name!r}")
        if self.name == "barbosa-hughes" and (self.alpha is None or self.alpha <= 0):
            raise ValueError("barbosa-hughes needs alpha > 0")
        if self.name == "nitsche" and (self.gamma is None or self.gamma <= 0):
            raise ValueError("nitsche needs gamma > 0")
        if self.trace not in ("p1", "p0"):
            raise UnsupportedTrace(f"trace space {self.trace!r} not available")


@dataclass(frozen=True)
class WeakBcSolution:
    u: np.ndarray
    residual_norm: float


#: Nitsche penalty and Barbosa-Hughes weight from C_i^2 = 2 (module
#: docstring).  BH's A + M - alpha N_w is SPD for alpha <= 1/C_i^2 = 0.5 and
#: indefinite at 0.6 (n = 8, 16); at alpha = 1 err_h1 grows 27-fold (n = 16)
GAMMA = 8.0
ALPHA = 0.25


def method_from_name(name: str, alpha: float | None = None,
                     gamma: float | None = None, trace: str = "p1") -> WeakBcMethod:
    """Resolve a label (``bh`` included); an unset alpha or gamma takes
    ALPHA or GAMMA, and a parameter the method does not read is dropped."""
    if name == "multiplier":
        return WeakBcMethod(name, trace=trace)
    if name in ("barbosa-hughes", "bh"):
        return WeakBcMethod("barbosa-hughes", trace=trace,
                            alpha=ALPHA if alpha is None else alpha)
    if name == "nitsche":
        return WeakBcMethod(name, gamma=GAMMA if gamma is None else gamma)
    raise ValueError(f"unknown weak-bc method {name!r}")


# ---------------------------------------------------------------------------
# trace operators
# ---------------------------------------------------------------------------

def _p0_trace_ops(mesh: Mesh, n_dofs: int):
    """(t0, c_w): edge-indexed <mu_E, v> and h_E <mu_E, dv/dn>, each
    boundary edge scattered as a one-row cell; h_E <mu_E, mu_F> is
    diagonal, h_E^2 on edge E."""
    lengths, _, _ = boundary_edge_geometry(mesh)
    flux, tri_nodes = boundary_hat_flux(mesh)
    edges = np.arange(len(lengths))[:, None]
    t0 = _scatter(edges, mesh.boundary_edges[:, :2],
                  np.repeat(lengths[:, None, None] / 2.0, 2, axis=2),
                  len(lengths), n_dofs)
    c_w = _scatter(edges, tri_nodes,
                   (lengths[:, None] * (lengths[:, None] * flux))[:, None, :],
                   len(lengths), n_dofs)
    return t0, c_w


def _trace_ops(space: FeSpace, trace: str):
    """(T, C_w, W) of a multiplier trace space on the P1 ``space``: the
    trace <mu, v>_E, the flux h_E <mu, dv/dn>_E, and the multiplier norm
    W = sum_E h_E <mu, mu>_E, the mesh-dependent H^{-1/2} norm (the
    h_E-weighted boundary mass for P1, diag(h_E^2) for P0).  BH's C is
    alpha W, and W is the norm of ``multiplier_infsup``."""
    lengths, _, _ = boundary_edge_geometry(space.mesh)
    if trace == "p0":
        return (*_p0_trace_ops(space.mesh, space.n_dofs),
                sp.diags_array(lengths * lengths, format="csr"))
    dofs = space.boundary_dofs
    return (boundary_mass(space)[dofs],
            boundary_normal_flux(space, edge_weights=lengths)[dofs],
            boundary_mass(space, edge_weights=lengths)[np.ix_(dofs, dofs)])


def multiplier_infsup(mesh: Mesh, trace: str) -> InfSupReport:
    """beta_h and kernel of the multiplier pair (P1 fields, ``trace``
    multipliers): ``infsup_weighted`` on the pencil (T (A+M)^{-1} T^T, W) of
    ``_trace_ops``.  The kernel is the multipliers orthogonal to every
    trace: none for P1 (beta_h 0.344 at n = 16, 32); for P0 the edge mode
    alternating around the boundary, as each hat meets two equal edges."""
    space = build_space(ElementKind.P1, mesh)
    t, _, w = _trace_ops(space, trace)
    return infsup_weighted(t, stiffness(space) + mass(space), w)


# ---------------------------------------------------------------------------
# build / solve
# ---------------------------------------------------------------------------

def _nitsche(space: FeSpace, a, f, d, penalty: sp.csr_array,
             penalty_load: np.ndarray) -> SaddleSystem:
    """The symmetric Nitsche form a - N - N^T + ``penalty`` (a = A + M) and
    load f - <d, dv/dn> + ``penalty_load``, with no multiplier rows."""
    nf = boundary_normal_flux(space)
    rhs = (load_vector(space, f) - boundary_load(space, d, flux_test=True)
           + penalty_load)
    return SaddleSystem(a=a - nf - nf.T + penalty,
                        b=sp.csr_array((0, space.n_dofs)), c=None, f=rhs,
                        g=np.zeros(0), pressure_mass=None)


def build(method: WeakBcMethod, mesh: Mesh, f, d) -> SaddleSystem:
    """Assemble one weak-bc discretization.

    ``f`` and ``d`` are scalar callables on (..., 2) points; ``d`` is
    evaluated analytically at trace quadrature points rather than
    interpolated.
    """
    space = build_space(ElementKind.P1, mesh)
    return _build(method, space, stiffness(space) + mass(space), f, d)


def _build(method: WeakBcMethod, space: FeSpace, a, f, d) -> SaddleSystem:
    """``build`` on a given P1 space and its A + M, ``a``."""
    lengths, _, _ = boundary_edge_geometry(space.mesh)
    if method.name == "nitsche":
        weights = method.gamma / lengths
        return _nitsche(space, a, f, d,
                        boundary_mass(space, edge_weights=weights),
                        boundary_load(space, d, edge_weights=weights))

    fvec = load_vector(space, f)
    t, c_w, w = _trace_ops(space, method.trace)
    d_load = (boundary_load(space, d)[space.boundary_dofs]
              if method.trace == "p1"
              else boundary_edge_integrals(space.mesh, d))

    if method.name == "multiplier":
        return SaddleSystem(a=a, b=t, c=None, f=fvec, g=d_load,
                            pressure_mass=None)

    alpha = method.alpha
    n_w = boundary_flux_flux(space, edge_weights=alpha * lengths)
    return SaddleSystem(a=a - n_w, b=t - alpha * c_w, c=alpha * w, f=fvec,
                        g=d_load, pressure_mass=None)


def solve(system: SaddleSystem) -> WeakBcSolution:
    x, res_rel = solve_saddle(system)
    return WeakBcSolution(u=x[:system.n_u], residual_norm=res_rel)


def run(method: WeakBcMethod, mesh: Mesh, f, d) -> WeakBcSolution:
    return solve(build(method, mesh, f, d))


# ---------------------------------------------------------------------------
# manufactured problem and errors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakBcProblem:
    u: callable
    f: callable
    d: callable
    grad_u: callable


def mms_problem() -> WeakBcProblem:
    pi = np.pi

    def u(pts):
        return np.cos(pi * pts[..., 0]) * np.cos(pi * pts[..., 1])

    def f(pts):
        return (2.0 * pi ** 2 + 1.0) * u(pts)

    def grad_u(pts):
        x, y = pts[..., 0], pts[..., 1]
        return np.stack([-pi * np.sin(pi * x) * np.cos(pi * y),
                         -pi * np.cos(pi * x) * np.sin(pi * y)], axis=-1)

    return WeakBcProblem(u=u, f=f, d=u, grad_u=grad_u)


def errors(mesh: Mesh, u_vec: np.ndarray, problem: WeakBcProblem):
    """(L2, H1-seminorm) error of a P1 field, by ``field_errors``."""
    return field_errors(build_space(ElementKind.P1, mesh), u_vec, problem.u,
                        problem.grad_u)


# ---------------------------------------------------------------------------
# BH <-> Nitsche equivalence (P0 multipliers, gamma = 1/alpha)
# ---------------------------------------------------------------------------

def _nitsche_projected(space: FeSpace, a, f, d, gamma: float) -> SaddleSystem:
    """Nitsche variant with the penalty acting on P0 edge averages.

    Exact elimination of P0 multipliers from the stabilized system yields
    THIS form (the du/dn consistency terms are already edge-wise constant
    for P1, so only the penalty changes).
    """
    mesh = space.mesh
    lengths, _, _ = boundary_edge_geometry(mesh)
    weights = gamma / lengths ** 2
    t0 = _p0_trace_ops(mesh, space.n_dofs)[0]
    return _nitsche(space, a, f, d, t0.T @ sp.diags_array(weights) @ t0,
                    t0.T @ (weights * boundary_edge_integrals(mesh, d)))


def equivalence_check(mesh: Mesh, f, d, alpha: float) -> float:
    """Relative H1 gap between BH(P0, alpha) and Nitsche(gamma = 1/alpha).

    The two are algebraically the same system after eliminating the
    multiplier, so the gap sits at solver roundoff.
    """
    space = build_space(ElementKind.P1, mesh)
    h1 = stiffness(space) + mass(space)
    u_bh = solve(_build(WeakBcMethod("barbosa-hughes", alpha=alpha,
                                     trace="p0"), space, h1, f, d)).u
    u_n = solve(_nitsche_projected(space, h1, f, d, 1.0 / alpha)).u
    diff = u_bh - u_n
    num = np.sqrt(diff @ (h1 @ diff))
    den = np.sqrt(u_n @ (h1 @ u_n))
    return float(num / den) if den > 0 else float(num)
