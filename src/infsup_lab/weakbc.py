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

Every boundary operator and load is one ``assembly.edge_form`` or
``edge_load`` call over the edge bases of P1 fields (hats, normal
derivatives) and a multiplier basis chosen once from ``trace``: the P1
hats on the boundary nodes or one constant per edge (P0).

A multiplier system is usable only if its discrete inf-sup condition
holds, so ``solve_multiplier`` measures it and solves through the one
pencil (T (A+M)^{-1} T^T, W): one factor of A + M, one dense Schur matrix
and one ``eigh`` give the beta_h verdict and, on an empty kernel, the
solution.  ``solve``, the one route of every caller, sends a multiplier
system there (``MultiplierKernel`` on a non-empty kernel: a pivot test
can pass it) and the others through ``assembly.solve_saddle``, the oracle
of the pencil solve; ``equivalence_check`` solves them that way too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (
    EdgeBasis,
    SaddleSystem,
    edge_bases,
    edge_form,
    edge_load,
    load_vector,
    mass,
    solve_saddle,
    stiffness,
)
from .fespace import ElementKind, FeSpace, build_space, field_errors
from .infsup import InfSupReport, pencil, spd_schur
from .linalg import SingularMatrix
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
    report: InfSupReport | None      # beta_h of a multiplier system


class MultiplierKernel(SingularMatrix):
    """A multiplier system whose measured inf-sup kernel, in ``report``,
    is not empty."""

    def __init__(self, report: InfSupReport):
        super().__init__(f"multiplier inf-sup kernel of dimension "
                         f"{report.kernel_dim_pressure}")
        self.report = report


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
# multiplier basis / build / solve
# ---------------------------------------------------------------------------

def _multiplier(mesh: Mesh, trace: str) -> EdgeBasis:
    """The multiplier basis of ``trace``: the P1 hats renumbered onto the
    boundary nodes (``boundary_dofs`` of the P1 space, in the same sorted
    order), or one constant per boundary edge (P0)."""
    hats, _, constants = edge_bases(mesh)
    if trace == "p0":
        return constants
    nodes, dofs = np.unique(hats.dofs, return_inverse=True)
    return hats._replace(dofs=dofs.reshape(hats.dofs.shape), size=len(nodes))


def solve_multiplier(system: SaddleSystem, mesh: Mesh,
                     trace: str) -> WeakBcSolution:
    """The solution and its ``report`` (beta_h, kernel) of a
    ``multiplier`` system (P1 fields, ``trace`` multipliers), all from one
    pencil (S, W): S = T (A+M)^{-1} T^T of its blocks T = ``b`` and A + M =
    ``a`` by ``infsup.spd_schur``, W = sum_E h_E <mu, mu>_E, the
    mesh-dependent H^{-1/2} norm, and one ``eigh`` by ``infsup.pencil``.
    The kernel is the multipliers orthogonal to every trace: none for P1
    (beta_h 0.344 at n = 16, 32); for P0 the edge mode alternating around
    the boundary, as each hat meets two equal edges: ``MultiplierKernel``.
    Otherwise S^{-1} = Q Lambda^{-1} Q^T of the same eigenpairs gives
    lambda = S^{-1} (T A^{-1} f - g) and u = A^{-1} (f - T^T lambda), with no
    further factor, so the verdict and the solve cannot disagree."""
    mult = _multiplier(mesh, trace)
    lengths, _, _ = boundary_edge_geometry(mesh)
    t, f = system.b, system.f
    s, factor = spd_schur(t, system.a)
    report, eig, q = pencil(s, edge_form(mult, mult, lengths ** 2),
                            system.n_u)
    if report.kernel_dim_pressure:
        raise MultiplierKernel(report)
    lam = q @ ((q.T @ (t @ factor.solve(f) - system.g)) / eig)
    u = factor.solve(f - t.T @ lam)
    x = np.concatenate([u, lam])
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("non-finite solution from the multiplier pencil")
    return WeakBcSolution(u, system.relative_residual(x), report)


def _nitsche(space: FeSpace, a, f, d, penalty: sp.csr_array,
             penalty_load: np.ndarray) -> SaddleSystem:
    """The symmetric Nitsche form a - N - N^T + ``penalty`` (a = A + M) and
    load f - <d, dv/dn> + ``penalty_load``, with no multiplier rows."""
    mesh = space.mesh
    hats, flux, _ = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    nf = edge_form(hats, flux, lengths)
    rhs = (load_vector(space, f) - edge_load(mesh, flux, d, lengths)
           + penalty_load)
    return SaddleSystem(a=a - nf - nf.T + penalty,
                        b=sp.csr_array((0, space.n_dofs)), c=None, f=rhs,
                        g=np.zeros(0), pressure_mass=None,
                        spaces=(space, None))


def build(method: WeakBcMethod, mesh: Mesh, f, d) -> SaddleSystem:
    """Assemble one weak-bc discretization, whose ``spaces`` are its P1
    space and None (the multiplier is an edge basis, not a space).

    ``f`` and ``d`` are scalar callables on (..., 2) points; ``d`` is
    evaluated analytically at trace quadrature points rather than
    interpolated.
    """
    space = build_space(ElementKind.P1, mesh)
    return _build(method, space, stiffness(space) + mass(space), f, d)


def _build(method: WeakBcMethod, space: FeSpace, a, f, d) -> SaddleSystem:
    """``build`` on a given P1 space and its A + M, ``a``.  With the
    multiplier basis mu: the trace T = <mu, v>_E, its load <d, mu>_E, and
    for BH the flux h_E <mu, dv/dn>_E, C = alpha W and N_w = alpha sum_E
    h_E <du/dn, dv/dn>_E."""
    mesh = space.mesh
    hats, flux, _ = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    if method.name == "nitsche":
        weights = lengths * (method.gamma / lengths)   # w_E = gamma / h_E
        return _nitsche(space, a, f, d, edge_form(hats, hats, weights),
                        edge_load(mesh, hats, d, weights))

    mult = _multiplier(mesh, method.trace)
    t, fvec = edge_form(mult, hats, lengths), load_vector(space, f)
    d_load = edge_load(mesh, mult, d, lengths)
    if method.name == "multiplier":
        return SaddleSystem(a=a, b=t, c=None, f=fvec, g=d_load,
                            pressure_mass=None, spaces=(space, None))

    alpha, h_weights = method.alpha, lengths ** 2
    return SaddleSystem(a=a - edge_form(flux, flux, alpha * h_weights),
                        b=t - alpha * edge_form(mult, flux, h_weights),
                        c=alpha * edge_form(mult, mult, h_weights), f=fvec,
                        g=d_load, pressure_mass=None, spaces=(space, None))


def solve(method: WeakBcMethod, system: SaddleSystem) -> WeakBcSolution:
    """Solve a system that ``build`` assembled for ``method``: a
    multiplier one by ``solve_multiplier``, else by ``solve_saddle``."""
    if method.name == "multiplier":
        return solve_multiplier(system, system.spaces[0].mesh, method.trace)
    x, res_rel = solve_saddle(system)
    return WeakBcSolution(x[:system.n_u], res_rel, None)


def run(method: WeakBcMethod, mesh: Mesh, f, d) -> WeakBcSolution:
    return solve(method, build(method, mesh, f, d))


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


def errors(space: FeSpace, u_vec: np.ndarray, problem: WeakBcProblem):
    """(L2, H1-seminorm) error of a field of ``space``, the first of a
    weak-bc system's ``spaces``, by ``field_errors``."""
    return field_errors(space, u_vec, problem.u, problem.grad_u)


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
    hats, _, constants = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    weights = gamma / lengths ** 2
    t0 = edge_form(constants, hats, lengths)
    return _nitsche(space, a, f, d, t0.T @ sp.diags_array(weights) @ t0,
                    t0.T @ (weights * edge_load(mesh, constants, d, lengths)))


def equivalence_check(mesh: Mesh, f, d, alpha: float) -> float:
    """Relative H1 gap between BH(P0, alpha) and Nitsche(gamma = 1/alpha).

    The two are algebraically the same system after eliminating the
    multiplier, so the gap sits at solver roundoff.
    """
    space = build_space(ElementKind.P1, mesh)
    h1 = stiffness(space) + mass(space)
    bh = WeakBcMethod("barbosa-hughes", alpha=alpha, trace="p0")
    u_bh = solve(bh, _build(bh, space, h1, f, d)).u
    u_n = solve_saddle(_nitsche_projected(space, h1, f, d, 1.0 / alpha))[0]
    diff = u_bh - u_n
    num = np.sqrt(diff @ (h1 @ diff))
    den = np.sqrt(u_n @ (h1 @ u_n))
    return float(num / den) if den > 0 else float(num)
