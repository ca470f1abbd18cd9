"""Stokes discretizations on the unit square with homogeneous no-slip walls.

Every method assembles the block system ``[[A, B^T], [B, -C]]`` on the free
velocity dofs, with ``B[q, v] = -(psi_q, div phi_v)`` and a pressure-mean
constraint ``M 1`` appended as an extra symmetric row/column.  (B, A, M) are
``infsup.pair_operators``, the blocks behind the pair's inf-sup constant
beta_h, and the solution's velocity is extended by zero to the boundary
dofs.  The stabilized P1/P1 variants differ only in the pressure-pressure
block ``C`` (and, for the residual-based pair, a pressure-space
contribution to the right-hand side):

* ``p1p1-plain``        C = 0 (unstable; kept to exhibit the failure)
* ``p1p1-loss``         C = h^2 (S0 - G^T M_L^{-1} G), the mass-lumped
                        elimination of an auxiliary projected-gradient field
                        z = M_L^{-1} G p (``loss_projection``)
* ``brezzi-pitkaranta`` C = eps sum_K h_K^2 (grad p, grad q)_K
* ``galerkin-ls``       the same C (the Laplacian of a P1 field vanishes on
                        each cell) plus the matching -eps h_K^2 (f, grad q)_K
                        load
* ``douglas-wang``      like galerkin-ls but with first-power h_K weights
* ``taylor-hood``       P2/P1, C = 0
* ``mini``              P1+bubble / P1, C = 0
* ``p2p0``              P2/P0, C = 0

The three eps methods read (power of h_K, load sign) from one table, and
every assembled system is symmetric.  ``oscillation_indicator``
(checkerboard modes) and ``boundary_pressure_flux`` (the spurious
dp/dn = 0 of gradient stabilization) show an inf-sup failure in a solved
pressure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (
    SaddleSystem,
    edge_bases,
    grad_coupling,
    gradient_load,
    load_vector,
    lumped_mass,
    solve_saddle,
    solve_saddle_pcg,
    stiffness,
)
from .fespace import (ElementKind, FeSpace, build_space, field_errors,
                      interior_edge_pairs, quadrature, quadrature_points,
                      tabulate)
from .infsup import pair_operators, pair_spaces
from .mesh import (
    Mesh,
    boundary_edge_geometry,
    triangle_areas,
    triangle_diameters,
)


class UnsupportedCombination(ValueError):
    """Requested method or element pairing is not implemented."""


#: (power of h_K, load sign) of the weighted-gradient stabilizations:
#: C = eps sum_K h_K^power (grad p, grad q)_K and
#: g = load sign * eps sum_K h_K^power (f, grad q)_K
_GRADIENT_STAB = {"brezzi-pitkaranta": (2, 0.0),
                  "galerkin-ls": (2, -1.0),
                  "douglas-wang": (1, -1.0)}
_EPS_METHODS = tuple(_GRADIENT_STAB)
DEFAULT_EPS = 0.05

#: every method, in CLI order, with its element pair (a key of
#: ``infsup.PAIRS``)
_METHOD_PAIR = {**dict.fromkeys(("p1p1-plain", "p1p1-loss", *_EPS_METHODS),
                                "p1p1"),
                "taylor-hood": "taylor-hood", "mini": "mini", "p2p0": "p2p0"}

#: short labels the CLI accepts for ``--method``
ALIASES = {"bp": "brezzi-pitkaranta", "gls": "galerkin-ls",
           "dw": "douglas-wang", "th": "taylor-hood"}


@dataclass(frozen=True)
class StokesMethod:
    """A named discretization, with stabilization weight where applicable."""

    name: str
    eps: float | None = None

    def __post_init__(self):
        if self.name not in _METHOD_PAIR:
            raise UnsupportedCombination(f"unknown Stokes method {self.name!r}")
        if self.name in _EPS_METHODS:
            if self.eps is None or self.eps <= 0.0:
                raise ValueError(f"{self.name} needs eps > 0")
        elif self.eps is not None:
            raise ValueError(f"{self.name} takes no eps parameter")

    @property
    def route(self) -> str:
        """The pressure solver of ``solve``."""
        return "schur-lu" if self.name == "p1p1-plain" else "schur-pcg"


def method_from_name(name: str, eps: float | None = None) -> StokesMethod:
    """Resolve a CLI label (including short aliases) to a method."""
    name = ALIASES.get(name, name)
    if name in _EPS_METHODS:
        return StokesMethod(name, DEFAULT_EPS if eps is None else eps)
    return StokesMethod(name, eps)      # plain methods reject a given eps


def method_names() -> list[str]:
    return list(_METHOD_PAIR)


def spaces_for(method: StokesMethod, mesh: Mesh) -> tuple[FeSpace, FeSpace]:
    return pair_spaces(_METHOD_PAIR[method.name], mesh)


def _loss_projection(p_space: FeSpace) -> tuple[sp.csr_array, np.ndarray]:
    """(G, diagonal of M_L) of the projected gradient z = M_L^{-1} G p,
    with z in the vector P1 space on the pressure mesh."""
    z_space = build_space(ElementKind.P1, p_space.mesh, components=2)
    return grad_coupling(z_space, p_space), lumped_mass(z_space)


def _loss_c_block(p_space: FeSpace) -> sp.csr_array:
    """``h^2 (S0 - G^T M_L^{-1} G)`` from the lumped elimination."""
    g, ml = _loss_projection(p_space)
    ml_inv = sp.diags_array(1.0 / ml)
    return p_space.mesh.h ** 2 * (stiffness(p_space) - g.T @ ml_inv @ g)


def build(method: StokesMethod, mesh: Mesh, body_force) -> SaddleSystem:
    """Assemble the constrained saddle system for one method.

    ``body_force`` maps an (..., 2) array of points to (..., 2) force values.
    Velocity Dirichlet values are zero on the whole boundary, so the
    velocity unknowns are the free dofs of ``v_space`` and (B, A, M) are the
    blocks ``infsup.pair_operators`` gives the inf-sup constant; the
    pressure mean constraint is the row ``M 1``.
    """
    v_space, p_space = spaces_for(method, mesh)
    b, a, m = pair_operators(v_space, p_space)
    f = load_vector(v_space, body_force)[v_space.free_dofs()]
    g = np.zeros(p_space.n_dofs)
    c = None

    if method.name == "p1p1-loss":
        c = _loss_c_block(p_space)
    elif method.name in _EPS_METHODS:
        power, load_sign = _GRADIENT_STAB[method.name]
        weights = triangle_diameters(mesh) ** power
        c = method.eps * stiffness(p_space, cell_weights=weights)
        if load_sign:
            g = load_sign * method.eps * gradient_load(p_space, body_force,
                                                       weights)

    return SaddleSystem(a=a, b=b, c=c, f=f, g=g, pressure_mass=m,
                        spaces=(v_space, p_space))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StokesSolution:
    u: np.ndarray                   # every velocity dof, boundary ones zero
    p: np.ndarray
    residual_norm: float
    cg_iterations: int | None       # None on the schur-lu route
    v_space: FeSpace
    p_space: FeSpace


def solve(system: SaddleSystem, method: StokesMethod) -> StokesSolution:
    """Block-elimination solve of the saddle system on ``method.route``.

    ``p1p1-plain`` takes the dense Schur LU of ``solve_saddle``: its
    ``SingularMatrix`` is the verdict on the unstabilized pair at every
    refinement, and that route is the oracle of the other.  Every other
    method takes the mass-preconditioned pressure CG of ``solve_saddle_pcg``,
    preconditioned by the system's own pressure mass.  Both routes return
    the pressure at zero discrete mean; the velocity comes back full
    length, zero on the boundary dofs.
    """
    v_space, p_space = system.spaces
    if method.route == "schur-pcg":
        x, res_rel, iterations = solve_saddle_pcg(system)
    else:
        (x, res_rel), iterations = solve_saddle(system), None
    u = v_space.extend_by_zero(x[:system.n_u])
    p = x[system.n_u:system.n_u + system.n_p]
    return StokesSolution(u=u, p=p, residual_norm=res_rel,
                          cg_iterations=iterations, v_space=v_space,
                          p_space=p_space)


def run(method: StokesMethod, mesh: Mesh, body_force) -> StokesSolution:
    return solve(build(method, mesh, body_force), method)


def loss_projection(solution: StokesSolution) -> np.ndarray:
    """The projected pressure gradient z = M_L^{-1} G p of a ``p1p1-loss``
    solution, in the vector P1 space on the solution's mesh: the auxiliary
    field that ``_loss_c_block`` eliminates."""
    g, ml = _loss_projection(solution.p_space)
    return (g @ solution.p) / ml


# ---------------------------------------------------------------------------
# manufactured solution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedProblem:
    """Analytic Stokes data: divergence-free u with zero trace, mean-zero p.

    The velocity derives from the stream function
    ``psi = sin^2(pi x) sin^2(pi y) / pi`` and the force is ``-Delta u +
    grad p`` worked out analytically.
    """

    u: callable
    p: callable
    f: callable
    grad_u: callable


def manufactured_problem() -> ManufacturedProblem:
    pi = np.pi

    def u(pts):
        x, y = pts[..., 0], pts[..., 1]
        return np.stack([np.sin(pi * x) ** 2 * np.sin(2 * pi * y),
                         -np.sin(2 * pi * x) * np.sin(pi * y) ** 2], axis=-1)

    def grad_u(pts):
        x, y = pts[..., 0], pts[..., 1]
        du1 = np.stack([pi * np.sin(2 * pi * x) * np.sin(2 * pi * y),
                        2 * pi * np.sin(pi * x) ** 2 * np.cos(2 * pi * y)],
                       axis=-1)
        du2 = np.stack([-2 * pi * np.cos(2 * pi * x) * np.sin(pi * y) ** 2,
                        -pi * np.sin(2 * pi * x) * np.sin(2 * pi * y)],
                       axis=-1)
        return np.stack([du1, du2], axis=-2)

    def p(pts):
        x, y = pts[..., 0], pts[..., 1]
        return np.sin(2 * pi * x) * np.sin(2 * pi * y)

    def f(pts):
        x, y = pts[..., 0], pts[..., 1]
        sx, sy = np.sin(pi * x), np.sin(pi * y)
        s2x, s2y = np.sin(2 * pi * x), np.sin(2 * pi * y)
        c2x, c2y = np.cos(2 * pi * x), np.cos(2 * pi * y)
        f1 = -2 * pi**2 * c2x * s2y + 4 * pi**2 * sx**2 * s2y \
            + 2 * pi * c2x * s2y
        f2 = -4 * pi**2 * s2x * sy**2 + 2 * pi**2 * s2x * c2y \
            + 2 * pi * s2x * c2y
        return np.stack([f1, f2], axis=-1)

    return ManufacturedProblem(u=u, p=p, f=f, grad_u=grad_u)


def manufactured_run(method: StokesMethod, mesh: Mesh):
    """Solve the manufactured problem on ``mesh``: ``(solution,
    {"err_u_l2", "err_u_h1", "err_p_l2": error})``."""
    problem = manufactured_problem()
    solution = run(method, mesh, problem.f)
    names = ("err_u_l2", "err_u_h1", "err_p_l2")
    return solution, dict(zip(names, errors(solution, problem)))


# ---------------------------------------------------------------------------
# errors and diagnostics
# ---------------------------------------------------------------------------

def errors(solution: StokesSolution, exact: ManufacturedProblem):
    """(err_u_l2, err_u_h1, err_p_l2) by degree-6 quadrature.

    The velocity errors (L2 and H1 seminorm) are ``field_errors``.  The exact
    pressure is shifted to discrete zero mean before comparison; against a
    piecewise-constant pressure space it is first projected elementwise.
    """
    err_u_l2, err_u_h1 = field_errors(solution.v_space, solution.u, exact.u,
                                      exact.grad_u)
    rule = quadrature(6)
    p_space = solution.p_space
    areas = triangle_areas(p_space.mesh)
    qw = np.outer(areas, rule.weights)                       # (T, nq)
    p_ex = exact.p(quadrature_points(p_space.mesh, rule))    # (T, nq)
    p_ex -= float(np.einsum("tq,tq->", qw, p_ex))            # |Omega| = 1
    if p_space.kind is ElementKind.P0:
        cell_means = np.einsum("tq,q->t", p_ex, rule.weights)
        err_p_l2 = np.sqrt(np.sum(areas * (solution.p - cell_means) ** 2))
    else:
        p_ex -= np.einsum("qb,tb->tq", tabulate(p_space.kind, rule.points)[0],
                          solution.p[p_space.scalar_cell_dofs])
        err_p_l2 = np.sqrt(np.einsum("tq,tq->", qw, np.square(p_ex, out=p_ex)))
    return err_u_l2, err_u_h1, float(err_p_l2)


def oscillation_indicator(solution: StokesSolution) -> float:
    """Total neighbour-to-neighbour pressure jump over the pressure norm.

    Sums |p_left - p_right| over interior edges (nodal endpoint difference
    for continuous pressures, adjacent cell difference for P0) -- large for
    checkerboard modes, O(h * edges) for smooth fields.
    """
    p = solution.p
    norm = float(np.linalg.norm(p))
    if norm == 0.0:
        return 0.0
    i, j = interior_edge_pairs(solution.p_space.mesh, solution.p_space.kind)
    return float(np.abs(p[i] - p[j]).sum() / norm)


def boundary_pressure_flux(solution: StokesSolution) -> float | None:
    """Perimeter-averaged |dp/dn| on the boundary for P1 pressures, None for
    a P0 pressure, which has no normal derivative.

    A diagnostic for the spurious natural condition dp/dn = 0 that plain
    gradient stabilization enforces in the small-h limit.
    """
    p_space = solution.p_space
    if p_space.kind is not ElementKind.P1:
        return None
    lengths, _, _ = boundary_edge_geometry(p_space.mesh)
    _, flux, _ = edge_bases(p_space.mesh)
    dp_dn = np.abs(np.einsum("ek,ek->e", flux.values[:, 0],
                             solution.p[flux.dofs]))
    return float((lengths * dp_dn).sum() / lengths.sum())
