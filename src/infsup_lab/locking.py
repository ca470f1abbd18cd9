"""Penalty locking on the gradient-tracking functional and two cures.

The model problem minimizes, over zero-trace P1 fields (u, p),

    M(v, q) = 1/2 ||grad v||^2 + lambda/2 ||v - grad q||^2 - (f, v) - (g, q)

with a large penalty lambda.  The Euler equations in symmetric form read

    Phi((u,p),(v,q)) = (grad u, grad v) + lambda (u - grad p, v - grad q)
                     = (f, v) + (g, q).

This is a Reissner-Mindlin plate energy with grad in place of the
symmetric gradient.  Because continuous P1 vectors cannot track the
piecewise-constant gradients of Q_h, the discrete coercivity in p grows
like lambda and the discrete solution collapses toward zero as lambda
grows.  A collapse is locking only when the exact lambda -> infinity
limit is nonzero.  Under the default load f = (1, 1), g = 0 it is not:
(f, grad q) = 0 for a constant f and zero-trace q, so the exact solution
itself tends to zero and every convergent scheme follows it.  The
transverse load f = 0, g = 1 (``transverse_f``, ``transverse_g``) has a
nonzero limit, a clamped plate u = grad p with bilaplacian(p) = g, and is
the load under which locking is measured.

``corrected`` removes the spurious stiffness by subtracting
lambda^2/(lambda + c) ||grad q - Pi grad q||^2 (Pi the lumped L2
projection onto the vector P1 space, c the Poincare constant), assembled
as a three-field system in (u, p, w = Pi grad p).

``multiplier`` rewrites the penalty through gamma = lambda (u - grad p):

    [[A_X, B^T], [B, -(1/lambda) M_gamma]]

with a((u,p),(v,q)) = (grad u, grad v) and b((v,q), delta) =
(delta, v - grad q).  With elementwise-discontinuous P1 multipliers the
gamma elimination reproduces the plain system exactly, so the default
gamma space inherits the locking; the ``continuous`` option projects the
constraint the way the corrected scheme does.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .assembly import (
    cross_mass,
    grad_coupling,
    load_vector,
    lumped_mass,
    mass,
    stiffness,
)
from .fespace import ElementKind, FeSpace, build_space
from .linalg import SingularMatrix, lu_solve, sym_eig
from .mesh import Mesh, triangle_grad_lambda, unit_square_mesh

DEFAULT_POINCARE = 1.0 / (np.pi * np.sqrt(2.0))   # 1/sqrt(2 pi^2), unit square
_METHODS = ("plain", "corrected", "multiplier")


def _default_f(pts):
    return np.ones(pts.shape)


def _default_g(pts):
    return np.zeros(pts.shape[:-1])


def transverse_f(pts):
    """Vector load of the locking experiment: f = 0."""
    return np.zeros(pts.shape)


def transverse_g(pts):
    """Scalar load of the locking experiment: g = 1, a uniform plate load."""
    return np.ones(pts.shape[:-1])


@dataclass(frozen=True)
class LockingConfig:
    """One locking run: penalty, mesh resolution, scheme and loads.

    ``lambda_ = 0`` is tolerated at build time; the decoupled p-block is
    then singular and surfaces as a failed solve.
    """

    lambda_: float
    n: int = 8
    method: str = "plain"
    poincare_const: float = DEFAULT_POINCARE
    f: object = None                  # vector load, defaults to (1, 1)
    g: object = None                  # scalar load, defaults to 0
    gamma_space: str = "discontinuous"   # multiplier only: | continuous
    grad_div_form: bool = False          # multiplier only: augmented a(.,.)
    w_mass: str = "lumped"               # corrected only: | consistent

    def __post_init__(self):
        if self.lambda_ < 0:
            raise ValueError("lambda_ must be nonnegative")
        if self.poincare_const <= 0:
            raise ValueError("poincare_const must be positive")
        if self.method not in _METHODS:
            raise ValueError(f"unknown locking method {self.method!r}")
        if self.gamma_space not in ("discontinuous", "continuous"):
            raise ValueError(f"unknown gamma space {self.gamma_space!r}")
        if self.w_mass not in ("lumped", "consistent"):
            raise ValueError(f"unknown w mass treatment {self.w_mass!r}")
        if self.grad_div_form and self.lambda_ <= 1.0:
            raise ValueError("the augmented form splits lambda = 1 + "
                             "(lambda - 1) and needs lambda > 1")


@dataclass(frozen=True)
class LockingReport:
    u_h1_norm: float
    p_h1_norm: float
    lambda_: float
    method: str
    solve_ok: bool


@dataclass(frozen=True)
class LockingSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    slices: dict
    config: LockingConfig


@dataclass(frozen=True)
class LockingSolution:
    u: np.ndarray                 # full nodal vector coefficients
    p: np.ndarray                 # full nodal scalar coefficients
    w: np.ndarray | None          # corrected: projected gradient
    gamma: np.ndarray | None      # multiplier: full gamma coefficients
    report: LockingReport


@dataclass(frozen=True)
class _Blocks:
    u_space: FeSpace
    p_space: FeSpace
    free_u: np.ndarray
    free_p: np.ndarray
    ku: np.ndarray
    mu: np.ndarray
    g: np.ndarray
    sp: np.ndarray
    ml: np.ndarray
    load_u: np.ndarray
    load_p: np.ndarray


def _blocks(config: LockingConfig) -> _Blocks:
    mesh = unit_square_mesh(config.n)
    u_space = build_space(ElementKind.P1, mesh, components=2)
    p_space = build_space(ElementKind.P1, mesh)
    fu = np.setdiff1d(np.arange(u_space.n_dofs), u_space.boundary_dofs)
    fp = np.setdiff1d(np.arange(p_space.n_dofs), p_space.boundary_dofs)
    f = config.f if config.f is not None else _default_f
    g = config.g if config.g is not None else _default_g
    return _Blocks(
        u_space=u_space, p_space=p_space, free_u=fu, free_p=fp,
        ku=stiffness(u_space).toarray()[np.ix_(fu, fu)],
        mu=mass(u_space).toarray()[np.ix_(fu, fu)],
        g=grad_coupling(u_space, p_space).toarray()[np.ix_(fu, fp)],
        sp=stiffness(p_space).toarray()[np.ix_(fp, fp)],
        ml=lumped_mass(u_space)[fu],
        load_u=load_vector(u_space, f)[fu],
        load_p=load_vector(p_space, g)[fp],
    )


def _coefficients(config: LockingConfig):
    """The split lambda = c lambda/(lambda+c) + lambda^2/(lambda+c)."""
    lam, c = config.lambda_, config.poincare_const
    return c * lam / (lam + c), lam ** 2 / (lam + c)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_plain(config: LockingConfig, blocks: _Blocks | None = None) -> LockingSystem:
    b = blocks if blocks is not None else _blocks(config)
    lam = config.lambda_
    nu, np_ = len(b.free_u), len(b.free_p)
    k = np.zeros((nu + np_, nu + np_))
    k[:nu, :nu] = b.ku + lam * b.mu
    k[:nu, nu:] = -lam * b.g
    k[nu:, :nu] = -lam * b.g.T
    k[nu:, nu:] = lam * b.sp
    return LockingSystem(matrix=k, rhs=np.concatenate([b.load_u, b.load_p]),
                         slices={"u": slice(0, nu), "p": slice(nu, nu + np_)},
                         config=config)


def _w_mass(config: LockingConfig, b: _Blocks) -> np.ndarray:
    if config.w_mass == "lumped":
        return np.diag(b.ml)
    return b.mu


def build_corrected(config: LockingConfig, eliminated: bool = False,
                    blocks: _Blocks | None = None) -> LockingSystem:
    b = blocks if blocks is not None else _blocks(config)
    lam = config.lambda_
    alpha, beta = _coefficients(config)
    m_w = _w_mass(config, b)
    nu, np_ = len(b.free_u), len(b.free_p)
    if eliminated:
        k = np.zeros((nu + np_, nu + np_))
        k[:nu, :nu] = b.ku + lam * b.mu
        k[:nu, nu:] = -lam * b.g
        k[nu:, :nu] = -lam * b.g.T
        k[nu:, nu:] = alpha * b.sp + beta * (b.g.T @ np.linalg.solve(m_w, b.g))
        slices = {"u": slice(0, nu), "p": slice(nu, nu + np_)}
        return LockingSystem(k, np.concatenate([b.load_u, b.load_p]),
                             slices, config)
    # explicit three-field form; the w rows are scaled by beta to stay
    # symmetric
    n = nu + np_ + nu
    k = np.zeros((n, n))
    su, sq, sw = slice(0, nu), slice(nu, nu + np_), slice(nu + np_, n)
    k[su, su] = b.ku + lam * b.mu
    k[su, sq] = -lam * b.g
    k[sq, su] = -lam * b.g.T
    k[sq, sq] = alpha * b.sp
    k[sq, sw] = beta * b.g.T
    k[sw, sq] = beta * b.g
    k[sw, sw] = -beta * m_w
    rhs = np.concatenate([b.load_u, b.load_p, np.zeros(nu)])
    return LockingSystem(k, rhs, {"u": su, "p": sq, "w": sw}, config)


def _gamma_space(config: LockingConfig, mesh: Mesh):
    """(space, kept dof indices); the continuous variant is zero-trace."""
    if config.gamma_space == "discontinuous":
        space = build_space(ElementKind.P1_DISC, mesh, components=2)
        return space, np.arange(space.n_dofs)
    space = build_space(ElementKind.P1, mesh, components=2)
    return space, np.setdiff1d(np.arange(space.n_dofs), space.boundary_dofs)


def build_multiplier(config: LockingConfig,
                     blocks: _Blocks | None = None) -> LockingSystem:
    b = blocks if blocks is not None else _blocks(config)
    mesh = b.u_space.mesh
    y_space, y_keep = _gamma_space(config, mesh)
    ny = len(y_keep)
    b_u = cross_mass(y_space, b.u_space).toarray()[np.ix_(y_keep, b.free_u)]
    b_p = -grad_coupling(y_space, b.p_space).toarray()[np.ix_(y_keep, b.free_p)]
    m_y = mass(y_space).toarray()[np.ix_(y_keep, y_keep)]
    penalty = config.lambda_ - 1.0 if config.grad_div_form else config.lambda_
    nu, np_ = len(b.free_u), len(b.free_p)
    n = nu + np_ + ny
    k = np.zeros((n, n))
    su, sq, sy = slice(0, nu), slice(nu, nu + np_), slice(nu + np_, n)
    k[su, su] = b.ku
    if config.grad_div_form:
        k[su, su] += b.mu
        k[su, sq] = -b.g
        k[sq, su] = -b.g.T
        k[sq, sq] = b.sp
    k[su, sy] = b_u.T
    k[sq, sy] = b_p.T
    k[sy, su] = b_u
    k[sy, sq] = b_p
    k[sy, sy] = -m_y / penalty
    rhs = np.concatenate([b.load_u, b.load_p, np.zeros(ny)])
    return LockingSystem(k, rhs, {"u": su, "p": sq, "gamma": sy}, config)


_BUILDERS = {"plain": build_plain, "corrected": build_corrected,
             "multiplier": build_multiplier}


def build(config: LockingConfig) -> LockingSystem:
    return _BUILDERS[config.method](config)


# ---------------------------------------------------------------------------
# solving and reporting
# ---------------------------------------------------------------------------

def solve(system: LockingSystem, blocks: _Blocks | None = None) -> LockingSolution:
    b = blocks if blocks is not None else _blocks(system.config)
    x = lu_solve(system.matrix, system.rhs)
    uf = x[system.slices["u"]]
    pf = x[system.slices["p"]]
    u = np.zeros(b.u_space.n_dofs)
    u[b.free_u] = uf
    p = np.zeros(b.p_space.n_dofs)
    p[b.free_p] = pf
    w = gamma = None
    if "w" in system.slices:
        w = np.zeros(b.u_space.n_dofs)
        w[b.free_u] = x[system.slices["w"]]
    if "gamma" in system.slices:
        y_space, y_keep = _gamma_space(system.config, b.u_space.mesh)
        gamma = np.zeros(y_space.n_dofs)
        gamma[y_keep] = x[system.slices["gamma"]]
    report = LockingReport(
        u_h1_norm=float(np.sqrt(uf @ (b.ku @ uf))),
        p_h1_norm=float(np.sqrt(pf @ (b.sp @ pf))),
        lambda_=system.config.lambda_, method=system.config.method,
        solve_ok=True)
    return LockingSolution(u=u, p=p, w=w, gamma=gamma, report=report)


def run(config: LockingConfig) -> LockingReport:
    """Build and solve; a singular system becomes a failed report."""
    blocks = _blocks(config)
    system = _BUILDERS[config.method](config, blocks=blocks)
    try:
        return solve(system, blocks=blocks).report
    except SingularMatrix:
        return LockingReport(u_h1_norm=float("nan"), p_h1_norm=float("nan"),
                             lambda_=config.lambda_, method=config.method,
                             solve_ok=False)


def lambda_sweep(config: LockingConfig, lambdas) -> list:
    return [run(dataclasses.replace(config, lambda_=float(lam)))
            for lam in lambdas]


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def coercivity_eigenvalue(config: LockingConfig) -> float:
    """Smallest eigenvalue of the assembled plain matrix."""
    system = build_plain(config)
    lam, _ = sym_eig(system.matrix)
    return float(lam[-1])


def projection_gap(config: LockingConfig, p_coeffs) -> float:
    """sqrt of the corrected scheme's subtracted form at a nodal p field.

    This is ||grad q - Pi grad q|| with the lumped projection, the
    quantity whose failure to vanish drives the locking.
    """
    b = _blocks(config)
    q = np.asarray(p_coeffs, dtype=float)[b.free_p]
    form = b.sp - b.g.T @ (b.g / b.ml[:, None])
    return float(np.sqrt(max(q @ (form @ q), 0.0)))


def gamma_target(config: LockingConfig, u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Coefficients of lambda (u - grad p) in the multiplier space."""
    if config.gamma_space != "discontinuous":
        raise ValueError("only the discontinuous gamma space interpolates "
                         "lambda (u - grad p) exactly")
    mesh = unit_square_mesh(config.n)
    tri = mesh.triangles
    grad_p = np.einsum("tkd,tk->td", triangle_grad_lambda(mesh), p[tri])
    n_sc = mesh.n_nodes
    parts = []
    for c in range(2):
        vals = u[c * n_sc:][tri] - grad_p[:, c][:, None]      # (T, 3)
        parts.append(config.lambda_ * vals.ravel())
    return np.concatenate(parts)


def gamma_mass_norm(config: LockingConfig, coeffs: np.ndarray) -> float:
    y_space, _ = _gamma_space(config, unit_square_mesh(config.n))
    m = mass(y_space)
    return float(np.sqrt(coeffs @ (m @ coeffs)))
