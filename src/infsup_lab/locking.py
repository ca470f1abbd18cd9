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
projection onto the vector P1 space, c = ``POINCARE`` the Poincare
constant of the unit square), assembled as a three-field system in
(u, p, w = Pi grad p).

``multiplier`` rewrites the penalty through gamma = lambda (u - grad p):

    [[A_X, B^T], [B, -(1/lambda) M_gamma]]

with a((u,p),(v,q)) = (grad u, grad v) and b((v,q), delta) =
(delta, v - grad q).  With elementwise-discontinuous P1 multipliers the
gamma elimination reproduces the plain system exactly, so the default
gamma space inherits the locking; the ``continuous`` option projects the
constraint the way the corrected scheme does.

Every scheme is an ``assembly.SaddleSystem`` of sparse blocks solved by
``assembly.solve_saddle``, whose Schur LU gives the singularity verdict:
dense after a SuperLU factor of the eliminated block, sparse after an
element-block inverse.  The eliminated block ``a`` is K_u + lambda M_u
(``plain``), diag(K_u + lambda M_u, -beta M_w) on (u, w) (``corrected``),
A_X for continuous gamma with the augmented form (eliminating gamma would
put the penalty back), and -M_gamma/penalty for every other
``multiplier`` (A_X alone is singular; with discontinuous gamma it
reproduces ``plain``).  Discontinuous gamma makes M_gamma block-diagonal
by element, so its inverse is exact and element-local (static
condensation) and the condensed Schur complement on (u, p) is a sparse
P1-stencil operator.  A run is a sweep: no block (the gamma space and its
operators included) depends on lambda, so ``lambda_sweep`` assembles them
once and returns u, p and the report at each penalty of the config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (
    SaddleSystem,
    cross_mass,
    free_vector_block,
    grad_coupling,
    load_vector,
    lumped_mass,
    mass,
    solve_saddle,
    stiffness,
)
from .fespace import ElementKind, FeSpace, build_space
from .linalg import SingularMatrix
from .mesh import unit_square_mesh

POINCARE = 1.0 / (np.pi * np.sqrt(2.0))   # 1/sqrt(2 pi^2), unit square
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
    """One locking run: the penalties of its sweep, in order, on one mesh,
    scheme and loads.  Every penalty is checked here, before any assembly:
    lambda > 0 (at 0 the p-block decouples), and lambda > 1 with
    ``grad_div_form``, which splits lambda = 1 + (lambda - 1).
    """

    lambdas: tuple
    n: int = 8
    method: str = "plain"
    f: object = _default_f            # vector load, (1, 1)
    g: object = _default_g            # scalar load, 0
    gamma_space: str = "discontinuous"   # multiplier only: | continuous
    grad_div_form: bool = False          # multiplier only: augmented a(.,.)
    w_mass: str = "lumped"               # corrected only: | consistent

    def __post_init__(self):
        if not self.lambdas:
            raise ValueError("lambdas must name at least one value")
        if any(lam <= 0 for lam in self.lambdas):
            raise ValueError("penalty values must be > 0")
        if self.method not in _METHODS:
            raise ValueError(f"unknown locking method {self.method!r}")
        if self.gamma_space not in ("discontinuous", "continuous"):
            raise ValueError(f"unknown gamma space {self.gamma_space!r}")
        if self.w_mass not in ("lumped", "consistent"):
            raise ValueError(f"unknown w mass treatment {self.w_mass!r}")
        if self.grad_div_form and any(lam <= 1.0 for lam in self.lambdas):
            raise ValueError("the augmented form splits lambda = 1 + "
                             "(lambda - 1) and needs lambda > 1")


@dataclass(frozen=True)
class LockingReport:
    u_h1_norm: float
    p_h1_norm: float
    lambda_: float
    solve_ok: bool
    residual_norm: float          # relative residual of the solve; NaN if failed


@dataclass(frozen=True)
class _GammaBlocks:               # the multiplier operators on kept gamma dofs
    b_x: sp.csr_array             # [(gamma, u), -(gamma, grad p)]
    m_y: sp.csr_array


@dataclass(frozen=True)
class _Blocks:                    # no block depends on lambda
    u_space: FeSpace
    p_space: FeSpace
    free_u: np.ndarray
    free_p: np.ndarray
    ku: sp.csr_array
    mu: sp.csr_array
    g: sp.csr_array
    sp: sp.csr_array
    ml: np.ndarray
    load_u: np.ndarray
    load_p: np.ndarray
    gamma: _GammaBlocks | None    # multiplier only


@dataclass(frozen=True)
class LockingSystem:
    saddle: SaddleSystem
    layout: tuple                 # ((field, size), ...) in the order of x
    lambda_: float                # the penalty the system was built at
    blocks: _Blocks               # the operators the system was built from


@dataclass(frozen=True)
class LockingSolution:
    u: np.ndarray | None          # full nodal vector coefficients; None if failed
    p: np.ndarray | None          # full nodal scalar coefficients; None if failed
    report: LockingReport


def _gamma_blocks(config: LockingConfig, u_space: FeSpace, p_space: FeSpace,
                  fu: np.ndarray, fp: np.ndarray) -> _GammaBlocks:
    """The multiplier space (zero-trace when continuous) and its couplings."""
    kind = (ElementKind.P1_DISC if config.gamma_space == "discontinuous"
            else ElementKind.P1)
    y_space = build_space(kind, u_space.mesh, components=2)
    keep = y_space.free_dofs()
    return _GammaBlocks(
        b_x=sp.hstack([cross_mass(y_space, u_space)[keep][:, fu],
                       -grad_coupling(y_space, p_space)[keep][:, fp]]),
        m_y=mass(y_space)[keep][:, keep])


def _blocks(config: LockingConfig) -> _Blocks:
    mesh = unit_square_mesh(config.n)
    u_space = build_space(ElementKind.P1, mesh, components=2)
    p_space = build_space(ElementKind.P1, mesh)
    fu, fp = u_space.free_dofs(), p_space.free_dofs()
    return _Blocks(
        u_space=u_space, p_space=p_space, free_u=fu, free_p=fp,
        ku=free_vector_block(stiffness, u_space),
        mu=free_vector_block(mass, u_space),
        g=grad_coupling(u_space, p_space)[fu][:, fp],
        sp=stiffness(p_space)[fp][:, fp],
        ml=lumped_mass(u_space)[fu],
        load_u=load_vector(u_space, config.f)[fu],
        load_p=load_vector(p_space, config.g)[fp],
        gamma=(_gamma_blocks(config, u_space, p_space, fu, fp)
               if config.method == "multiplier" else None),
    )


def _coefficients(lam: float):
    """The split lambda = c lambda/(lambda+c) + lambda^2/(lambda+c)."""
    return POINCARE * lam / (lam + POINCARE), lam ** 2 / (lam + POINCARE)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _system(lam: float, source: _Blocks, layout: tuple,
            a, b, c, f, g) -> LockingSystem:
    """``[[a, b^T], [b, -c]] x = [f, g]``, x split by ``layout``."""
    saddle = SaddleSystem(a=sp.csr_array(a), b=sp.csr_array(b),
                          c=sp.csr_array(c), f=f, g=g, pressure_mass=None)
    return LockingSystem(saddle, layout, lam, source)


def build_plain(config: LockingConfig, b: _Blocks,
                lam: float) -> LockingSystem:
    return _system(lam, b, (("u", len(b.free_u)), ("p", len(b.free_p))),
                   a=b.ku + lam * b.mu, b=-lam * b.g.T, c=-lam * b.sp,
                   f=b.load_u, g=b.load_p)


def _w_mass(config: LockingConfig, b: _Blocks) -> sp.sparray:
    if config.w_mass == "lumped":
        return sp.diags_array(b.ml)
    return b.mu


def build_corrected(config: LockingConfig, b: _Blocks,
                    lam: float) -> LockingSystem:
    """Three-field form in (u, w, p); the w rows are scaled by beta to stay
    symmetric.  Its Schur complement in p is the eliminated two-field form
    with p-block alpha S_p + beta G^T M_w^{-1} G."""
    alpha, beta = _coefficients(lam)
    nu = len(b.free_u)
    return _system(lam, b, (("u", nu), ("w", nu), ("p", len(b.free_p))),
                   a=sp.block_diag([b.ku + lam * b.mu,
                                    -beta * _w_mass(config, b)]),
                   b=sp.hstack([-lam * b.g.T, beta * b.g.T]),
                   c=-alpha * b.sp,
                   f=np.concatenate([b.load_u, np.zeros(nu)]), g=b.load_p)


def build_multiplier(config: LockingConfig, b: _Blocks,
                     lam: float) -> LockingSystem:
    b_x, m_y = b.gamma.b_x, b.gamma.m_y
    nu, np_, ny = len(b.free_u), len(b.free_p), m_y.shape[0]
    load_x = np.concatenate([b.load_u, b.load_p])
    if config.grad_div_form:
        a_x = sp.block_array([[b.ku + b.mu, -b.g], [-b.g.T, b.sp]])
        penalty = lam - 1.0
    else:
        a_x = sp.block_diag([b.ku, sp.csr_array((np_, np_))])
        penalty = lam
    if config.grad_div_form and config.gamma_space == "continuous":
        # A_X is SPD here, and eliminating gamma would put 1/penalty back
        return _system(lam, b, (("u", nu), ("p", np_), ("gamma", ny)),
                       a=a_x, b=b_x, c=m_y / penalty,
                       f=load_x, g=np.zeros(ny))
    return _system(lam, b, (("gamma", ny), ("u", nu), ("p", np_)),
                   a=-m_y / penalty, b=b_x.T, c=-a_x,
                   f=np.zeros(ny), g=load_x)


_BUILDERS = {"plain": build_plain, "corrected": build_corrected,
             "multiplier": build_multiplier}


def build(config: LockingConfig, lam: float) -> LockingSystem:
    """The system of ``config``'s scheme, mesh and loads at penalty ``lam``."""
    return _BUILDERS[config.method](config, _blocks(config), lam)


# ---------------------------------------------------------------------------
# solving and reporting
# ---------------------------------------------------------------------------

def solve(system: LockingSystem) -> LockingSolution:
    b = system.blocks
    x, residual = solve_saddle(system.saddle)
    names, sizes = zip(*system.layout)
    parts = dict(zip(names, np.split(x, np.cumsum(sizes)[:-1])))
    uf, pf = parts["u"], parts["p"]
    report = LockingReport(
        u_h1_norm=float(np.sqrt(uf @ (b.ku @ uf))),
        p_h1_norm=float(np.sqrt(pf @ (b.sp @ pf))),
        lambda_=system.lambda_, solve_ok=True, residual_norm=residual)
    return LockingSolution(u=b.u_space.extend_by_zero(uf),
                           p=b.p_space.extend_by_zero(pf), report=report)


def lambda_sweep(config: LockingConfig) -> list:
    """One ``LockingSolution`` per penalty of ``config``, in order, all built
    from one assembly of the blocks; a singular system becomes a failed
    report with no fields."""
    b = _blocks(config)
    solutions = []
    for lam in config.lambdas:
        try:
            solutions.append(solve(_BUILDERS[config.method](config, b, lam)))
        except SingularMatrix:
            nan = float("nan")
            solutions.append(LockingSolution(None, None, LockingReport(
                nan, nan, lam, solve_ok=False, residual_norm=nan)))
    return solutions
