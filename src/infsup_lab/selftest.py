"""End-to-end acceptance checks behind the ``selftest`` subcommand.

Each check re-runs one experiment family at desk scale and compares the
measured quantity against a fixed threshold.  Results carry the measured
numbers so a failure is diagnosable straight from the printed table.
The heavy runs are cached so the table and the test suite share work.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import infsup, locking, stokes, verify, weakbc
from .fespace import ElementKind, moments, quadrature, tabulate
from .mesh import unit_square_mesh


@dataclass(frozen=True)
class CheckResult:
    number: int
    label: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# cached experiment runs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def weighted_betas(pair: str) -> tuple:
    return tuple(infsup.study(pair, unit_square_mesh(n)).beta
                 for n in (4, 8, 16))


@lru_cache(maxsize=None)
def stokes_slopes(name: str) -> dict:
    method = stokes.method_from_name(name)
    report = verify.run_convergence(
        lambda mesh: stokes.manufactured_run(method, mesh)[1], (8, 16, 32),
        method=name, problem="stokes-mms")
    return dict(report.slopes)


@lru_cache(maxsize=None)
def locking_ratio(method: str, w_mass: str) -> float:
    cfg = locking.LockingConfig(lambdas=(1e2, 1e6), n=8, method=method,
                                w_mass=w_mass, f=locking.transverse_f,
                                g=locking.transverse_g)
    lo, hi = (s.report for s in locking.lambda_sweep(cfg))
    return hi.u_h1_norm / lo.u_h1_norm


@lru_cache(maxsize=None)
def nitsche_mms_slopes() -> dict:
    problem = weakbc.mms_problem()
    method = weakbc.method_from_name("nitsche")

    def builder(mesh):
        system = weakbc.build(method, mesh, problem.f, problem.d)
        l2, h1 = weakbc.errors(system.spaces[0],
                               weakbc.solve(method, system).u, problem)
        return {"err_l2": l2, "err_h1": h1}

    report = verify.run_convergence(builder, (8, 16, 32),
                                    method="nitsche", problem="reaction-mms")
    return dict(report.slopes)


# ---------------------------------------------------------------------------
# the twelve checks
# ---------------------------------------------------------------------------

def check_taylor_hood_stability() -> CheckResult:
    betas = weighted_betas("taylor-hood")
    drift = max(betas) / min(betas) - 1.0
    return CheckResult(1, "taylor-hood weighted beta drift <= 15%",
                       drift <= 0.15,
                       f"betas={[f'{b:.5f}' for b in betas]} drift={drift:.2%}")


def check_equal_order_decay() -> CheckResult:
    betas = weighted_betas("p1p1")
    r1, r2 = betas[0] / betas[1], betas[1] / betas[2]
    return CheckResult(2, "p1p1 weighted beta decays >= 1.3x per refinement",
                       r1 >= 1.3 and r2 >= 1.3,
                       f"betas={[f'{b:.5f}' for b in betas]} "
                       f"ratios={r1:.3f},{r2:.3f}")


def check_mini_stability() -> CheckResult:
    betas = weighted_betas("mini")
    drift = max(betas) / min(betas) - 1.0
    return CheckResult(3, "mini weighted beta drift <= 20%",
                       drift <= 0.20,
                       f"betas={[f'{b:.5f}' for b in betas]} drift={drift:.2%}")


def check_checkerboard_mode() -> CheckResult:
    mesh = unit_square_mesh(8)
    report = infsup.study("p1p0", mesh)
    score = infsup.alternation_score(report.worst_pressure_mode, mesh,
                                     ElementKind.P0)
    return CheckResult(4, "p1p0 worst mode sign-alternation >= 0.8 (n=8)",
                       score >= 0.8, f"score={score:.4f}")


def check_loss_convergence() -> CheckResult:
    slopes = stokes_slopes("p1p1-loss")
    ok = slopes["err_u_h1"] >= 0.9 and slopes["err_p_l2"] >= 0.9
    return CheckResult(5, "p1p1-loss slopes: u_h1 >= 0.9, p_l2 >= 0.9",
                       ok, f"u_h1={slopes['err_u_h1']:.3f} "
                           f"p_l2={slopes['err_p_l2']:.3f}")


def check_brezzi_pitkaranta_convergence() -> CheckResult:
    slopes = stokes_slopes("brezzi-pitkaranta")
    return CheckResult(6, "brezzi-pitkaranta slope: u_h1 >= 0.9",
                       slopes["err_u_h1"] >= 0.9,
                       f"u_h1={slopes['err_u_h1']:.3f}")


def check_taylor_hood_convergence() -> CheckResult:
    slopes = stokes_slopes("taylor-hood")
    ok = slopes["err_u_h1"] >= 1.9 and slopes["err_p_l2"] >= 1.7
    return CheckResult(7, "taylor-hood slopes: u_h1 >= 1.9, p_l2 >= 1.7",
                       ok, f"u_h1={slopes['err_u_h1']:.3f} "
                           f"p_l2={slopes['err_p_l2']:.3f}")


def check_locking_and_cure() -> CheckResult:
    # Run under the transverse load f = 0, g = 1, whose lambda -> infinity
    # limit is a nonzero clamped plate and whose exact u_h1(lambda) is
    # nearly flat over {1e2, 1e6}.  (Under the default f = (1, 1), g = 0
    # the exact limit is u = 0, so no convergent scheme could hold its
    # norm.)  The plain form collapses; the corrected form with the
    # consistent projection holds; the lumped projection fails to cancel
    # the penalty and collapses too.
    plain = locking_ratio("plain", "lumped")
    lumped = locking_ratio("corrected", "lumped")
    consistent = locking_ratio("corrected", "consistent")
    corrected_ok = 0.8 <= consistent <= 1.25 or 0.8 <= lumped <= 1.25
    return CheckResult(8, "locking ratios: plain <= 0.2, corrected in "
                          "[0.8, 1.25]",
                       plain <= 0.2 and corrected_ok,
                       f"plain={plain:.2e} corrected(lumped)={lumped:.2e} "
                       f"corrected(consistent)={consistent:.3f}")


def check_multiplier_elimination() -> CheckResult:
    cfg = locking.LockingConfig(lambdas=(1e2,), n=4, method="multiplier")
    multiplier = locking.build(cfg, 1e2)
    sys_m = multiplier.saddle
    sys_p = locking.build_plain(cfg, multiplier.blocks, 1e2).saddle
    # the (u, p) Schur complement -(c + b a^{-1} b^T) of the gamma block
    b = sys_m.b.toarray()
    elim = -(sys_m.c.toarray() + b @ np.linalg.solve(sys_m.a.toarray(), b.T))
    gap = float(np.linalg.norm(elim - sys_p.full_matrix()))
    return CheckResult(9, "multiplier elimination reproduces plain "
                          "(Frobenius <= 1e-12)",
                       gap <= 1e-12, f"gap={gap:.2e}")


def check_nitsche() -> CheckResult:
    mesh = unit_square_mesh(8)

    def ones(pts):
        return np.ones(pts.shape[:-1])              # -Lap(1) + 1 = 1

    sol = weakbc.run(weakbc.method_from_name("nitsche"), mesh, ones, ones)
    dev = float(np.abs(sol.u - 1.0).max())
    slope = nitsche_mms_slopes()["err_h1"]
    return CheckResult(10, "nitsche: u=1 reproduced <= 1e-10, "
                           "MMS H1 slope >= 0.9",
                       dev <= 1e-10 and slope >= 0.9,
                       f"max|u-1|={dev:.2e} slope={slope:.3f}")


def check_penalty_multiplier_equivalence() -> CheckResult:
    problem = weakbc.mms_problem()
    gap = weakbc.equivalence_check(unit_square_mesh(4), problem.f,
                                   problem.d, alpha=0.1)
    return CheckResult(11, "flux-multiplier vs penalty equivalence <= 1e-9",
                       gap <= 1e-9, f"relative H1 gap={gap:.2e}")


def check_assembly_requadrature() -> CheckResult:
    # the 12-point rule is exact for every product of two element
    # polynomials: all 16 slot blocks of the 25 pairs agree to round-off
    rule, worst, tables = quadrature(6), 0.0, {}
    for kind in ElementKind:
        values, derivatives = tabulate(kind, rule.points)
        tables[kind] = np.concatenate([values[..., None], derivatives], -1)
    for rows, cols in itertools.product(ElementKind, repeat=2):
        exact = moments(rows, cols)
        quad = np.einsum("q,qbl,qcm->lmbc", rule.weights, tables[rows],
                         tables[cols])
        gaps = np.linalg.norm(quad - exact, axis=(2, 3))        # (4, 4)
        scale = np.linalg.norm(exact, axis=(2, 3))     # 0 for P0 slopes
        worst = max(worst, np.max(gaps / np.where(scale > 0, scale, 1.0)))
    return CheckResult(12, "exact element moments = 12-point rule <= 1e-12 "
                           "(25 pairs)",
                       worst <= 1e-12, f"worst relative gap={worst:.2e}")


CHECKS = (
    check_taylor_hood_stability,
    check_equal_order_decay,
    check_mini_stability,
    check_checkerboard_mode,
    check_loss_convergence,
    check_brezzi_pitkaranta_convergence,
    check_taylor_hood_convergence,
    check_locking_and_cure,
    check_multiplier_elimination,
    check_nitsche,
    check_penalty_multiplier_equivalence,
    check_assembly_requadrature,
)


def run_all() -> list[CheckResult]:
    return [fn() for fn in CHECKS]
