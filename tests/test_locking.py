"""Penalty locking, its correction, and the multiplier reformulation."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from infsup_lab import locking
from infsup_lab.assembly import mass, solve_saddle
from infsup_lab.fespace import ElementKind, build_space
from infsup_lab.linalg import SingularMatrix
from infsup_lab.mesh import triangle_grad_lambda, unit_square_mesh


def zero_f(pts):
    return np.zeros(pts.shape)


def zero_g(pts):
    return np.zeros(pts.shape[:-1])


# locking is measured under the transverse load f = 0, g = 1, whose
# lambda -> infinity limit is nonzero; see the locking module docstring
TRANSVERSE = {"f": locking.transverse_f, "g": locking.transverse_g}


def run(config):
    """The report of a one-penalty sweep."""
    [solution] = locking.lambda_sweep(config)
    return solution.report


def reports(config):
    """The reports of ``config``'s sweep, in order."""
    return [solution.report for solution in locking.lambda_sweep(config)]


def solved_fields(system):
    """The ``solve_saddle`` vector of ``system`` split by its layout into
    free-dof coefficients per field (u, p, and w or gamma)."""
    x, _ = solve_saddle(system.saddle)
    names, sizes = zip(*system.layout)
    return dict(zip(names, np.split(x, np.cumsum(sizes)[:-1])))


# --- configuration -------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        locking.LockingConfig(lambdas=(-1.0,))
    with pytest.raises(ValueError):
        locking.LockingConfig(lambdas=(1.0,), method="penalty")
    with pytest.raises(ValueError):
        locking.LockingConfig(lambdas=(1.0,), gamma_space="p2")
    with pytest.raises(ValueError):
        locking.LockingConfig(lambdas=(1.0,), w_mass="diagonal")
    with pytest.raises(ValueError):
        locking.LockingConfig(lambdas=(0.5,), grad_div_form=True)
    with pytest.raises(ValueError):
        locking.LockingConfig(lambdas=(0.0,), method="multiplier")
    with pytest.raises(ValueError):
        locking.LockingConfig(lambdas=())
    for method in ("plain", "corrected"):
        with pytest.raises(ValueError):
            locking.LockingConfig(lambdas=(1e2, 0.0), method=method)


def test_sweep_checks_every_penalty_before_assembly(monkeypatch):
    # the first penalty is valid and the second is not: nothing is
    # assembled or solved before the sweep is rejected
    calls = []
    monkeypatch.setattr(locking, "_blocks", calls.append)
    with pytest.raises(ValueError, match="lambda > 1"):
        locking.lambda_sweep(locking.LockingConfig(
            lambdas=(1e3, 0.5), n=4, method="multiplier",
            grad_div_form=True))
    assert calls == []


def test_coefficient_split_identity():
    for lam in (1e2, 1e4, 1e6):
        alpha, beta = locking._coefficients(lam)
        assert abs(alpha + beta - lam) < 1e-12 * lam


# --- system structure ----------------------------------------------------

@pytest.mark.parametrize("builder", [locking.build_plain,
                                     locking.build_corrected,
                                     locking.build_multiplier])
def test_systems_symmetric(builder):
    method = builder.__name__.removeprefix("build_")
    cfg = locking.LockingConfig(lambdas=(1e3,), n=4, method=method)
    k = builder(cfg, locking._blocks(cfg), 1e3).saddle.full_matrix()
    assert np.abs(k - k.T).max() <= 1e-12 * np.abs(k).max()


def test_lambda_zero_decouples_and_is_singular():
    # the config rejects lambda = 0 (see test_config_validation); the
    # builder still shows why
    cfg = locking.LockingConfig(lambdas=(1e2,), n=4)
    b = locking._blocks(cfg)
    system = locking.build_plain(cfg, b, 0.0).saddle
    assert np.array_equal(system.a.toarray(), b.ku.toarray())   # pure Laplacian
    dead = np.hstack([system.b.toarray(), system.c.toarray()])
    assert np.abs(dead).max() == 0.0                            # dead p block
    with pytest.raises(SingularMatrix):
        solve_saddle(system)


@pytest.mark.parametrize("method", ["plain", "corrected", "multiplier"])
def test_zero_loads_zero_solution(method):
    report = run(locking.LockingConfig(
        lambdas=(1e3,), n=4, method=method, f=zero_f, g=zero_g))
    assert report.solve_ok
    assert report.u_h1_norm == 0.0
    assert report.p_h1_norm == 0.0


# --- corrected scheme ----------------------------------------------------

def test_corrected_w_is_lumped_projection():
    cfg = locking.LockingConfig(lambdas=(1e3,), n=4, method="corrected")
    system = locking.build(cfg, 1e3)
    b = system.blocks
    fields = solved_fields(system)
    w = np.linalg.solve(np.diag(b.ml), b.g @ fields["p"])
    assert np.abs(fields["w"] - w).max() < 1e-10 * max(np.abs(w).max(), 1.0)


def test_projection_gap_decays_under_refinement():
    # interpolants of a smooth zero-trace field: the subtracted term
    # shrinks with h, so the correction is consistent
    gaps = []
    for n in (4, 8, 16):
        mesh = unit_square_mesh(n)
        p = np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
        # ||grad q - Pi grad q|| with the lumped projection: sqrt of the
        # form S_p - G^T M_L^{-1} G that the corrected scheme subtracts
        b = locking._blocks(locking.LockingConfig(lambdas=(1.0,), n=n))
        q = p[b.free_p]
        form = b.sp - b.g.T @ sp.diags_array(1.0 / b.ml) @ b.g
        gaps.append(float(np.sqrt(max(q @ (form @ q), 0.0))))
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert 1.3 <= gaps[0] / gaps[1] <= 2.3
    assert 1.3 <= gaps[1] / gaps[2] <= 2.3


# --- locking and its cure ------------------------------------------------

def test_plain_locks():
    lo, hi = reports(locking.LockingConfig(lambdas=(1e2, 1e6), n=8,
                                           **TRANSVERSE))
    assert lo.solve_ok and hi.solve_ok
    ratio = hi.u_h1_norm / lo.u_h1_norm
    assert ratio <= 0.2


def test_plain_coercivity_grows_with_lambda():
    # smallest eigenvalue of the assembled plain matrix
    eigs = []
    for lam in (1e2, 1e4, 1e6):
        cfg = locking.LockingConfig(lambdas=(lam,), n=4)
        k = locking.build_plain(cfg, locking._blocks(cfg),
                                lam).saddle.full_matrix()
        eigs.append(np.linalg.eigvalsh(k)[0])
    assert all(e >= 0.0 for e in eigs)
    assert eigs[0] < eigs[1] < eigs[2]


def test_corrected_reaches_lambda_independent_plateau():
    # with the consistent projection the corrected scheme settles on a
    # lambda-independent solution once lambda clears the discrete
    # spectrum (~1/h^2); the lumped shortcut does not cure the collapse
    lo, hi = reports(locking.LockingConfig(
        lambdas=(1e4, 1e8), n=8, method="corrected", w_mass="consistent"))
    ratio = hi.u_h1_norm / lo.u_h1_norm
    assert 0.95 <= ratio <= 1.05


def test_corrected_beats_plain_at_large_lambda():
    r_c = run(locking.LockingConfig(
        lambdas=(1e6,), n=8, method="corrected", w_mass="consistent",
        **TRANSVERSE))
    r_p = run(locking.LockingConfig(lambdas=(1e6,), n=8, **TRANSVERSE))
    assert r_c.u_h1_norm / r_p.u_h1_norm >= 100.0


def test_lumped_projection_does_not_cure():
    lo, hi = reports(locking.LockingConfig(
        lambdas=(1e2, 1e6), n=8, method="corrected", **TRANSVERSE))
    assert hi.u_h1_norm / lo.u_h1_norm <= 0.01


def test_default_load_has_zero_limit_transverse_load_does_not():
    # for a constant f and zero-trace q, (f, grad q) = 0, so under the
    # default load the exact large-lambda solution is u = 0 and a
    # convergent scheme's norm falls under refinement; the transverse
    # load's limit is a nonzero clamped plate and its norm settles
    def norms(**loads):
        return [run(locking.LockingConfig(
                    lambdas=(1e8,), n=n, method="corrected",
                    w_mass="consistent", **loads)).u_h1_norm
                for n in (8, 16)]

    coarse, fine = norms()
    assert fine / coarse <= 0.6
    coarse, fine = norms(**TRANSVERSE)
    assert abs(fine / coarse - 1.0) <= 0.1


# --- multiplier reformulation --------------------------------------------

def test_multiplier_elimination_reproduces_plain():
    cfg = locking.LockingConfig(lambdas=(1e2,), n=4, method="multiplier")
    b = locking._blocks(cfg)
    sys_m = locking.build_multiplier(cfg, b, 1e2).saddle
    sys_p = locking.build_plain(cfg, b, 1e2).saddle
    # the (u, p) Schur complement -(c + b a^{-1} b^T) of the gamma block
    bm = sys_m.b.toarray()
    elim = -(sys_m.c.toarray() + bm @ np.linalg.solve(sys_m.a.toarray(), bm.T))
    assert np.linalg.norm(elim - sys_p.full_matrix()) <= 1e-12


def test_multiplier_solution_matches_plain():
    cfg = locking.LockingConfig(lambdas=(1e3,), n=8, method="multiplier")
    sol_m = locking.solve(locking.build(cfg, 1e3))
    sol_p = locking.solve(locking.build(
        locking.LockingConfig(lambdas=(1e3,), n=8), 1e3))
    assert np.abs(sol_m.u - sol_p.u).max() <= 1e-9 * np.abs(sol_p.u).max()


def gamma_target(config, lam, u, p):
    """Coefficients of lambda (u - grad p) in the discontinuous multiplier
    space, which interpolates it exactly: the oracle of the multiplier."""
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
        parts.append(lam * vals.ravel())
    return np.concatenate(parts)


def test_gamma_recovers_scaled_constraint_residual():
    cfg = locking.LockingConfig(lambdas=(1e3,), n=4, method="multiplier")
    system = locking.build(cfg, 1e3)
    b = system.blocks
    fields = solved_fields(system)
    target = gamma_target(cfg, 1e3, b.u_space.extend_by_zero(fields["u"]),
                          b.p_space.extend_by_zero(fields["p"]))
    m = mass(build_space(ElementKind.P1_DISC, unit_square_mesh(4),
                         components=2))
    # the discontinuous gamma space has no boundary dofs: all of it is solved
    gamma = fields["gamma"]
    assert gamma.shape == target.shape

    def norm(coeffs):                  # the L2 norm of the multiplier space
        return float(np.sqrt(coeffs @ (m @ coeffs)))

    assert norm(gamma - target) <= 1e-6 * norm(target)


def test_gamma_target_needs_discontinuous_space():
    cfg = locking.LockingConfig(lambdas=(1e3,), n=4, method="multiplier",
                                gamma_space="continuous")
    with pytest.raises(ValueError):
        gamma_target(cfg, 1e3, np.zeros(50), np.zeros(25))


def test_augmented_form_eliminates_to_plain_too():
    # splitting lambda = 1 + (lambda - 1) moves one penalty unit into
    # a(.,.); with discontinuous multipliers the sum is again exact
    cfg = locking.LockingConfig(lambdas=(100.0,), n=4, method="multiplier",
                                grad_div_form=True)
    sol_a = locking.solve(locking.build(cfg, 100.0))
    sol_p = locking.solve(locking.build(
        locking.LockingConfig(lambdas=(100.0,), n=4), 100.0))
    assert np.abs(sol_a.u - sol_p.u).max() <= 1e-9 * np.abs(sol_p.u).max()


def test_continuous_gamma_needs_augmented_form():
    # a(.,.) alone has no coercivity on the projected-constraint kernel
    report = run(locking.LockingConfig(
        lambdas=(1e6,), n=8, method="multiplier", gamma_space="continuous"))
    assert not report.solve_ok


def test_constrained_limit_eliminates_the_x_block():
    # continuous gamma with the augmented form eliminates the SPD A_X;
    # eliminating gamma instead would put 1/(lambda - 1) back into the
    # Schur complement and drift by about 1e-6 here
    report = run(locking.LockingConfig(
        lambdas=(1e12,), n=8, method="multiplier", gamma_space="continuous",
        grad_div_form=True))
    assert report.u_h1_norm == pytest.approx(2.921596515e-02, rel=1e-8)


def test_constrained_limit_matches_corrected():
    # 1/lambda -> 0 with the augmented form and zero-trace continuous
    # multipliers solves the same projected-constraint problem as the
    # corrected scheme
    n = 16
    sol_m = locking.solve(locking.build(locking.LockingConfig(
        lambdas=(1e12,), n=n, method="multiplier", gamma_space="continuous",
        grad_div_form=True), 1e12))
    cfg_c = locking.LockingConfig(lambdas=(1e12,), n=n, method="corrected",
                                  w_mass="consistent")
    system_c = locking.build(cfg_c, 1e12)
    b = system_c.blocks
    sol_c = locking.solve(system_c)
    du = (sol_m.u - sol_c.u)[b.free_u]
    gap = np.sqrt(du @ (b.ku @ du))
    assert gap <= 0.05 * sol_c.report.u_h1_norm


# --- sweep bookkeeping ----------------------------------------------------

def test_single_lambda_sweep():
    sweep = reports(locking.LockingConfig(lambdas=(7.0,), n=4))
    assert len(sweep) == 1
    assert sweep[0].lambda_ == 7.0
    assert sweep[0].solve_ok
    assert np.isfinite(sweep[0].u_h1_norm)
    assert np.isfinite(sweep[0].p_h1_norm)


def test_sweep_assembles_its_blocks_once(monkeypatch):
    # no block depends on lambda, so a sweep assembles them one time
    real_blocks = locking._blocks
    calls = []

    def recording_blocks(config):
        calls.append(config.lambdas)
        return real_blocks(config)

    monkeypatch.setattr(locking, "_blocks", recording_blocks)
    cfg = locking.LockingConfig(lambdas=(1e2, 1e4, 1e6), n=4,
                                method="corrected")
    sweep = locking.lambda_sweep(cfg)
    assert len(calls) == 1
    assert [s.report.lambda_ for s in sweep] == [1e2, 1e4, 1e6]
    for lam, solution in zip((1e2, 1e4, 1e6), sweep):
        alone = locking.solve(locking.build(
            locking.LockingConfig(lambdas=(lam,), n=4, method="corrected"),
            lam))
        assert solution.report == alone.report
        assert np.array_equal(solution.u, alone.u)
        assert np.array_equal(solution.p, alone.p)




def test_multiplier_sweep_builds_its_gamma_operators_once(monkeypatch):
    # the gamma space and its couplings do not depend on lambda either
    real_cross_mass, calls = locking.cross_mass, []

    def recording_cross_mass(*args):
        calls.append(args[0].kind)
        return real_cross_mass(*args)

    monkeypatch.setattr(locking, "cross_mass", recording_cross_mass)
    cfg = locking.LockingConfig(lambdas=(1e2, 1e4, 1e6), n=4,
                                method="multiplier")
    sweep = reports(cfg)
    assert calls == [ElementKind.P1_DISC]
    for lam, report in zip((1e2, 1e4, 1e6), sweep):
        assert report == run(dataclasses.replace(cfg, lambdas=(lam,)))
    calls.clear()
    for method in ("plain", "corrected"):
        blocks = locking._blocks(dataclasses.replace(cfg, method=method))
        assert blocks.gamma is None
    assert calls == []

# --- solver diagnostics ----------------------------------------------------

@pytest.mark.parametrize("method", ["plain", "corrected", "multiplier"])
def test_reports_carry_the_solve_residual(method):
    sweep = reports(locking.LockingConfig(lambdas=(1e2, 1e6, 1e10), n=16,
                                          method=method))
    assert all(r.solve_ok for r in sweep)
    assert all(r.residual_norm <= 1e-14 for r in sweep)


def test_failed_report_has_nan_residual():
    [solution] = locking.lambda_sweep(locking.LockingConfig(
        lambdas=(1e6,), n=4, method="multiplier", gamma_space="continuous"))
    assert not solution.report.solve_ok
    assert np.isnan(solution.report.residual_norm)
    assert solution.u is None and solution.p is None
