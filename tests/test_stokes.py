"""Stokes method tests: manufactured solution, stabilization, convergence."""

import functools

import numpy as np
import pytest

from infsup_lab import cli, infsup, stokes
from infsup_lab.assembly import (divergence, grad_coupling, load_vector,
                                 lumped_mass, stiffness)
from infsup_lab.fespace import (build_space, ElementKind, quadrature,
                                quadrature_points)
from infsup_lab.linalg import SingularMatrix
from infsup_lab.mesh import triangle_areas, unit_square_mesh
from oracles import dof_coords, lu_solve

EXACT = stokes.manufactured_problem()

SOLVABLE = ["p1p1-loss", "brezzi-pitkaranta", "galerkin-ls", "douglas-wang",
            "taylor-hood", "mini", "p2p0"]


@functools.lru_cache(maxsize=None)
def mms_run(name, n):
    method = stokes.method_from_name(name)
    system = stokes.build(method, unit_square_mesh(n), EXACT.f)
    return system, stokes.solve(system, method)


def discrete_mean(solution):
    ones = load_vector(solution.p_space, lambda q: np.ones(q.shape[:-1]))
    return float(ones @ solution.p)


# --- manufactured problem -------------------------------------------------

def test_force_matches_finite_differences():
    # -lap(u) + grad(p) via central differences; step 1e-5 puts the
    # second-difference roundoff near 1e-5 absolute, so the tolerance is
    # relative to the force scale (|f| ~ 60).
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.01, 0.99, size=(50, 2))
    h = 1e-5
    dx, dy = np.array([h, 0.0]), np.array([0.0, h])
    lap = (EXACT.u(pts + dx) + EXACT.u(pts - dx) + EXACT.u(pts + dy)
           + EXACT.u(pts - dy) - 4 * EXACT.u(pts)) / h ** 2
    grad_p = np.stack([(EXACT.p(pts + dx) - EXACT.p(pts - dx)) / (2 * h),
                       (EXACT.p(pts + dy) - EXACT.p(pts - dy)) / (2 * h)],
                      axis=-1)
    f_fd = -lap + grad_p
    scale = np.abs(f_fd).max()
    assert np.abs(EXACT.f(pts) - f_fd).max() <= 1e-6 * scale


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.01, 0.99, size=(30, 2))
    h = 1e-6
    dx, dy = np.array([h, 0.0]), np.array([0.0, h])
    # stacking the x- and y-differences last already gives the
    # grad_u[..., i, j] = d u_i / d x_j layout
    g = np.stack([(EXACT.u(pts + dx) - EXACT.u(pts - dx)) / (2 * h),
                  (EXACT.u(pts + dy) - EXACT.u(pts - dy)) / (2 * h)], axis=-1)
    assert np.abs(EXACT.grad_u(pts) - g).max() <= 1e-6


def test_velocity_divergence_free():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    g = EXACT.grad_u(pts)
    assert np.abs(g[..., 0, 0] + g[..., 1, 1]).max() <= 1e-12


def test_velocity_zero_trace():
    s = np.linspace(0.0, 1.0, 17)
    for edge in ([s, 0 * s], [s, 0 * s + 1], [0 * s, s], [0 * s + 1, s]):
        pts = np.stack(edge, axis=-1)
        assert np.abs(EXACT.u(pts)).max() <= 1e-14


def cell_integrals(mesh, func):
    """The integral of ``func`` over each cell by the 12-point rule, which
    ``stokes.errors`` uses (``load_vector`` takes the 6-point rule)."""
    rule = quadrature(6)
    return triangle_areas(mesh) * (func(quadrature_points(mesh, rule))
                                   @ rule.weights)


def test_pressure_mean_zero_on_fine_mesh():
    mesh = unit_square_mesh(32)
    assert abs(cell_integrals(mesh, EXACT.p).sum()) <= 1e-6


def test_problem_fields_have_the_shapes_errors_reads():
    # velocity, pressure, force and velocity gradient at (..., 2) points
    pts = np.random.default_rng(4).uniform(size=(5, 3, 2))
    assert EXACT.u(pts).shape == EXACT.f(pts).shape == (5, 3, 2)
    assert EXACT.p(pts).shape == (5, 3)
    assert EXACT.grad_u(pts).shape == (5, 3, 2, 2)


# --- build ----------------------------------------------------------------

@pytest.mark.parametrize("name", SOLVABLE)
def test_zero_data_gives_zero_solution(name):
    method = stokes.method_from_name(name)
    system = stokes.build(method, unit_square_mesh(4),
                          lambda pts: np.zeros(pts.shape))
    sol = stokes.solve(system, method)
    assert np.abs(sol.u).max() <= 1e-12
    assert np.abs(sol.p).max() <= 1e-12


def test_zero_data_plain_pair_still_singular():
    # the equal-order pair keeps its spurious pressure kernel regardless of
    # the load, so even f = 0 cannot be solved by elimination
    method = stokes.method_from_name("p1p1-plain")
    system = stokes.build(method, unit_square_mesh(4),
                          lambda pts: np.zeros(pts.shape))
    with pytest.raises(SingularMatrix):
        stokes.solve(system, method)


@pytest.mark.parametrize("n", (2, 4, 8, 16, 32))
def test_plain_pair_singular_at_every_refinement(n):
    method = stokes.method_from_name("p1p1-plain")
    for force in (EXACT.f, lambda pts: np.zeros(pts.shape)):
        with pytest.raises(SingularMatrix):
            stokes.run(method, unit_square_mesh(n), force)


def test_loss_stabilization_block_psd_with_constant_kernel():
    system, _ = mms_run("p1p1-loss", 8)
    c = system.c.toarray()
    w = np.linalg.eigvalsh(c)
    assert w.min() >= -1e-12 * w.max()
    assert np.linalg.norm(c @ np.ones(c.shape[0])) <= 1e-12


def loss_three_field(mesh, body_force):
    """The explicit (u, p, z) system behind ``p1p1-loss``, an oracle for
    its lumped elimination: dense ``(matrix, rhs, slices)`` with u on the
    free velocity dofs, slices mapping field names to index ranges, and the
    z rows scaled by h^2 so the matrix is symmetric."""
    v_space = build_space(ElementKind.P1, mesh, components=2)
    p_space = build_space(ElementKind.P1, mesh)
    z_space = build_space(ElementKind.P1, mesh, components=2)
    h2 = mesh.h ** 2
    free = v_space.free_dofs()

    nu, np_, nz = len(free), p_space.n_dofs, z_space.n_dofs
    n = nu + np_ + nz + 1
    k = np.zeros((n, n))
    rhs = np.zeros(n)
    iu = slice(0, nu)
    ip = slice(nu, nu + np_)
    iz = slice(nu + np_, nu + np_ + nz)

    g = grad_coupling(z_space, p_space).toarray()       # (nz, np)
    bd = divergence(v_space, p_space)[:, free].toarray()
    mean = load_vector(p_space, lambda q: np.ones(q.shape[:-1]))
    k[iu, iu] = stiffness(v_space)[free][:, free].toarray()
    k[iu, ip] = bd.T
    k[ip, iu] = bd
    k[ip, ip] = -h2 * stiffness(p_space).toarray()
    k[ip, iz] = h2 * g.T
    k[iz, ip] = h2 * g
    k[iz, iz] = -h2 * np.diag(lumped_mass(z_space))
    k[ip, -1] = mean
    k[-1, ip] = mean
    rhs[iu] = load_vector(v_space, body_force)[free]
    return k, rhs, {"u": iu, "p": ip, "z": iz}


def test_loss_eliminated_matches_three_field():
    mesh = unit_square_mesh(8)
    system, sol = mms_run("p1p1-loss", 8)
    k, rhs, idx = loss_three_field(mesh, EXACT.f)
    assert np.linalg.norm(k - k.T) <= 1e-12 * np.linalg.norm(k)
    x = lu_solve(k, rhs)
    u = sol.u[sol.v_space.free_dofs()]
    scale = np.linalg.norm(u) + 1.0
    assert np.linalg.norm(x[idx["u"]] - u) <= 1e-9 * scale
    z = stokes.loss_projection(sol)
    assert z.shape == sol.u.shape
    assert np.linalg.norm(x[idx["z"]] - z) <= 1e-9 * (np.linalg.norm(z) + 1.0)


def test_projection_field_only_for_loss(tmp_path):
    # the VTK export is the one run output that reads the projection
    for name, exported in (("p1p1-loss", True), ("taylor-hood", False)):
        path = tmp_path / f"{name}.vtk"
        assert cli.main(["stokes", "--method", name, "--n", "4",
                         "--vtk", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert ("VECTORS projection double" in lines) is exported


def test_unknown_method_rejected():
    with pytest.raises(stokes.UnsupportedCombination):
        stokes.StokesMethod("p3p2")
    with pytest.raises(stokes.UnsupportedCombination):
        stokes.method_from_name("p3p2")


def test_eps_validation():
    with pytest.raises(ValueError):
        stokes.StokesMethod("galerkin-ls")            # eps required
    with pytest.raises(ValueError):
        stokes.StokesMethod("brezzi-pitkaranta", eps=-0.1)
    with pytest.raises(ValueError):
        stokes.StokesMethod("taylor-hood", eps=0.1)   # eps meaningless


def test_aliases_and_default_eps():
    assert stokes.method_from_name("bp") == stokes.StokesMethod("brezzi-pitkaranta", 0.05)
    assert stokes.method_from_name("th") == stokes.StokesMethod("taylor-hood")
    assert stokes.method_from_name("dw", eps=0.2).eps == 0.2
    assert set(stokes.method_names()) == set(stokes._METHOD_PAIR)
    assert set(stokes._METHOD_PAIR.values()) <= set(infsup.PAIRS)


# --- solve ----------------------------------------------------------------

@pytest.mark.parametrize("name", SOLVABLE)
def test_mms_solve_contract(name):
    system, sol = mms_run(name, 8)
    assert sol.residual_norm <= 1e-9
    assert abs(discrete_mean(sol)) <= 1e-10
    err_u_l2, err_u_h1, err_p_l2 = stokes.errors(sol, EXACT)
    assert np.isfinite([err_u_l2, err_u_h1, err_p_l2]).all()
    assert err_u_h1 < 2.0   # all methods resolve the flow at n=8


@pytest.mark.parametrize("name", SOLVABLE)
def test_discrete_mass_balance(name):
    # second block row holds exactly: B u - C p = g  (mean multiplier
    # vanishes; for the residual-based methods g carries the f-coupling)
    system, sol = mms_run(name, 8)
    bu = system.b @ sol.u[sol.v_space.free_dofs()]
    cp = system.c @ sol.p if system.c is not None else np.zeros_like(bu)
    row = bu - cp - system.g
    scale = np.linalg.norm(bu) + np.linalg.norm(cp) + np.linalg.norm(system.g) + 1.0
    assert np.linalg.norm(row) <= 1e-9 * scale


def test_symmetry_classification():
    # every method, douglas-wang included, assembles a symmetric system
    for name in SOLVABLE:
        system, _ = mms_run(name, 8)
        k = system.full_matrix()
        assert np.linalg.norm(k - k.T) <= 1e-12 * np.linalg.norm(k)


@pytest.mark.parametrize("name", SOLVABLE)
def test_velocity_is_full_length_and_zero_on_the_boundary(name):
    system, sol = mms_run(name, 8)
    assert system.n_u == len(sol.v_space.free_dofs())
    assert sol.u.shape == (sol.v_space.n_dofs,)
    assert np.all(sol.u[sol.v_space.boundary_dofs] == 0.0)
    assert np.any(sol.u != 0.0)


def test_plain_pair_fails_at_moderate_refinement():
    method = stokes.method_from_name("p1p1-plain")
    system = stokes.build(method, unit_square_mesh(16), EXACT.f)
    try:
        sol = stokes.solve(system, method)
    except SingularMatrix:
        return
    _, th = mms_run("taylor-hood", 8)
    assert stokes.oscillation_indicator(sol) > 10 * stokes.oscillation_indicator(th)


def test_gradient_stabilizations_share_one_weighted_form():
    # bp's C is eps h^2 S0 on the uniform mesh; on P1 gls assembles the same
    # C (the Laplacian of a P1 field vanishes on each cell) with a -eps h^2
    # load, and dw weights by h_K with the same -eps load
    mesh = unit_square_mesh(4)
    systems = {name: stokes.build(stokes.method_from_name(name), mesh, EXACT.f)
               for name in ("bp", "gls", "dw")}
    s0 = stiffness(build_space(ElementKind.P1, mesh)).toarray()
    eps = stokes.DEFAULT_EPS
    bp, gls, dw = systems["bp"], systems["gls"], systems["dw"]
    assert np.allclose(bp.c.toarray(), eps * mesh.h ** 2 * s0,
                       rtol=0.0, atol=1e-14)
    assert (gls.c != bp.c).nnz == 0
    assert np.allclose(dw.c.toarray(), eps * mesh.h * s0, rtol=0.0, atol=1e-14)
    assert not np.any(bp.g)
    assert np.linalg.norm(gls.g - mesh.h * dw.g) <= 1e-14 * np.linalg.norm(gls.g)


def test_gls_solves_across_refinements():
    for n in (4, 8, 16):
        sol = stokes.run(stokes.method_from_name("gls"), unit_square_mesh(n),
                         EXACT.f)
        assert sol.residual_norm <= 1e-9


# --- errors ---------------------------------------------------------------

def test_errors_interpolation_reproduction():
    # a linear field lies in the P1 spaces, so injecting its interpolant
    # gives zero error up to roundoff
    mesh = unit_square_mesh(5)
    v_space = build_space(ElementKind.P1, mesh, components=2)
    p_space = build_space(ElementKind.P1, mesh)

    def u(pts):
        return np.stack([pts[..., 0] + 2 * pts[..., 1],
                         3 * pts[..., 0] - pts[..., 1]], axis=-1)

    def grad_u(pts):
        g = np.array([[1.0, 2.0], [3.0, -1.0]])
        return np.broadcast_to(g, pts.shape[:-1] + (2, 2))

    def p(pts):
        return pts[..., 0] - pts[..., 1]

    exact = stokes.ManufacturedProblem(u=u, p=p, f=None, grad_u=grad_u)
    coords = dof_coords(v_space)
    uh = np.concatenate([coords[:, 0] + 2 * coords[:, 1],
                         3 * coords[:, 0] - coords[:, 1]])
    ph = p(dof_coords(p_space))
    sol = stokes.StokesSolution(u=uh, p=ph, residual_norm=0.0,
                                cg_iterations=None,
                                v_space=v_space, p_space=p_space)
    errs = stokes.errors(sol, exact)
    assert max(errs) <= 1e-12


def test_errors_of_zero_solution_are_exact_norms():
    # ||u|| = sqrt(3/8), |u|_1 = sqrt(2) pi, ||p|| = 1/2, all by hand
    v_space, p_space = stokes.spaces_for(stokes.method_from_name("th"),
                                         unit_square_mesh(16))
    zero = stokes.StokesSolution(u=np.zeros(v_space.n_dofs),
                                 p=np.zeros(p_space.n_dofs),
                                 residual_norm=0.0, cg_iterations=None,
                                 v_space=v_space, p_space=p_space)
    err_u_l2, err_u_h1, err_p_l2 = stokes.errors(zero, EXACT)
    assert err_u_l2 == pytest.approx(np.sqrt(3.0 / 8.0), rel=1e-8)
    assert err_u_h1 == pytest.approx(np.sqrt(2.0) * np.pi, rel=1e-8)
    assert err_p_l2 == pytest.approx(0.5, rel=1e-8)


def test_taylor_hood_second_order():
    _, coarse = mms_run("taylor-hood", 8)
    _, fine = mms_run("taylor-hood", 16)
    e8 = stokes.errors(coarse, EXACT)
    e16 = stokes.errors(fine, EXACT)
    assert np.log2(e8[1] / e16[1]) >= 1.9   # H1 seminorm of velocity
    assert np.log2(e8[2] / e16[2]) >= 1.7   # pressure


def test_p2p0_pressure_projection():
    # against a P0 space the exact pressure is compared cell-averaged, so a
    # piecewise-constant injection of those averages has zero pressure error
    mesh = unit_square_mesh(6)
    v_space = build_space(ElementKind.P2, mesh, components=2)
    p_space = build_space(ElementKind.P0, mesh)
    cell_avg = cell_integrals(mesh, EXACT.p) / load_vector(
        p_space, lambda q: np.ones(q.shape[:-1]))
    sol = stokes.StokesSolution(u=np.zeros(v_space.n_dofs), p=cell_avg,
                                residual_norm=0.0,
                                cg_iterations=None,
                                v_space=v_space, p_space=p_space)
    assert stokes.errors(sol, EXACT)[2] <= 1e-12


@pytest.mark.parametrize("name", ["taylor-hood", "p2p0"])
def test_errors_evaluate_only_the_velocity_field(name, monkeypatch):
    # the pressure error reads values (P1) or cell means (P0), never a
    # gradient, so every field evaluation of ``errors`` (one per block of
    # cells) is of the velocity space
    from infsup_lab import fespace
    _, sol = mms_run(name, 4)
    real, spaces = fespace.fields_at_quadrature, []

    def counting(space, coeffs, rule, cells):
        spaces.append(space)
        return real(space, coeffs, rule, cells)

    monkeypatch.setattr(fespace, "fields_at_quadrature", counting)
    monkeypatch.setattr(stokes, "fields_at_quadrature", counting,
                        raising=False)
    stokes.errors(sol, EXACT)
    assert spaces and all(space is sol.v_space for space in spaces)


@pytest.mark.parametrize("name", ["taylor-hood", "mini", "p1p1-loss"])
def test_p1_pressure_error_matches_the_field_evaluation(name):
    from infsup_lab.fespace import fields_at_quadrature
    _, sol = mms_run(name, 4)
    rule = quadrature(6)
    qw = np.outer(triangle_areas(sol.p_space.mesh), rule.weights)
    pts, p_vals, _ = fields_at_quadrature(sol.p_space, sol.p, rule,
                                          slice(None))
    p_ex = EXACT.p(pts)
    p_ex -= np.einsum("tq,tq->", qw, p_ex)
    want = np.sqrt(np.einsum("tq,tq->", qw, (p_ex - p_vals[..., 0]) ** 2))
    assert stokes.errors(sol, EXACT)[2] == pytest.approx(want, rel=1e-14)


# --- diagnostics ----------------------------------------------------------

def test_oscillation_indicator_zero_for_zero_pressure():
    v_space, p_space = stokes.spaces_for(stokes.method_from_name("th"),
                                         unit_square_mesh(4))
    sol = stokes.StokesSolution(u=np.zeros(v_space.n_dofs),
                                p=np.zeros(p_space.n_dofs),
                                residual_norm=0.0, cg_iterations=None,
                                v_space=v_space, p_space=p_space)
    assert stokes.oscillation_indicator(sol) == 0.0


def test_oscillation_indicator_flags_checkerboard():
    # node-parity alternating pressure scores far above a linear field of
    # the same nodal magnitude
    v_space, p_space = stokes.spaces_for(stokes.method_from_name("bp"),
                                         unit_square_mesh(8))
    mesh = p_space.mesh
    ij = np.rint(mesh.nodes * 8).astype(int)
    checker = np.where((ij.sum(axis=1)) % 2 == 0, 1.0, -1.0)

    def indicator(p):
        sol = stokes.StokesSolution(u=np.zeros(v_space.n_dofs), p=p,
                                    residual_norm=0.0, cg_iterations=None,
                                    v_space=v_space, p_space=p_space)
        return stokes.oscillation_indicator(sol)

    assert indicator(checker) > 5 * indicator(mesh.nodes[:, 0].copy())


def test_boundary_pressure_flux_reported():
    # the penalized pair drifts toward dp/dn = 0 but the magnitude is only
    # reported, never thresholded
    for name in ("brezzi-pitkaranta", "p1p1-loss"):
        system, sol = mms_run(name, 8)
        flux = stokes.boundary_pressure_flux(sol)
        assert np.isfinite(flux) and flux >= 0.0
    _, p2p0 = mms_run("p2p0", 8)
    assert stokes.boundary_pressure_flux(p2p0) is None      # P0 pressure
