"""Weak Dirichlet enforcement: calibration, consistency, equivalence."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from infsup_lab import cli, infsup, verify, weakbc
from infsup_lab.assembly import (
    SaddleSystem,
    edge_bases,
    edge_form,
    edge_load,
    load_vector,
    mass,
    solve_saddle,
    sparse_lu,
    stiffness,
)
from infsup_lab.fespace import ElementKind, build_space
from infsup_lab.linalg import SingularMatrix
from infsup_lab.mesh import boundary_edge_geometry, unit_square_mesh
from oracles import dense_pencil, dof_coords, inverse_constant, lu_solve

PROB = weakbc.mms_problem()


@functools.lru_cache(maxsize=None)
def mms_solution(name, n, trace="p1"):
    mesh = unit_square_mesh(n)
    meth = weakbc.method_from_name(name, trace=trace)
    return weakbc.run(meth, mesh, PROB.f, PROB.d)


def solve_split(method, mesh, f, d):
    """(u, lambda, relative residual) of a weak-bc system: the solution of
    ``solve_saddle`` split after the field block (lambda is empty for
    Nitsche); ``WeakBcSolution`` keeps u only."""
    system = weakbc.build(method, mesh, f, d)
    x, residual = solve_saddle(system)
    return x[:system.n_u], x[system.n_u:], residual


def trace_ops(mesh, trace):
    """(T, C_w, W) of the ``trace`` multiplier basis mu: <mu, v>_E,
    h_E <mu, dv/dn>_E and h_E <mu, mu>_E."""
    hats, flux, _ = edge_bases(mesh)
    mult = weakbc._multiplier(mesh, trace)
    lengths, _, _ = boundary_edge_geometry(mesh)
    return (edge_form(mult, hats, lengths),
            edge_form(mult, flux, lengths ** 2),
            edge_form(mult, mult, lengths ** 2))


def multiplier_report(mesh, trace):
    """The inf-sup report of ``solve_multiplier`` on the multiplier system
    on ``mesh``, from its solution or its ``MultiplierKernel``."""
    system = weakbc.build(weakbc.method_from_name("multiplier", trace=trace),
                          mesh, PROB.f, PROB.d)
    try:
        return weakbc.solve_multiplier(system, mesh, trace).report
    except weakbc.MultiplierKernel as exc:
        return exc.report


def recorded_residuals(monkeypatch):
    """The x of every ``SaddleSystem.relative_residual`` call, in order."""
    real, seen = SaddleSystem.relative_residual, []

    def recording(system, x):
        seen.append(np.array(x))
        return real(system, x)

    monkeypatch.setattr(SaddleSystem, "relative_residual", recording)
    return seen


def edge_midpoints(mesh):
    return 0.5 * (mesh.nodes[mesh.boundary_edges[:, 0]]
                  + mesh.nodes[mesh.boundary_edges[:, 1]])


# --- inverse-inequality constant ----------------------------------------

def test_inverse_constant_value_and_drift():
    # structured right-triangle meshes: the corner hat maximizes the
    # Rayleigh quotient at exactly 2, independent of refinement (so the
    # pin at every n bounds the drift), which is the closed form behind
    # weakbc.GAMMA and weakbc.ALPHA
    for n in (1, 2, 3, 4, 8, 16):
        ci = inverse_constant(unit_square_mesh(n))
        assert abs(ci - np.sqrt(2.0)) <= 2e-14 * np.sqrt(2.0)


def test_default_parameters():
    assert weakbc.GAMMA == 8.0 and weakbc.ALPHA == 0.25
    assert weakbc.method_from_name("nitsche").gamma == 8.0
    assert weakbc.method_from_name("bh").alpha == 0.25


def test_defaults_make_no_eigen_decomposition(monkeypatch):
    # the closed form C_i^2 = 2 replaces the dense calibration pencil; a
    # cached calibration must not hide the call either
    import scipy.linalg

    def no_eigh(*args, **kwargs):
        raise AssertionError("scipy.linalg.eigh called")

    for value in vars(weakbc).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
    for name in ("nitsche", "bh"):
        solution = weakbc.run(weakbc.method_from_name(name),
                              unit_square_mesh(4), PROB.f, PROB.d)
        assert solution.residual_norm <= 1e-12


# --- method construction -------------------------------------------------

def test_method_validation():
    with pytest.raises(ValueError):
        weakbc.WeakBcMethod("penalty-only")
    with pytest.raises(ValueError):
        weakbc.WeakBcMethod("barbosa-hughes")          # alpha missing
    with pytest.raises(ValueError):
        weakbc.WeakBcMethod("nitsche", gamma=-1.0)
    with pytest.raises(weakbc.UnsupportedTrace):
        weakbc.WeakBcMethod("multiplier", trace="p2")
    with pytest.raises(ValueError):
        weakbc.method_from_name("strong")


def test_method_aliases():
    assert weakbc.method_from_name("bh").name == "barbosa-hughes"
    assert weakbc.method_from_name("multiplier", trace="p0").trace == "p0"


# --- manufactured problem ------------------------------------------------

def test_mms_force_matches_finite_differences():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.01, 0.99, size=(60, 2))
    h = 1e-5
    lap = np.zeros(len(pts))
    for dim in range(2):
        e = np.zeros(2)
        e[dim] = h
        lap += (PROB.u(pts + e) - 2 * PROB.u(pts) + PROB.u(pts - e)) / h ** 2
    f_fd = -lap + PROB.u(pts)
    assert np.abs(f_fd - PROB.f(pts)).max() <= 1e-6 * np.abs(f_fd).max()


def test_mms_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    pts = rng.uniform(0.01, 0.99, size=(40, 2))
    h = 1e-6
    fd = np.zeros((len(pts), 2))
    for dim in range(2):
        e = np.zeros(2)
        e[dim] = h
        fd[:, dim] = (PROB.u(pts + e) - PROB.u(pts - e)) / (2 * h)
    assert np.abs(fd - PROB.grad_u(pts)).max() < 1e-8


def test_mms_dirichlet_data_is_the_trace():
    pts = np.array([[0.3, 0.0], [1.0, 0.7], [0.2, 1.0], [0.0, 0.45]])
    assert np.array_equal(PROB.d(pts), PROB.u(pts))


def test_zero_field_errors_are_exact_norms():
    mesh = unit_square_mesh(16)
    space = build_space(ElementKind.P1, mesh)
    l2, h1 = weakbc.errors(space, np.zeros(space.n_dofs), PROB)
    assert abs(l2 - 0.5) < 1e-10
    assert abs(h1 - np.pi / np.sqrt(2.0)) < 1e-10


# --- exact reproduction --------------------------------------------------

ALL_METHODS = [weakbc.method_from_name("nitsche"),
               weakbc.method_from_name("multiplier"),
               weakbc.method_from_name("bh"),
               weakbc.method_from_name("bh", trace="p0")]


@pytest.mark.parametrize("method", ALL_METHODS,
                         ids=["nitsche", "multiplier", "bh-p1", "bh-p0"])
def test_constant_state_reproduced(method):
    # u = 1 solves -lap(u) + u = 1 with d = 1; every variant is consistent
    mesh = unit_square_mesh(8)
    one = lambda p: np.ones(p.shape[:-1])
    u, lam, residual = solve_split(method, mesh, one, one)
    assert np.abs(u - 1.0).max() < 1e-10
    assert residual < 1e-9
    assert np.abs(lam).max(initial=0.0) < 1e-10


def test_multiplier_recovers_normal_derivative():
    # u = 1 - x is harmonic, so f = u keeps it the exact solution; the
    # multiplier approximates -du/dn: -1 on x=0, +1 on x=1
    mesh = unit_square_mesh(8)
    space = build_space(ElementKind.P1, mesh)
    exact = lambda p: 1.0 - p[..., 0]
    u, lam, _ = solve_split(weakbc.method_from_name("multiplier"), mesh,
                            exact, exact)
    assert np.abs(u - exact(dof_coords(space))).max() < 1e-12
    coords = dof_coords(space)[space.boundary_dofs]
    interior = (coords[:, 1] > 0.05) & (coords[:, 1] < 0.95)
    left = lam[(coords[:, 0] < 1e-12) & interior]
    right = lam[(coords[:, 0] > 1 - 1e-12) & interior]
    assert np.abs(left + 1.0).max() < 0.2
    assert np.abs(right - 1.0).max() < 0.2


def test_bh_p0_multiplier_exact_for_linear_solution():
    # edgewise-constant multipliers represent -du/dn of a linear field
    # exactly and the stabilization term vanishes
    mesh = unit_square_mesh(8)
    space = build_space(ElementKind.P1, mesh)
    exact = lambda p: 1.0 - p[..., 0]
    u, lam, _ = solve_split(weakbc.method_from_name("bh", trace="p0"), mesh,
                            exact, exact)
    assert np.abs(u - exact(dof_coords(space))).max() < 1e-12
    mids = edge_midpoints(mesh)
    assert np.abs(lam[mids[:, 0] < 1e-12] + 1.0).max() < 1e-8
    assert np.abs(lam[mids[:, 0] > 1 - 1e-12] - 1.0).max() < 1e-8


# --- structure -----------------------------------------------------------

def test_nitsche_symmetric_and_spd_at_default_gamma():
    for n in (4, 8, 16):
        sys_n = weakbc.build(weakbc.method_from_name("nitsche"),
                             unit_square_mesh(n), PROB.f, PROB.d)
        k = sys_n.full_matrix()
        assert np.abs(k - k.T).max() < 1e-12 * np.abs(k).max()
        np.linalg.cholesky(k)                          # must not raise


def test_nitsche_loses_spd_below_threshold():
    sys_lo = weakbc.build(weakbc.method_from_name("nitsche", gamma=0.5),
                          unit_square_mesh(8), PROB.f, PROB.d)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(sys_lo.full_matrix())


@pytest.mark.parametrize("trace", ["p1", "p0"])
def test_bh_system_symmetric(trace):
    sys_bh = weakbc.build(weakbc.method_from_name("bh", trace=trace),
                          unit_square_mesh(8), PROB.f, PROB.d)
    k = sys_bh.full_matrix()
    assert np.abs(k - k.T).max() < 1e-12 * np.abs(k).max()


@pytest.mark.parametrize("n", [4, 8])
def test_trace_operators_are_canonical_csr_without_stored_zeros(n):
    # a stored 0.0 is a structural nonzero to SuperLU; the hats whose
    # gradient is tangential to an edge have zero flux there
    mesh = unit_square_mesh(n)
    _, flux, _ = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    ops = [*trace_ops(mesh, "p1"), *trace_ops(mesh, "p0"),
           edge_form(flux, flux, lengths ** 2)]
    for op in ops:
        assert isinstance(op, sp.csr_array) and op.has_canonical_format
        assert np.all(op.data != 0.0)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_p1_multiplier_is_the_hats_on_the_boundary_dofs(n):
    # the renumbered hats give the rows (for W also the columns) of the
    # full-indexed forms at the P1 space's boundary dofs, entry for entry
    mesh = unit_square_mesh(n)
    space = build_space(ElementKind.P1, mesh)
    hats, flux, _ = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    dofs = space.boundary_dofs
    full = [edge_form(hats, hats, lengths)[dofs],
            edge_form(hats, flux, lengths ** 2)[dofs],
            edge_form(hats, hats, lengths ** 2)[np.ix_(dofs, dofs)]]
    for op, expected in zip(trace_ops(mesh, "p1"), full):
        assert op.shape == expected.shape
        assert np.array_equal(op.indptr, expected.indptr)
        assert np.array_equal(op.indices, expected.indices)
        assert np.array_equal(op.data, expected.data)


def test_multiplier_solvable_on_coarse_meshes():
    for n in (2, 4, 8):
        sol = mms_solution("multiplier", n)
        assert sol.residual_norm < 1e-9


@pytest.mark.parametrize("n", [2, 3, 8])
def test_p0_multiplier_block_has_one_kernel_mode(n):
    # the alternating edge mode on the closed boundary meets every P1
    # trace with zero edge averages: the multiplier pair fails inf-sup
    mesh = unit_square_mesh(n)
    t = weakbc.build(weakbc.method_from_name("multiplier", trace="p0"), mesh,
                     PROB.f, PROB.d).b.toarray()
    assert np.linalg.matrix_rank(t) == len(mesh.boundary_edges) - 1


def test_nitsche_has_no_multiplier():
    system = weakbc.build(weakbc.method_from_name("nitsche"),
                          unit_square_mesh(8), PROB.f, PROB.d)
    assert system.n_p == 0 and system.c is None


# --- BH / Nitsche equivalence --------------------------------------------

def test_bh_nitsche_equivalence():
    # eliminating P0 multipliers from BH(alpha) gives the edge-average
    # Nitsche form with gamma = 1/alpha, so the gap is solver roundoff
    for n, alpha in [(4, 0.1), (8, 0.1), (8, 0.25)]:
        gap = weakbc.equivalence_check(unit_square_mesh(n), PROB.f, PROB.d,
                                       alpha=alpha)
        assert gap < 1e-12


def test_equivalence_check_builds_the_space_and_operator_once(monkeypatch):
    counts = {}
    for name in ("build_space", "stiffness"):
        def counting(*args, _real=getattr(weakbc, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(weakbc, name, counting)
    gap = weakbc.equivalence_check(unit_square_mesh(4), PROB.f, PROB.d,
                                   alpha=0.1)
    assert gap < 1e-12
    assert counts == {"build_space": 1, "stiffness": 1}


@pytest.mark.parametrize("method", ["nitsche", "multiplier", "bh"])
def test_weakbc_run_builds_one_space(method, monkeypatch, capsys):
    # the error quadrature reads the space the system was built on
    calls = []

    def counting(*args, _real=weakbc.build_space):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(weakbc, "build_space", counting)
    assert cli.main(["weakbc", "--method", method, "--n", "4"]) == 0
    assert "err_h1=" in capsys.readouterr().out
    assert len(calls) == 1


def dense_nitsche_projected(mesh, f, d, gamma):
    """The edge-average Nitsche matrix and load formed densely from the
    boundary operators: the oracle of the sparse build."""
    space = build_space(ElementKind.P1, mesh)
    hats, flux, constants = edge_bases(mesh)
    lengths, _, _ = boundary_edge_geometry(mesh)
    t0 = edge_form(constants, hats, lengths).toarray()
    nf = edge_form(hats, flux, lengths).toarray()
    pen = t0.T @ (t0 * (gamma / lengths ** 2)[:, None])
    k = (stiffness(space) + mass(space)).toarray() - nf - nf.T + pen
    rhs = (load_vector(space, f) - edge_load(mesh, flux, d, lengths)
           + t0.T @ (gamma / lengths ** 2
                     * edge_load(mesh, constants, d, lengths)))
    return k, rhs


@pytest.mark.parametrize("n", [4, 8])
def test_sparse_projected_nitsche_solve_matches_dense_oracle(n):
    mesh = unit_square_mesh(n)
    k_dense, rhs_dense = dense_nitsche_projected(mesh, PROB.f, PROB.d, 10.0)
    space = build_space(ElementKind.P1, mesh)
    system = weakbc._nitsche_projected(space, stiffness(space) + mass(space),
                                       PROB.f, PROB.d, 10.0)
    k, rhs = system.a, system.f
    assert sp.issparse(k) and system.n_p == 0
    assert (np.linalg.norm(k.toarray() - k_dense)
            <= 1e-12 * np.linalg.norm(k_dense))
    assert np.linalg.norm(rhs - rhs_dense) <= 1e-12 * np.linalg.norm(rhs_dense)
    u = weakbc.solve(weakbc.method_from_name("nitsche", gamma=10.0), system).u
    u_dense = lu_solve(k_dense, rhs_dense)
    assert np.linalg.norm(u - u_dense) <= 1e-12 * np.linalg.norm(u_dense)


# --- convergence ----------------------------------------------------------

def level_errors(name):
    def run_level(mesh):
        method = weakbc.method_from_name(name)
        system = weakbc.build(method, mesh, PROB.f, PROB.d)
        l2, h1 = weakbc.errors(system.spaces[0],
                               weakbc.solve(method, system).u, PROB)
        return {"err_l2": l2, "err_h1": h1}
    return run_level


def test_nitsche_mms_convergence():
    rep = verify.run_convergence(level_errors("nitsche"), (8, 16, 32),
                                 method="nitsche", problem="mms")
    assert rep.slopes["err_h1"] >= 0.9
    assert rep.slopes["err_h1"] <= 1.2
    assert rep.slopes["err_l2"] >= 1.7


def test_methods_agree_on_error_magnitude():
    errs = {}
    for name in ("nitsche", "multiplier", "barbosa-hughes"):
        sol = mms_solution(name, 16)
        _, errs[name] = weakbc.errors(
            build_space(ElementKind.P1, unit_square_mesh(16)), sol.u, PROB)
    base = errs["nitsche"]
    for v in errs.values():
        assert 0.8 * base < v < 1.25 * base


# --- stability of the multiplier pair -------------------------------------

@pytest.mark.parametrize("n, beta", [(4, 0.3619), (8, 0.3505), (16, 0.3459),
                                     (32, 0.3441)])
def test_p1_multiplier_beta_is_mesh_independent(n, beta):
    # in the mesh-dependent H^{-1/2} norm W the P1 multiplier is stable
    report = multiplier_report(unit_square_mesh(n), "p1")
    assert report.kernel_dim_pressure == 0
    assert round(report.beta, 4) == beta
    if n >= 16:
        assert abs(report.beta - 0.344) <= 0.01


def boundary_neighbours(mesh):
    """(e, f) for every pair of boundary edges that share a vertex, with e
    the edge that ends where f starts."""
    ends = mesh.boundary_edges[:, :2]
    starting = {v: f for f, v in enumerate(ends[:, 0])}
    return np.array([(e, starting[v]) for e, v in enumerate(ends[:, 1])])


@pytest.mark.parametrize("n", [4, 8, 16])
def test_p0_multiplier_kernel_is_the_alternating_edge_mode(n):
    mesh = unit_square_mesh(n)
    assert multiplier_report(mesh, "p0").kernel_dim_pressure == 1
    # the 4n edges close a cycle of even length: a sign that flips across
    # every shared vertex has zero edge average against every P1 trace
    pairs = boundary_neighbours(mesh)
    assert len(pairs) == 4 * n
    space = build_space(ElementKind.P1, mesh)
    t, _, w = trace_ops(mesh, "p0")
    lam, q = dense_pencil(t, stiffness(space) + mass(space), w)
    kernel = q[:, -1]
    assert lam[-1] <= infsup.RANK_RTOL * lam[0] < lam[-2]
    assert np.all(kernel[pairs[:, 0]] * kernel[pairs[:, 1]] < 0.0)
    assert np.ptp(np.abs(kernel)) <= 1e-10 * np.abs(kernel).max()


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_pencil_solve_matches_solve_saddle(n, monkeypatch):
    # the pencil's L^-T Q T^-1 Q^T L^-1 and the dense LU of the same Schur
    # matrix agree to round-off, not bit for bit: the last digits of the
    # solution carry no meaning (CHANGES.md on the weak-bc err_l2 in the
    # JSON)
    mesh = unit_square_mesh(n)
    system = weakbc.build(weakbc.method_from_name("multiplier"), mesh,
                          PROB.f, PROB.d)
    want, _ = solve_saddle(system)
    seen = recorded_residuals(monkeypatch)
    solution = weakbc.solve_multiplier(system, mesh, "p1")
    assert solution.report.kernel_dim_pressure == 0 and len(seen) == 1
    x = seen[0]
    for got, ref in ((x[:system.n_u], want[:system.n_u]),
                     (x[system.n_u:], want[system.n_u:])):
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.array_equal(solution.u, x[:system.n_u])
    assert solution.residual_norm <= 1e-12


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_p0_multiplier_is_singular_and_runs_no_solve(n, monkeypatch):
    mesh = unit_square_mesh(n)
    system = weakbc.build(weakbc.method_from_name("multiplier", trace="p0"),
                          mesh, PROB.f, PROB.d)
    seen = recorded_residuals(monkeypatch)
    with pytest.raises(weakbc.MultiplierKernel,
                       match="kernel of dimension 1") as raised:
        weakbc.solve_multiplier(system, mesh, "p0")
    assert raised.value.report.kernel_dim_pressure == 1
    assert seen == []


@pytest.mark.parametrize("n", [4, 8, 16])
def test_p0_multiplier_through_the_library_raises(n, monkeypatch):
    # the pencil's kernel is the verdict of every library route: the pivot
    # test of solve_saddle can pass a system with a kernel
    def no_saddle_solve(system):
        raise AssertionError("solve_saddle called")

    monkeypatch.setattr(weakbc, "solve_saddle", no_saddle_solve)
    method = weakbc.method_from_name("multiplier", trace="p0")
    mesh = unit_square_mesh(n)
    with pytest.raises(SingularMatrix, match="kernel of dimension 1"):
        weakbc.run(method, mesh, PROB.f, PROB.d)
    with pytest.raises(SingularMatrix, match="kernel of dimension 1"):
        weakbc.solve(method, weakbc.build(method, mesh, PROB.f, PROB.d))


def test_multiplier_run_factors_forms_and_decomposes_once(monkeypatch,
                                                          capsys):
    # one factor of A + M, one Schur matrix and one tridiagonal reduction
    # give the verdict and the solution; no second route solves the system
    from infsup_lab import assembly, linalg
    counts = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("sparse_lu", "schur_complement", "solve_saddle", "dense_lu"):
        for module in (assembly, linalg, infsup, weakbc):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    import scipy.linalg
    monkeypatch.setattr(scipy.linalg.lapack, "dsytrd",
                        counting("dsytrd", scipy.linalg.lapack.dsytrd))
    assert cli.main(["weakbc", "--method", "multiplier", "--n", "4"]) == 0
    assert "err_h1=" in capsys.readouterr().out
    assert counts == {"sparse_lu": 1, "schur_complement": 1, "dsytrd": 1}


@pytest.mark.parametrize("trace", ["p1", "p0"])
@pytest.mark.parametrize("n", [4, 8])
def test_multiplier_beta_matches_dense_pencil(trace, n):
    mesh = unit_square_mesh(n)
    report = multiplier_report(mesh, trace)
    space = build_space(ElementKind.P1, mesh)
    t, _, w = trace_ops(mesh, trace)
    lam, _ = dense_pencil(t, stiffness(space) + mass(space), w)
    rank = int(np.count_nonzero(lam > infsup.RANK_RTOL * lam[0]))
    assert report.kernel_dim_pressure == len(lam) - rank
    assert abs(report.beta - np.sqrt(lam[rank - 1])) <= 1e-12 * report.beta


@pytest.mark.parametrize("trace", ["p1", "p0"])
@pytest.mark.parametrize("n", [8, 16])
def test_bh_velocity_block_is_spd_up_to_inverse_constant(trace, n):
    # A + M - alpha N_w >= (1 - alpha C_i^2) |v|_1^2 + ||v||^2: SPD for
    # alpha <= 1/C_i^2 = 0.5, a second check on C_i^2 = 2
    def spd(alpha):
        system = weakbc.build(weakbc.method_from_name("bh", alpha=alpha,
                                                      trace=trace),
                              unit_square_mesh(n), PROB.f, PROB.d)
        return infsup._positive_definite(sparse_lu(system.a, "BH velocity"))
    assert spd(0.5)
    assert not spd(0.6)


# --- diagnostics ----------------------------------------------------------

def test_normal_flux_diagnostic():
    mesh = unit_square_mesh(4)
    space = build_space(ElementKind.P1, mesh)
    u = 1.0 - dof_coords(space)[:, 0]
    # du/dn per boundary edge, constant along the edge for P1
    _, flux, _ = edge_bases(mesh)
    assert np.array_equal(flux.values[:, 0], flux.values[:, 1])
    fx = np.einsum("ek,ek->e", flux.values[:, 0], u[flux.dofs])
    mids = edge_midpoints(mesh)
    assert np.abs(fx[mids[:, 0] < 1e-12] - 1.0).max() < 1e-13
    assert np.abs(fx[mids[:, 0] > 1 - 1e-12] + 1.0).max() < 1e-13
    horiz = (mids[:, 1] < 1e-12) | (mids[:, 1] > 1 - 1e-12)
    assert np.abs(fx[horiz]).max() < 1e-13
