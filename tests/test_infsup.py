"""Inf-sup constant extraction: synthetic spectra and real element pairs."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from infsup_lab import infsup
from infsup_lab.assembly import sparse_lu
from infsup_lab.fespace import ElementKind
from infsup_lab.linalg import NotPositiveDefinite
from infsup_lab.mesh import unit_square_mesh
from oracles import svd


def random_orthogonal(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def euclidean(b):
    """The Euclidean constant, the smallest positive singular value of B:
    the pencil with identity norms."""
    n_p, n_u = np.shape(b)
    return infsup.infsup_weighted(b, sp.identity(n_u, format="csr"),
                                  sp.identity(n_p, format="csr"))


# --- identity norms ---------------------------------------------------------

def test_euclidean_diag():
    rep = euclidean(np.diag([3.0, 1.0]))
    assert rep.beta == pytest.approx(1.0)
    assert rep.numerical_rank == 2
    assert rep.kernel_dim_pressure == 0


def test_euclidean_explicit_kernel():
    rep = euclidean(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert rep.beta == pytest.approx(1.0)
    assert rep.kernel_dim_pressure == 1
    # the worst KEPT mode is the first pressure axis
    assert np.abs(rep.worst_pressure_mode) == pytest.approx([1.0, 0.0])


def test_euclidean_constructed_spectrum():
    rng = np.random.default_rng(3)
    u = random_orthogonal(5, rng)
    v = random_orthogonal(4, rng)
    s = np.zeros((5, 4))
    s[[0, 1, 2], [0, 1, 2]] = [5.0, 2.0, 1e-14]
    rep = euclidean(u @ s @ v.T)
    assert rep.numerical_rank == 2
    assert rep.beta == pytest.approx(2.0, abs=1e-10)
    assert rep.kernel_dim_pressure == 3


def test_euclidean_zero_block():
    rep = euclidean(np.zeros((3, 2)))
    assert rep.beta == 0.0
    assert rep.numerical_rank == 0
    assert rep.kernel_dim_pressure == 3


def test_euclidean_matches_block_eigenpairing():
    # positive spectrum of [[0, B^T], [B, 0]] equals the singular values
    b = infsup.pair_operators(
        *infsup.pair_spaces("p1p1", unit_square_mesh(3)))[0].toarray()
    n_p, n_v = b.shape
    block = np.zeros((n_p + n_v, n_p + n_v))
    block[:n_v, n_v:] = b.T
    block[n_v:, :n_v] = b
    lam = scipy.linalg.eigh(block, eigvals_only=True)
    rep = euclidean(b)
    positive = lam[lam > 1e-10]
    kept = rep.sigma[:rep.numerical_rank]
    assert np.allclose(np.sort(positive), np.sort(kept), atol=1e-10)


# --- weighted -------------------------------------------------------------

def test_weighted_reduces_to_euclidean_under_identity_norms():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((6, 9))
    rep_w = infsup.infsup_weighted(b, np.eye(9), np.eye(6))
    sigma = svd(b).sigma
    assert rep_w.beta == pytest.approx(sigma[-1], abs=1e-12)
    assert np.allclose(rep_w.sigma, sigma, atol=1e-12)


def test_weighted_square_symmetric_block():
    # B = M with identity norms: beta is the smallest eigenvalue magnitude
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 7))
    m = 0.5 * (a + a.T)
    rep = infsup.infsup_weighted(m, np.eye(7), np.eye(7))
    lam = np.abs(np.linalg.eigvalsh(m))
    assert rep.beta == pytest.approx(lam.min(), abs=1e-10)


def test_weighted_permutation_invariance():
    b, x, m = (a.toarray()
               for a in infsup.pair_operators(
                   *infsup.pair_spaces("p1p1", unit_square_mesh(4))))
    rep = infsup.infsup_weighted(b, x, m)
    rng = np.random.default_rng(6)
    perm = rng.permutation(b.shape[1])
    rep_p = infsup.infsup_weighted(b[:, perm], x[np.ix_(perm, perm)], m)
    assert abs(rep.beta - rep_p.beta) <= 1e-10


def test_weighted_requires_spd_norms():
    b = np.eye(3)
    with pytest.raises(NotPositiveDefinite):
        infsup.infsup_weighted(b, -np.eye(3), np.eye(3))
    with pytest.raises(NotPositiveDefinite):
        infsup.infsup_weighted(b, np.eye(3), np.diag([1.0, -1.0, 1.0]))


ASYMMETRIC = np.array([[1.0, 0.5], [0.0, 1.0]])
INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("b,x,m,error,match", [
    (np.eye(2), ASYMMETRIC, np.eye(2), ValueError, "symmetric"),
    (np.eye(2), np.eye(2), ASYMMETRIC, ValueError, "symmetric"),
    (np.eye(2), INDEFINITE, np.eye(2), NotPositiveDefinite, None),
    (np.eye(2), np.eye(2), INDEFINITE, NotPositiveDefinite, None),
    (np.eye(2), np.zeros((2, 2)), np.eye(2), NotPositiveDefinite, None),
    (np.eye(2), np.eye(2), np.zeros((2, 2)), NotPositiveDefinite, None),
    # zero diagonal: SuperLU pivots off it, and both U pivots read +1;
    # INDEFINITE takes the element route, whose getrf exchanges its rows
    (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2),
     NotPositiveDefinite, None),
    # S = B X^-1 B^T = [[1]] is positive definite, X = diag(1, -1) is not
    (np.array([[1.0, 0.0]]), np.diag([1.0, -1.0]), np.eye(1),
     NotPositiveDefinite, None),
])
def test_norm_matrices_must_be_spd(b, x, m, error, match):
    with pytest.raises(error, match=match) as exc:
        infsup.infsup_weighted(b, x, m)
    if error is ValueError:
        assert not isinstance(exc.value, NotPositiveDefinite)


def taylor_hood_with_negated_velocity_norm():
    b, x, m = infsup.pair_operators(
        *infsup.pair_spaces("taylor-hood", unit_square_mesh(2)))
    return b, -x, m


def identity_norm_case(x):
    return lambda: (np.eye(len(x)), x, np.eye(len(x)))


#: symmetric, nonsingular, zero diagonal: SuperLU takes every pivot off the
#: diagonal, and all of them read +1
PATH_ADJACENCY = np.eye(4, k=1) + np.eye(4, k=-1)
#: symmetric, diagonally dominant: diagonal pivots, one of them negative
ONE_NEGATIVE_PIVOT = np.array([[2.0, -1.0, 0.0, 0.0], [-1.0, 2.0, -1.0, 0.0],
                               [0.0, -1.0, -3.0, -1.0], [0.0, 0.0, -1.0, 2.0]])


@pytest.mark.parametrize("make, route", [
    (identity_norm_case(INDEFINITE), "element"),
    (taylor_hood_with_negated_velocity_norm, "two-block"),
    (identity_norm_case(PATH_ADJACENCY), "superlu"),
    (identity_norm_case(ONE_NEGATIVE_PIVOT), "superlu"),
], ids=["row-exchange", "negated-k", "zero-diagonal", "negative-pivot"])
def test_velocity_norm_spd_rule_on_each_route(make, route):
    # each X is symmetric and nonsingular, so only the SPD rule (diagonal
    # pivots, all > 0) can reject it
    b, x, m = make()
    assert sparse_lu(sp.csr_array(x), "velocity norm").route == route
    with pytest.raises(NotPositiveDefinite, match="velocity norm"):
        infsup.infsup_weighted(b, x, m)


def test_eigen_phase_copies_neither_matrix():
    # the traced peak of infsup_weighted is its eigen phase: S, the dense M
    # and eigh's 2 n_p² workspace, 4.04 n_p² doubles at TH n=16 (6.04 when
    # eigh copied a C-ordered S and M into Fortran order)
    import tracemalloc

    b, x, m = infsup.pair_operators(*infsup.pair_spaces(
        "taylor-hood", unit_square_mesh(16)))
    first = infsup.infsup_weighted(b, x, m)  # imports are not the phase
    tracemalloc.start()
    try:
        report = infsup.infsup_weighted(b, x, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.beta == first.beta
    assert peak <= 5.0 * 8 * b.shape[0] ** 2


# --- element pairs ---------------------------------------------------------

def test_unknown_pair_rejected():
    with pytest.raises(ValueError):
        infsup.pair_spaces("p7p7", unit_square_mesh(2))


def test_stable_pairs_keep_beta_level():
    # the stable pairs hold their constant under refinement; the equal-order
    # pair decays by >= 1.3x per halving
    betas = {pair: [infsup.study(pair, unit_square_mesh(n)).beta
                    for n in (4, 8)]
             for pair in ("taylor-hood", "mini", "p1p1")}
    th, mini, p1p1 = betas["taylor-hood"], betas["mini"], betas["p1p1"]
    assert max(th) / min(th) <= 1.15
    assert max(mini) / min(mini) <= 1.20
    assert p1p1[0] / p1p1[1] >= 1.3


def test_constant_pressure_lands_in_kernel():
    for pair in infsup.PAIRS:
        b, x, m = infsup.pair_operators(
            *infsup.pair_spaces(pair, unit_square_mesh(4)))
        for rep in (infsup.infsup_weighted(b, x, m), euclidean(b)):
            assert rep.kernel_dim_pressure >= 1
            assert rep.constant_pressure_angle <= 1e-8


def test_constant_pressure_angle_of_a_hand_kernel():
    # B B^T = diag(1, 0): the kernel is e_2, the constant (1, 1) sits at 45
    # degrees to it; a full-rank block leaves no kernel, angle 1
    rep = euclidean(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert rep.kernel_dim_pressure == 1
    assert rep.constant_pressure_angle == pytest.approx(np.sqrt(0.5),
                                                        rel=1e-15)
    # weighted, M = diag(1, 3): ||(1, 0)||_M^2 / ||(1, 1)||_M^2 = 1 / 4
    rep = infsup.infsup_weighted(np.array([[1.0, 0.0], [0.0, 0.0]]),
                                 np.eye(2), np.diag([1.0, 3.0]))
    assert rep.constant_pressure_angle == pytest.approx(0.5, rel=1e-15)
    assert euclidean(np.eye(2, 3)).constant_pressure_angle == 1.0


def test_study_assembles_and_solves_once(monkeypatch):
    # the angle is read from the kernel eigenvectors beta_h is read from
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(infsup, "pair_operators",
                        counting("pair_operators", infsup.pair_operators))
    monkeypatch.setattr(scipy.linalg, "eigh",
                        counting("eigh", scipy.linalg.eigh))
    infsup.study("taylor-hood", unit_square_mesh(3))
    assert calls == ["pair_operators", "eigh"]


def test_report_fields():
    mesh = unit_square_mesh(4)
    rep = infsup.study("taylor-hood", mesh)
    assert np.all(np.diff(rep.sigma) <= 1e-12)          # descending
    assert rep.beta == pytest.approx(rep.sigma[rep.numerical_rank - 1])
    assert np.linalg.norm(rep.worst_pressure_mode) == pytest.approx(1.0)
    # the report echoes no inputs
    b, x, m = infsup.pair_operators(*infsup.pair_spaces("taylor-hood", mesh))
    assert rep.beta == infsup.infsup_weighted(b, x, m).beta


# β_h and pressure kernel dims of the one-sided Jacobi SVD that ``oracles.svd``
# used before it called LAPACK's dgejsv (Python rotations, 1e-14 stopping
# test), recorded on the same meshes.  The ``euclidean`` rows are the
# smallest positive singular values of the raw B, the identity-norm pencil.
JACOBI_ROUTE = [
    ("p1p1", 4, "weighted", 0.10053584305115354, 8),
    ("p1p1", 4, "euclidean", 0.021025698160342242, 8),
    ("p1p1", 8, "weighted", 0.07167171802840394, 8),
    ("p1p1", 8, "euclidean", 0.009028032356284089, 8),
    ("p1p0", 4, "weighted", 0.22118640191215808, 14),
    ("p1p0", 4, "euclidean", 0.07747638874932851, 14),
    ("p1p0", 8, "weighted", 0.10298096046430644, 30),
    ("p1p0", 8, "euclidean", 0.010660983167577624, 30),
    ("mini", 4, "weighted", 0.3177603536573747, 1),
    ("mini", 4, "euclidean", 0.07179195494817046, 1),
    ("mini", 8, "weighted", 0.3143162596047305, 1),
    ("mini", 8, "euclidean", 0.032999477905979964, 1),
    ("taylor-hood", 4, "weighted", 0.36767535012650615, 1),
    ("taylor-hood", 4, "euclidean", 0.05438812112407101, 1),
    ("taylor-hood", 8, "weighted", 0.3661905156502212, 1),
    ("taylor-hood", 8, "euclidean", 0.021857363837797197, 1),
    ("p2p0", 4, "weighted", 0.5388304206643965, 1),
    ("p2p0", 4, "euclidean", 0.07740344080961611, 1),
    ("p2p0", 8, "weighted", 0.5076523011645859, 1),
    ("p2p0", 8, "euclidean", 0.019989166470987862, 1),
]


@pytest.mark.parametrize("pair,n,mode,beta,kernel_dim", JACOBI_ROUTE)
def test_beta_matches_jacobi_route(pair, n, mode, beta, kernel_dim):
    b, x, m = infsup.pair_operators(
        *infsup.pair_spaces(pair, unit_square_mesh(n)))
    rep = infsup.infsup_weighted(b, x, m) if mode == "weighted" else euclidean(b)
    assert rep.beta == pytest.approx(beta, rel=1e-12)
    assert rep.kernel_dim_pressure == kernel_dim
    # the kernel decision sits far from its cut (lambda ~ 1e-10 lambda_0):
    # every dropped eigenvalue is round-off next to beta^2 (p1p0 has more
    # pressure rows than velocity columns, so its kernel is structural and
    # none is dropped)
    assert np.all(rep.sigma[rep.numerical_rank:] ** 2 <= 1e-12 * rep.beta ** 2)


def jacobi_route(b, x=None, m=None):
    """The dense route ``infsup`` took before the eigen pencil, kept as the
    oracle: whiten B by the Cholesky factors of X = L L^T and M = R R^T, take
    the full ``dgejsv`` SVD of R^-1 B L^-T (of B without norms) and count the
    rank as #{sigma_i > 1e-10 max(n_p, n_u) sigma_0}."""
    w = b.toarray()
    if x is not None:
        l_fac = np.linalg.cholesky(x.toarray())
        r_fac = np.linalg.cholesky(m.toarray())
        w = scipy.linalg.solve_triangular(l_fac, w.T, lower=True).T
        w = scipy.linalg.solve_triangular(r_fac, w, lower=True)
    sigma = svd(w).sigma
    rank = int(np.count_nonzero(sigma > 1e-10 * max(w.shape) * sigma[0]))
    return infsup.InfSupReport(
        beta=float(sigma[rank - 1]), sigma=sigma, numerical_rank=rank,
        kernel_dim_pressure=w.shape[0] - rank, worst_pressure_mode=None,
        constant_pressure_angle=float("nan"))


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("pair", list(infsup.PAIRS))
def test_eigen_route_matches_jacobi_oracle(pair, weighted):
    mesh = unit_square_mesh(16)
    b, x, m = infsup.pair_operators(*infsup.pair_spaces(pair, mesh))
    rep = jacobi_route(b, x, m) if weighted else jacobi_route(b)
    got = infsup.infsup_weighted(b, x, m) if weighted else euclidean(b)
    assert got.beta == pytest.approx(rep.beta, rel=1e-12)
    assert got.kernel_dim_pressure == rep.kernel_dim_pressure
    assert len(got.sigma) == len(rep.sigma)
    kept = slice(rep.numerical_rank)
    assert np.allclose(got.sigma[kept], rep.sigma[kept], rtol=1e-10, atol=0)
    # the kernel decision sits far from its tolerance (~1e-8): every dropped
    # singular value is round-off next to beta (p1p0 has more pressure rows
    # than velocity columns, so its kernel is structural and none is dropped)
    assert np.all(rep.sigma[rep.numerical_rank:] <= 1e-12 * rep.beta)


def test_beta_route_takes_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the beta route took an SVD")

    monkeypatch.setattr(scipy.linalg.lapack, "dgejsv", no_svd)
    b, x, m = infsup.pair_operators(
        *infsup.pair_spaces("taylor-hood", unit_square_mesh(4)))
    for rep in (infsup.infsup_weighted(b, x, m), euclidean(b)):
        assert rep.beta > 0.0
        assert rep.constant_pressure_angle <= 1e-8


# --- spurious modes ---------------------------------------------------------

def test_checkerboard_alternation_p1p0():
    mesh = unit_square_mesh(8)
    rep = infsup.study("p1p0", mesh)
    score = infsup.alternation_score(rep.worst_pressure_mode, mesh,
                                     ElementKind.P0)
    assert score >= 0.8


def test_alternation_score_ignores_roundoff_signs():
    # 16 of the 128 cells of the p1p0 worst mode at n=8 are round-off
    # zeros; their signs must not move the score
    mesh = unit_square_mesh(8)
    mode = infsup.study("p1p0", mesh).worst_pressure_mode
    score = infsup.alternation_score(mode, mesh, ElementKind.P0)
    tiny = np.abs(mode) < infsup.ALTERNATION_RTOL * np.abs(mode).max()
    assert tiny.any()
    rng = np.random.default_rng(5)
    for _ in range(5):
        noisy = mode.copy()
        noisy[tiny] = rng.choice([-1e-18, 1e-18], tiny.sum())
        assert infsup.alternation_score(noisy, mesh, ElementKind.P0) == score
    assert infsup.alternation_score(np.zeros(mesh.n_triangles), mesh,
                                    ElementKind.P0) == 0.0


def test_taylor_hood_mode_score_reported():
    mesh = unit_square_mesh(4)
    rep = infsup.study("taylor-hood", mesh)
    score = infsup.alternation_score(rep.worst_pressure_mode, mesh,
                                     ElementKind.P1)
    assert 0.0 <= score <= 1.0      # diagnostic only, no threshold


def test_alternation_score_extremes():
    mesh = unit_square_mesh(4)
    checker = np.where(np.arange(mesh.n_triangles) % 2 == 0, 1.0, -1.0)
    # lower/upper triangles of each cell alternate: every interior edge
    # inside a cell flips, edges between aligned cells keep sign
    score = infsup.alternation_score(checker, mesh, ElementKind.P0)
    assert score > 0.4
    assert infsup.alternation_score(np.ones(mesh.n_triangles), mesh,
                                    ElementKind.P0) == 0.0
    smooth = mesh.nodes[:, 0] + 2.0   # strictly positive nodal field
    assert infsup.alternation_score(smooth, mesh, ElementKind.P1) == 0.0
    with pytest.raises(ValueError):
        infsup.alternation_score(np.ones(4), mesh, ElementKind.P2)
