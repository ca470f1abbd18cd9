"""Tests for the dense kernels: LU (through the ``lu_solve`` oracle on the
one dense LU, ``linalg.dense_lu``), and the Jacobi SVD oracle of β_h."""

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse as sp

from infsup_lab.linalg import SingularMatrix, column_scale
from oracles import column_scale as column_scale_oracle, lu_solve, svd


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# lu_solve
# ---------------------------------------------------------------------------

def test_lu_solve_matches_reference_and_residual_bound():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 17, 40):
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = lu_solve(a, b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)
        res = np.linalg.norm(a @ x - b)
        bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
        assert res <= bound


def test_lu_solve_matrix_rhs():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    b = rng.standard_normal((6, 3))
    x = lu_solve(a, b)
    assert np.allclose(a @ x, b, atol=1e-10)


def test_lu_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        lu_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0])
    with pytest.raises(SingularMatrix):
        lu_solve(np.zeros((3, 3)), np.ones(3))


def test_lu_solve_near_singular_raises():
    # second pivot ~1e-16 relative to unit columns
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    with pytest.raises(SingularMatrix):
        lu_solve(a, [1.0, 2.0])


# ---------------------------------------------------------------------------
# column scale of the pivot contract
# ---------------------------------------------------------------------------

def test_column_scale_of_a_dense_matrix_is_the_einsum_value():
    a = np.random.default_rng(9).standard_normal((7, 5))
    assert column_scale(a) == float(np.sqrt(np.max(
        np.einsum("ij,ij->j", a, a))))
    assert column_scale(np.diag([3.0, -4.0])) == 4.0


def test_column_scale_sums_duplicates_before_squaring():
    # column 0 holds 1 + 2 at (0, 0): its norm is 3, not sqrt(1 + 4)
    m = sp.csr_array((np.array([1.0, 2.0, 2.5]), np.array([0, 0, 1]),
                      np.array([0, 2, 3])), shape=(2, 3))
    assert not m.has_canonical_format
    assert column_scale(m) == 3.0 == column_scale_oracle(m)
    assert m.nnz == 3                     # the caller's matrix is untouched
    rng = np.random.default_rng(10)
    rows, cols = rng.integers(0, 6, 40), rng.integers(0, 4, 40)
    coo = sp.coo_array((rng.standard_normal(40), (rows, cols)), shape=(6, 4))
    for m in (coo, coo.tocsr(), coo.tocsc()):
        assert column_scale(m) == pytest.approx(column_scale_oracle(m),
                                                rel=1e-15)


# ---------------------------------------------------------------------------
# SVD
# ---------------------------------------------------------------------------

def svd_checks(a, result, rtol=1e-12):
    m, n = a.shape
    scale = max(np.linalg.norm(a), 1.0)
    assert result.u.shape == (m, m)
    assert result.v.shape == (n, n)
    assert len(result.sigma) == min(m, n)
    assert np.all(result.sigma >= 0.0)
    assert np.all(np.diff(result.sigma) <= 1e-13 * scale)
    assert np.linalg.norm(result.u.T @ result.u - np.eye(m)) <= rtol * max(m, 1)
    assert np.linalg.norm(result.v.T @ result.v - np.eye(n)) <= rtol * max(n, 1)
    assert np.linalg.norm(result.reconstruct() - a) <= rtol * scale


def test_svd_diagonal():
    r = svd(np.diag([3.0, 1.0]))
    assert np.allclose(r.sigma, [3.0, 1.0], atol=1e-14)
    svd_checks(np.diag([3.0, 1.0]), r)


def test_svd_antidiagonal_degenerate_pair():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    r = svd(a)
    assert np.allclose(r.sigma, [1.0, 1.0], atol=1e-14)
    svd_checks(a, r)


def test_svd_recovers_constructed_singular_values():
    rng = np.random.default_rng(3)
    u = random_orthogonal(rng, 4)
    v = random_orthogonal(rng, 3)
    sigma = np.array([5.0, 2.0, 0.1])
    a = u[:, :3] @ np.diag(sigma) @ v.T
    r = svd(a)
    assert np.allclose(r.sigma, sigma, rtol=1e-13)
    svd_checks(a, r)


def test_svd_rank_counts_values_above_relative_tolerance():
    rng = np.random.default_rng(5)
    u = random_orthogonal(rng, 3)
    v = random_orthogonal(rng, 3)
    a = u @ np.diag([5.0, 2.0, 1e-14]) @ v.T
    r = svd(a)
    assert r.sigma[1] == pytest.approx(2.0, rel=1e-12)


def test_svd_zero_and_rank_deficient():
    r = svd(np.zeros((3, 2)))
    assert np.all(r.sigma == 0.0)
    svd_checks(np.zeros((3, 2)), r)

    a = np.outer([1.0, 2.0, -1.0], [3.0, 0.5])   # rank one, 3x2
    r = svd(a)
    svd_checks(a, r)


def test_svd_wide_matrix():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 7))
    r = svd(a)
    svd_checks(a, r)
    assert np.allclose(np.sort(r.sigma), np.sort(np.linalg.svd(a, compute_uv=False)),
                       rtol=1e-12)


def test_svd_random_batch_reconstruction():
    rng = np.random.default_rng(42)
    shapes = [(1, 1), (2, 5), (5, 2), (8, 8), (20, 7), (13, 31), (60, 40), (40, 60)]
    for trial in range(100):
        m, n = shapes[trial % len(shapes)]
        if trial % 3 == 0:
            k = max(1, min(m, n) // 2)      # force rank deficiency
            a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        else:
            a = rng.standard_normal((m, n))
        svd_checks(a, svd(a))


def test_svd_sigma_matrix_shape():
    r = svd(np.ones((2, 4)))
    assert r.sigma_matrix().shape == (2, 4)


def test_svd_small_values_keep_relative_accuracy():
    # orthonormal columns scaled down to 1e-21: the singular values are the
    # scales, and none may be rounded to zero against the largest
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((12, 8)))
    scales = 10.0 ** -np.arange(0, 24, 3.0)
    r = svd(q * scales)
    assert np.allclose(r.sigma / scales, 1.0, rtol=0, atol=1e-13)


def test_svd_has_no_size_limit():
    # Taylor-Hood at n=32 whitens to a 1089x7938 block
    r = svd(np.ones((5001, 2)))
    assert r.sigma[0] == pytest.approx(np.sqrt(10002.0), rel=1e-12)
    assert r.sigma[1] <= 1e-12 * r.sigma[0]


def test_svd_empty_side():
    # a one-cell mesh leaves P1 velocity no free dof: B is (n_p, 0)
    for shape in ((3, 0), (0, 3)):
        a = np.zeros(shape)
        r = svd(a)
        svd_checks(a, r)


def failing_dgejsv(a, **kwargs):
    n = a.shape[1]
    return np.zeros(n), np.eye(a.shape[0]), np.eye(n), np.ones(7), np.zeros(3), 1


def test_svd_lapack_failure_raises_linalg_error(monkeypatch):
    monkeypatch.setattr(scipy.linalg.lapack, "dgejsv", failing_dgejsv)
    with pytest.raises(np.linalg.LinAlgError, match="info=1"):
        svd(np.eye(3))


def test_block_saddle_eigenvalues_are_plus_minus_singular_values():
    # eigenpairs of [[0, B], [B^T, 0]] come in +/- sigma pairs
    rng = np.random.default_rng(29)
    b = rng.standard_normal((4, 6))
    m, n = b.shape
    block = np.zeros((m + n, m + n))
    block[:m, m:] = b
    block[m:, :m] = b.T
    lam = scipy.linalg.eigh(block, eigvals_only=True)
    sig = svd(b).sigma
    expect = np.sort(np.concatenate([sig, -sig, np.zeros(n - m)]))[::-1]
    assert np.allclose(np.sort(lam), np.sort(expect), atol=1e-10)
