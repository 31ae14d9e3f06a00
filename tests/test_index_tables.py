"""The index-table forms of the symmetric-tensor layer against loop references.

Each `loop_*` function below is a straightforward per-monomial or per-point
loop, kept as the reference the table-based library code must reproduce.
Where the library only moves entries (Hankel, pencil slices, derivatives,
the quadratic-form layout) the results must be equal. Where it reorders the
floating-point arithmetic (monomial products, the third moment, the
Gauss-Newton Jacobian) they must agree within RTOL, chosen as a few thousand
float64 ulps; the third moment's entries are means that can cancel, so their
tolerance is RTOL of the largest entry. The Jacobian is also checked against
central finite differences.
"""

import numpy as np
import pytest

from momentgmm import DecompositionOptions, SymmetricTensor, empirical_moments, hankel
from momentgmm.moments import _symmetric_array_coeffs
from momentgmm.symtensor import (
    evaluation_matrix,
    exponent_matrix,
    monomial_index,
    monomials,
    num_coeffs,
    partial_derivative,
    pow_linear,
    sum_index,
)
from momentgmm.waring import _jacobian, truncated_svd_basis

RTOL = 1e-12
DIMS = (1, 2, 3, 6, 30)
DEGREES = (1, 2, 3, 4)


def _index_list(alpha):
    """(1, 0, 2) -> [0, 2, 2]."""
    out = []
    for j, a in enumerate(alpha):
        out.extend([j] * a)
    return out


def loop_monomials(points, k):
    expo = exponent_matrix(points.shape[1], k)
    return np.prod(points[:, None, :] ** expo[None, :, :], axis=2)


def loop_hankel(t, k):
    rows = monomials(t.dim, k)
    cols = monomials(t.dim, t.order - k)
    idx = monomial_index(t.dim, t.order)
    mat = np.empty((len(rows), len(cols)), dtype=t.coeffs.dtype)
    for i, alpha in enumerate(rows):
        for j, beta in enumerate(cols):
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            mat[i, j] = t.coeffs[idx[gamma]]
    return mat


def loop_pencil_slices(u, dim, k):
    idx_k = monomial_index(dim, k)
    rows_km1 = monomials(dim, k - 1)
    slices = []
    for i in range(dim):
        sub = np.empty((len(rows_km1), u.shape[1]), dtype=u.dtype)
        for pos, beta in enumerate(rows_km1):
            alpha = list(beta)
            alpha[i] += 1
            sub[pos] = u[idx_k[tuple(alpha)]]
        slices.append(sub)
    return slices


def loop_partial_derivative(t, i):
    idx = monomial_index(t.dim, t.order)
    out = np.zeros(num_coeffs(t.dim, t.order - 1), dtype=t.coeffs.dtype)
    for pos, beta in enumerate(monomials(t.dim, t.order - 1)):
        alpha = list(beta)
        alpha[i] += 1
        out[pos] = t.order * t.coeffs[idx[tuple(alpha)]]
    return out


def loop_m3(data, m1):
    m = data.shape[1]
    coeffs = np.empty(num_coeffs(m, 3))
    for pos, alpha in enumerate(monomials(m, 3)):
        a, b, c = _index_list(alpha)
        raw = float(np.mean(data[:, a] * data[:, b] * data[:, c]))
        corr = (a == b) * m1[c] + (a == c) * m1[b] + (b == c) * m1[a]
        coeffs[pos] = raw - corr
    return coeffs


def loop_quadratic_coeffs(mat):
    m = mat.shape[0]
    out = np.empty(num_coeffs(m, 2))
    for pos, alpha in enumerate(monomials(m, 2)):
        j, k = _index_list(alpha)
        out[pos] = mat[j, k]
    return out


def loop_jacobian(weights, points, d):
    r, m = points.shape
    expo = exponent_matrix(m, d)
    jac = np.zeros((num_coeffs(m, d), r * (1 + m)))
    for i, (wi, p) in enumerate(zip(weights, points)):
        jac[:, i] = np.prod(p[None, :] ** expo, axis=1)
        for j in range(m):
            shifted = expo.copy()
            shifted[:, j] -= 1
            mask = expo[:, j] > 0
            dmono = np.zeros(num_coeffs(m, d))
            base = np.where(shifted[mask] < 0, 0, shifted[mask])
            dmono[mask] = expo[mask, j] * np.prod(p[None, :] ** base, axis=1)
            jac[:, r + i * m + j] = wi * dmono
    return jac


def random_tensor(rng, m, d):
    return SymmetricTensor(m, d, rng.standard_normal(num_coeffs(m, d)))


@pytest.mark.parametrize("m", DIMS)
def test_sum_index_adds_exponents(m):
    for k in range(0, 4):
        for l in range(1, 5 - k):
            table = sum_index(m, k, l)
            got = exponent_matrix(m, k + l)[table]
            want = exponent_matrix(m, k)[:, None, :] + exponent_matrix(m, l)[None, :, :]
            assert np.array_equal(got, want)


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("d", DEGREES)
def test_evaluation_matrix_matches_powers(m, d):
    rng = np.random.default_rng(10 * m + d)
    points = rng.standard_normal((3, m))
    np.testing.assert_allclose(
        evaluation_matrix(points, d), loop_monomials(points, d), rtol=RTOL, atol=0
    )


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("d", DEGREES)
def test_pow_linear_complex_matches_powers(m, d):
    rng = np.random.default_rng(20 * m + d)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    t = pow_linear(v, d)
    assert np.iscomplexobj(t.coeffs)
    np.testing.assert_allclose(t.coeffs, loop_monomials(v[None, :], d)[0], rtol=RTOL, atol=0)


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("d", (2, 3, 4))
def test_hankel_equals_loop(m, d):
    t = random_tensor(np.random.default_rng(30 * m + d), m, d)
    for k in range(1, d):
        assert np.array_equal(hankel(t, k).matrix, loop_hankel(t, k))


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("d", (2, 3, 4))
def test_pencil_slices_equal_loop(m, d):
    t = random_tensor(np.random.default_rng(40 * m + d), m, d)
    for k in range(1, d):
        # k = 1 is decompose's rank-1 path: one slice row per variable
        rank = 1 if k == 1 else None
        pencil, _ = truncated_svd_basis(hankel(t, k), DecompositionOptions(rank=rank))
        want = loop_pencil_slices(pencil.u, m, k)
        assert len(pencil.slices) == m
        for got_i, want_i in zip(pencil.slices, want):
            assert np.array_equal(got_i, want_i)


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("d", (2, 3, 4))
def test_partial_derivative_equals_loop(m, d):
    t = random_tensor(np.random.default_rng(50 * m + d), m, d)
    for i in range(m):
        assert np.array_equal(partial_derivative(t, i).coeffs, loop_partial_derivative(t, i))


@pytest.mark.parametrize("m", DIMS)
def test_empirical_m3_matches_loop(m):
    rng = np.random.default_rng(60 + m)
    data = rng.standard_normal((200, m)) + rng.uniform(-2.0, 2.0, m)
    moments = empirical_moments(data)
    want = loop_m3(data, moments.m1)
    np.testing.assert_allclose(
        moments.m3.coeffs, want, rtol=RTOL, atol=RTOL * np.abs(want).max()
    )


@pytest.mark.parametrize("m", DIMS)
def test_quadratic_coeffs_equal_loop(m):
    # not symmetric, so a layout that read the lower triangle would differ
    mat = np.random.default_rng(70 + m).standard_normal((m, m))
    assert np.array_equal(_symmetric_array_coeffs(mat), loop_quadratic_coeffs(mat))


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("d", DEGREES)
def test_jacobian_matches_loop_and_finite_differences(m, d):
    rng = np.random.default_rng(80 * m + d)
    r = 2
    weights = rng.uniform(0.5, 2.0, r)
    points = rng.standard_normal((r, m))
    jac = _jacobian(weights, points, d)
    np.testing.assert_allclose(jac, loop_jacobian(weights, points, d), rtol=RTOL, atol=0)

    def coeffs(theta):
        return theta[:r] @ evaluation_matrix(theta[r:].reshape(r, m), d)

    theta = np.concatenate([weights, points.ravel()])
    h = 1e-5
    fd = np.empty_like(jac)
    for col in range(len(theta)):
        step = np.zeros_like(theta)
        step[col] = h
        fd[:, col] = (coeffs(theta + step) - coeffs(theta - step)) / (2 * h)
    np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * np.abs(jac).max())

