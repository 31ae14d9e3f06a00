"""The index-table forms of the symmetric-tensor layer against loop references.

Each `loop_*` function below is a straightforward per-monomial or per-point
loop, kept as the reference the table-based library code must reproduce.
`loop_exponents` is the recursive graded-lex enumeration the library's one
enumeration, `index_tuples`, replaced; the other references index through it,
not through the library's tables. Where the library only moves entries
(Hankel, pencil slices, derivatives, the quadratic-form layout) the results
must be equal. Where it reorders the floating-point arithmetic (monomial
products, the third moment, the Gauss-Newton Jacobian) they must agree within
RTOL, chosen as a few thousand float64 ulps; the third moment's entries are
means that can cancel, so their tolerance is RTOL of the largest entry. The
Jacobian is also checked against central finite differences.

`scatter_jacobian`, the Jacobian filled through the shift table, is in turn
the reference for `refine`'s Gram-form normal equations, which never build it:
their unknowns are the points alone, its point columns.
`lift_evaluation_matrix` and `unique_symmetric_array_coeffs` are the earlier
shift-table forms of the two `index_tuples` gathers, and `dense_m3_coeffs` the
earlier third moment, mirrored into the k x k x k array and gathered back;
the library must match them bit for bit and in memory order, since BLAS
rounding downstream depends on both.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from momentgmm import SymmetricTensor, empirical_moments, hankel
from momentgmm.moments import MOMENT_BLOCK_ELEMENTS, _m3_array, _symmetric_array_coeffs
from momentgmm.symtensor import (
    evaluation_matrix,
    index_tuples,
    monomial_index,
    monomials,
    multinomial_weights,
    num_coeffs,
    partial_derivative,
    sum_index,
)
from momentgmm.waring import _normal_equations, truncated_svd_basis

RTOL = 1e-12
DIMS = (1, 2, 3, 6, 30)
DEGREES = (1, 2, 3, 4)
# degree 0, one variable, a high degree in few variables and many variables
EDGE_SHAPES = ((1, 0), (6, 0), (1, 7), (3, 12), (30, 3))


@functools.cache
def loop_exponents(dim, degree):
    """Exponent vectors of total degree `degree` in `dim` variables,
    lexicographically descending, built recursively on the first exponent."""
    if dim == 1:
        return ((degree,),)
    return tuple(
        (first,) + rest
        for first in range(degree, -1, -1)
        for rest in loop_exponents(dim - 1, degree - first)
    )


@functools.cache
def loop_index(dim, degree):
    return {alpha: i for i, alpha in enumerate(loop_exponents(dim, degree))}


def _index_list(alpha):
    """(1, 0, 2) -> [0, 2, 2]."""
    out = []
    for j, a in enumerate(alpha):
        out.extend([j] * a)
    return out


def exponent_matrix(dim, degree):
    """s x m integer matrix whose rows are the graded-lex exponent vectors."""
    return np.array(loop_exponents(dim, degree), dtype=np.int64)


def loop_monomials(points, k):
    expo = exponent_matrix(points.shape[1], k)
    return np.prod(points[:, None, :] ** expo[None, :, :], axis=2)


def loop_hankel(t, k):
    rows = loop_exponents(t.dim, k)
    cols = loop_exponents(t.dim, t.order - k)
    idx = loop_index(t.dim, t.order)
    mat = np.empty((len(rows), len(cols)), dtype=t.coeffs.dtype)
    for i, alpha in enumerate(rows):
        for j, beta in enumerate(cols):
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            mat[i, j] = t.coeffs[idx[gamma]]
    return mat


def loop_pencil_slices(u, dim, k):
    idx_k = loop_index(dim, k)
    rows_km1 = loop_exponents(dim, k - 1)
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
    idx = loop_index(t.dim, t.order)
    out = np.zeros(num_coeffs(t.dim, t.order - 1), dtype=t.coeffs.dtype)
    for pos, beta in enumerate(loop_exponents(t.dim, t.order - 1)):
        alpha = list(beta)
        alpha[i] += 1
        out[pos] = t.order * t.coeffs[idx[tuple(alpha)]]
    return out


def loop_m3(data, m1):
    m = data.shape[1]
    coeffs = np.empty(num_coeffs(m, 3))
    for pos, alpha in enumerate(loop_exponents(m, 3)):
        a, b, c = _index_list(alpha)
        raw = float(np.mean(data[:, a] * data[:, b] * data[:, c]))
        corr = (a == b) * m1[c] + (a == c) * m1[b] + (b == c) * m1[a]
        coeffs[pos] = raw - corr
    return coeffs


def loop_quadratic_coeffs(mat):
    m = mat.shape[0]
    out = np.empty(num_coeffs(m, 2))
    for pos, alpha in enumerate(loop_exponents(m, 2)):
        j, k = _index_list(alpha)
        out[pos] = mat[j, k]
    return out


def loop_multinomial_weights(dim, degree):
    return np.array(
        [math.factorial(degree) // math.prod(map(math.factorial, alpha))
         for alpha in loop_exponents(dim, degree)],
        dtype=float,
    )


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


def scatter_jacobian(weights, points, d):
    """Jacobian of the coefficients of sum_i w_i (p_i . X)^d: column i is the
    derivative in w_i, column r + i*m + j the one in p_ij, which at gamma =
    beta + e_j is w_i * gamma_j * p_i^beta and zero where gamma_j = 0."""
    r, m = points.shape
    shift = sum_index(m, d - 1, 1)
    jac = np.zeros((num_coeffs(m, d), r * (1 + m)))
    jac[:, :r] = evaluation_matrix(points, d).T
    lower = weights[:, None] * (evaluation_matrix(points, d - 1) if d > 1 else 1.0)
    gamma_j = exponent_matrix(m, d - 1) + 1
    cols = r + m * np.arange(r)[:, None] + np.arange(m)
    jac[shift[:, None, :], cols] = lower.T[:, :, None] * gamma_j[:, None, :]
    return jac


def lift_evaluation_matrix(points, k):
    """Monomials built degree by degree, x^(beta + e_i) = x^beta * x_i, with
    (beta, i) the first entry of each degree-d monomial in the shift table."""
    m = points.shape[1]
    out = np.ones((points.shape[0], 1))
    for degree in range(1, k + 1):
        _, first = np.unique(sum_index(m, degree - 1, 1), return_index=True)
        beta, var = np.divmod(first, m)
        out = out[:, beta] * points[:, var]
    return out


def unique_symmetric_array_coeffs(arr):
    """Entry of each monomial at its first position in C order, found with
    np.unique over the flattened shift tables."""
    pos = np.arange(arr.shape[0])
    for degree in range(1, arr.ndim):
        pos = sum_index(arr.shape[0], degree, 1)[pos]
    _, first = np.unique(pos, return_index=True)
    return arr.ravel()[first]


def dense_m3_coeffs(y, m1):
    """The adjusted third moment as _m3_array formed it before it returned
    coefficients: the blocked pair sums mirrored over (a, b) into the
    k x k x k array, less sym(m1 (x) I), gathered at the sorted index tuples."""
    n, k = y.shape
    a, b = index_tuples(k, 2).T
    step = max(1, MOMENT_BLOCK_ELEMENTS // len(a))
    raw = 0.0
    for i in range(0, n, step):
        rows = y[i : i + step]
        raw += (rows[:, a] * rows[:, b]).T @ rows
    raw = raw[sum_index(k, 1, 1)] / n
    eye = np.eye(k)
    dense = raw - (
        eye[:, :, None] * m1 + eye[:, None, :] * m1[:, None] + eye[None, :, :] * m1[:, None, None]
    )
    return _symmetric_array_coeffs(dense)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


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
@pytest.mark.parametrize("d", (0,) + DEGREES)
def test_index_tuples_list_exponents(m, d):
    table = index_tuples(m, d)
    assert table.shape == (num_coeffs(m, d), d)
    assert np.all(np.diff(table, axis=1) >= 0)
    counts = np.array([np.bincount(row, minlength=m) for row in table]).reshape(-1, m)
    assert np.array_equal(counts, exponent_matrix(m, d))


@pytest.mark.parametrize(
    "m, d", sorted({(m, d) for m in DIMS for d in (0,) + DEGREES} | set(EDGE_SHAPES))
)
def test_enumeration_equals_recursive_loop(m, d):
    want = loop_exponents(m, d)
    assert monomials(m, d) == want
    assert monomial_index(m, d) == loop_index(m, d)
    tuples = np.array([_index_list(alpha) for alpha in want], dtype=np.intp)
    assert index_tuples(m, d).dtype == np.intp
    assert np.array_equal(index_tuples(m, d), tuples.reshape(len(want), d))
    assert np.array_equal(multinomial_weights(m, d), loop_multinomial_weights(m, d))


@pytest.mark.parametrize("m, d", EDGE_SHAPES)
def test_edge_shapes_equal_loops(m, d):
    for k in range(d + 1):
        got = exponent_matrix(m, d)[sum_index(m, k, d - k)]
        want = exponent_matrix(m, k)[:, None, :] + exponent_matrix(m, d - k)[None, :, :]
        assert np.array_equal(got, want)
    points = np.random.default_rng(m + d).standard_normal((3, m))
    np.testing.assert_allclose(
        evaluation_matrix(points, d), loop_monomials(points, d), rtol=RTOL, atol=0
    )
    if d < 2:
        return
    t = random_tensor(np.random.default_rng(140 * m + d), m, d)
    for i in range(m):
        assert np.array_equal(partial_derivative(t, i).coeffs, loop_partial_derivative(t, i))
    for k in range(1, d):
        assert np.array_equal(hankel(t, k), loop_hankel(t, k))
        slices = truncated_svd_basis(t, k)
        u = np.linalg.svd(hankel(t, k), full_matrices=False)[0][:, : slices.shape[-1]]
        for got_i, want_i in zip(slices, loop_pencil_slices(u, m, k), strict=True):
            assert np.array_equal(got_i, want_i)


@pytest.mark.parametrize("m", DIMS)
def test_m3_coeffs_bit_identical_to_dense_form(m):
    rng = np.random.default_rng(130 + m)
    block = MOMENT_BLOCK_ELEMENTS // num_coeffs(m, 2)
    for n in (2, block, block + 1, 2 * block + 1):
        y = rng.standard_normal((n, m)) * rng.uniform(0.1, 3.0, m) + rng.uniform(-1e3, 1e3)
        m1 = rng.standard_normal(m)
        assert_same_bits(_m3_array(y, m1), dense_m3_coeffs(y, m1))
        # small integers and a signed-zero M1, so that exact zeros carry signs
        y = rng.integers(-1, 2, size=(n, m)).astype(float)
        m1 = np.where(rng.random(m) < 0.5, -0.0, 0.0)
        assert_same_bits(_m3_array(y, m1), dense_m3_coeffs(y, m1))


@pytest.mark.parametrize("layout", ("random", "axis"))
@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("k", (0,) + DEGREES)
def test_evaluation_matrix_bit_identical_to_lift_form(m, k, layout):
    rng = np.random.default_rng(110 * m + k)
    for r in (1, 4):
        if layout == "axis":
            # negative entries, so zero products carry a sign
            points = -orthogonal_points(min(r, m), m)
        else:
            points = rng.standard_normal((r, m))
        assert_same_bits(evaluation_matrix(points, k), lift_evaluation_matrix(points, k))


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("ndim", DEGREES)
def test_symmetric_array_coeffs_bit_identical_to_unique_form(m, ndim):
    rng = np.random.default_rng(120 * m + ndim)
    base = rng.standard_normal((m,) * ndim)
    # symmetrized, then perturbed in the last digits, so that the copies of an
    # entry at permuted positions nearly always differ, as the third-moment
    # array's do
    arr = sum(np.transpose(base, perm) for perm in itertools.permutations(range(ndim)))
    arr *= 1.0 + 1e-15 * rng.standard_normal(arr.shape)
    assert_same_bits(_symmetric_array_coeffs(arr), unique_symmetric_array_coeffs(arr))


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("d", (2, 3, 4))
def test_hankel_equals_loop(m, d):
    t = random_tensor(np.random.default_rng(30 * m + d), m, d)
    for k in range(1, d):
        assert np.array_equal(hankel(t, k), loop_hankel(t, k))


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("d", (2, 3, 4))
def test_pencil_slices_equal_loop(m, d):
    t = random_tensor(np.random.default_rng(40 * m + d), m, d)
    for k in range(1, d):
        # k = 1 is decompose's rank-1 path: one slice row per variable
        rank = 1 if k == 1 else None
        slices = truncated_svd_basis(t, k, rank=rank)
        # the same LAPACK call on the same matrix, so U is exactly the library's
        u = np.linalg.svd(hankel(t, k), full_matrices=False)[0][:, : slices.shape[-1]]
        want = loop_pencil_slices(u, m, k)
        assert len(slices) == m
        for got_i, want_i in zip(slices, want):
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
    jac = scatter_jacobian(weights, points, d)
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


def orthogonal_points(r, m):
    """r <= m points on distinct coordinate axes, so every G_ik off the
    diagonal is exactly 0, where a naive G**(d-2) would be 0**-1 at d = 1."""
    points = np.zeros((r, m))
    points[np.arange(r), np.arange(r)] = 1.0 + np.arange(r)
    return points


@pytest.mark.parametrize("layout", ("random", "orthogonal"))
@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("d", DEGREES)
def test_normal_equations_match_jacobian(m, d, layout):
    # refine's unknowns are the points of sum_i s_i (q_i . X)^d, the signs
    # fixed: the point columns of the weight-and-point Jacobian
    rng = np.random.default_rng(90 * m + d)
    r = min(3, m) if layout == "orthogonal" else 3
    signs = rng.choice((-1.0, 1.0), r)
    points = orthogonal_points(r, m) if layout == "orthogonal" else rng.standard_normal((r, m))
    res = rng.standard_normal(num_coeffs(m, d))
    c = multinomial_weights(m, d)
    jac = scatter_jacobian(signs, points, d)[:, r:]
    want_jtj = jac.T @ (c[:, None] * jac)
    want_grad = jac.T @ (c * res)

    jtj, grad = _normal_equations(signs, points, d, res)
    assert jtj.shape == (r * m, r * m) and grad.shape == (r * m,)
    assert np.all(np.isfinite(jtj)) and np.all(np.isfinite(grad))
    np.testing.assert_allclose(jtj, want_jtj, rtol=RTOL, atol=RTOL * np.abs(want_jtj).max())
    np.testing.assert_allclose(grad, want_grad, rtol=RTOL, atol=RTOL * np.abs(want_grad).max())


@pytest.mark.parametrize("m", DIMS)
@pytest.mark.parametrize("d", DEGREES)
def test_normal_equations_gradient_matches_cost_finite_differences(m, d):
    """The gradient is half the derivative of the squared apolar residual
    in the points, the signs fixed."""
    rng = np.random.default_rng(100 * m + d)
    r = 2
    signs = np.array([1.0, -1.0])
    points = rng.standard_normal((r, m))
    t = random_tensor(rng, m, d).coeffs
    c = multinomial_weights(m, d)

    def cost(theta):
        res = signs @ evaluation_matrix(theta.reshape(r, m), d) - t
        return res @ (c * res)

    theta = points.ravel()
    res = signs @ evaluation_matrix(points, d) - t
    _, grad = _normal_equations(signs, points, d, res)
    h = 1e-6
    fd = np.empty_like(grad)
    for col in range(len(theta)):
        step = np.zeros_like(theta)
        step[col] = h
        fd[col] = (cost(theta + step) - cost(theta - step)) / (4 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.abs(grad).max())
