import math

import numpy as np
import pytest

from momentgmm import (
    InputError,
    SymmetricTensor,
    WaringDecomposition,
    apolar,
    apolar_norm,
    evaluate,
    evaluation_matrix,
    pow_linear,
    reconstruct,
)
from momentgmm.symtensor import (
    monomials,
    multinomial,
    multinomial_weights,
    num_coeffs,
    partial_derivative,
)


def brute_force_eval(t, x):
    """Independent oracle: term-by-term summation over all exponents."""
    total = 0.0
    for alpha, c in zip(monomials(t.dim, t.order), t.coeffs):
        term = c * multinomial(t.order, alpha)
        for xj, aj in zip(x, alpha):
            term *= xj**aj
        total += term
    return total


def x1_cubed():
    # m=2, d=3; graded-lex order (3,0),(2,1),(1,2),(0,3)
    return SymmetricTensor(2, 3, [1.0, 0.0, 0.0, 0.0])


def x1_cubed_plus_x2_cubed():
    return SymmetricTensor(2, 3, [1.0, 0.0, 0.0, 1.0])


class TestMonomials:
    def test_graded_lex_order_m2_d3(self):
        assert monomials(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))

    def test_coefficient_count(self):
        for m in range(1, 11):
            for d in range(1, 7):
                assert len(monomials(m, d)) == math.comb(m + d - 1, d)
                assert num_coeffs(m, d) == math.comb(m + d - 1, d)

    def test_all_degrees_sum_to_d(self):
        for alpha in monomials(4, 5):
            assert sum(alpha) == 5


class TestEvaluate:
    def test_monomial(self):
        assert evaluate(x1_cubed(), [2.0, 0.0]) == pytest.approx(8.0)

    def test_sum_of_cubes(self):
        assert evaluate(x1_cubed_plus_x2_cubed(), [1.0, 1.0]) == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            t = SymmetricTensor(3, 3, rng.standard_normal(num_coeffs(3, 3)))
            x = rng.standard_normal(3)
            assert evaluate(t, x) == pytest.approx(brute_force_eval(t, x), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            evaluate(x1_cubed(), [1.0, 2.0, 3.0])


class TestPowLinear:
    def test_basis_vector(self):
        t = pow_linear([1.0, 0.0, 0.0], 3)
        expected = np.zeros(num_coeffs(3, 3))
        expected[0] = 1.0  # alpha=(3,0,0) comes first in graded-lex
        assert np.array_equal(t.coeffs, expected)

    def test_binomial_expansion(self):
        t = pow_linear([1.0, 1.0], 2)
        # (X1+X2)^2 = X1^2 + 2 X1 X2 + X2^2, so all T_alpha = 1
        assert np.array_equal(t.coeffs, [1.0, 1.0, 1.0])

    def test_pointwise(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(4)
        t = pow_linear(v, 4)
        for _ in range(10):
            x = rng.standard_normal(4)
            assert evaluate(t, x) == pytest.approx(float(v @ x) ** 4, rel=1e-10)

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            pow_linear([0.0, 0.0], 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda z: pow_linear(z, 3),
        lambda z: evaluation_matrix(z[None, :], 3),
        lambda z: SymmetricTensor(2, 1, z),
        lambda z: evaluate(SymmetricTensor(2, 3, np.ones(4)), z),
    ],
    ids=["pow_linear", "evaluation_matrix", "SymmetricTensor", "evaluate"],
)
def test_complex_input_rejected(call):
    with pytest.raises(InputError, match="must be real"):
        call(np.array([1.0 + 2.0j, 0.5]))


class TestApolar:
    def test_pure_power_unit(self):
        t = pow_linear([1.0, 0.0], 3)
        assert apolar(t, t) == pytest.approx(1.0)

    def test_evaluation_property_hand_case(self):
        # <(v.X)^2, X1 X2> = (X1 X2)(v) for v=(1,1)
        p = SymmetricTensor(2, 2, [0.0, 0.5, 0.0])  # X1 X2 = 2 * 0.5 * X1X2
        v = np.array([1.0, 1.0])
        assert apolar(pow_linear(v, 2), p) == pytest.approx(evaluate(p, v))

    def test_evaluation_property_random(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 4):
            v = rng.standard_normal(3)
            p = SymmetricTensor(3, d, rng.standard_normal(num_coeffs(3, d)))
            lhs = apolar(pow_linear(v, d), p)
            assert lhs == pytest.approx(evaluate(p, v), rel=1e-12)

    def test_derivative_rule(self):
        # <p, X_i q>_d = (1/d) <dp/dX_i, q>_(d-1)
        rng = np.random.default_rng(3)
        m, d = 3, 3
        p = SymmetricTensor(m, d, rng.standard_normal(num_coeffs(m, d)))
        q = SymmetricTensor(m, d - 1, rng.standard_normal(num_coeffs(m, d - 1)))
        for i in range(m):
            xiq = _multiply_by_variable(q, i)
            lhs = apolar(p, xiq)
            rhs = apolar(partial_derivative(p, i), q) / d
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_inner_product_axioms(self):
        rng = np.random.default_rng(4)
        m, d = 3, 3
        s = num_coeffs(m, d)
        for _ in range(20):
            p = SymmetricTensor(m, d, rng.standard_normal(s))
            q = SymmetricTensor(m, d, rng.standard_normal(s))
            r = SymmetricTensor(m, d, rng.standard_normal(s))
            a, b = rng.standard_normal(2)
            assert apolar(p, q) == pytest.approx(apolar(q, p), rel=1e-10, abs=1e-12)
            combo = SymmetricTensor(m, d, a * p.coeffs + b * q.coeffs)
            assert apolar(combo, r) == pytest.approx(
                a * apolar(p, r) + b * apolar(q, r), rel=1e-10, abs=1e-12
            )
            assert apolar(p, p) > 0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        m, d = 3, 3
        u, _ = np.linalg.qr(rng.standard_normal((m, m)))
        s = num_coeffs(m, d)
        p = SymmetricTensor(m, d, rng.standard_normal(s))
        q = SymmetricTensor(m, d, rng.standard_normal(s))
        pu = _compose_linear(p, u)
        qu = _compose_linear(q, u)
        bound = 1e-10 * apolar_norm(p) * apolar_norm(q)
        assert abs(apolar(pu, qu) - apolar(p, q)) <= bound

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            apolar(x1_cubed(), pow_linear([1.0, 1.0], 2))


def _multiply_by_variable(q, i):
    """X_i * q as an order-(d+1) tensor, via the coefficient identity
    (X_i q)_alpha * multinom(d+1, alpha) = q_(alpha-e_i) * multinom(d, alpha-e_i)."""
    from momentgmm.symtensor import monomial_index

    d = q.order
    m = q.dim
    out = np.zeros(num_coeffs(m, d + 1))
    idx = monomial_index(m, d)
    w_hi = multinomial_weights(m, d + 1)
    w_lo = multinomial_weights(m, d)
    for pos, alpha in enumerate(monomials(m, d + 1)):
        if alpha[i] == 0:
            continue
        beta = list(alpha)
        beta[i] -= 1
        j = idx[tuple(beta)]
        out[pos] = q.coeffs[j] * w_lo[j] / w_hi[pos]
    return SymmetricTensor(m, d + 1, out)


def _compose_linear(p, u):
    """p(u x) computed coefficientwise by evaluating on enough points and
    solving for the coefficients (small sizes only)."""
    m, d = p.dim, p.order
    s = num_coeffs(m, d)
    rng = np.random.default_rng(99)
    pts = rng.standard_normal((s, m))
    expo = np.array(monomials(m, d), dtype=float)
    design = np.prod(pts[:, None, :] ** expo[None, :, :], axis=2) * multinomial_weights(m, d)
    vals = np.array([evaluate(p, u @ x) for x in pts])
    coeffs = np.linalg.solve(design, vals)
    return SymmetricTensor(m, d, coeffs)


class TestDerivative:
    def test_against_finite_differences(self):
        rng = np.random.default_rng(6)
        t = SymmetricTensor(3, 4, rng.standard_normal(num_coeffs(3, 4)))
        x = rng.standard_normal(3)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (evaluate(t, x + e) - evaluate(t, x - e)) / (2 * h)
            assert evaluate(partial_derivative(t, i), x) == pytest.approx(fd, rel=1e-6)


class TestReconstruct:
    def test_single_power(self):
        w = WaringDecomposition(
            weights=[1.0], points=np.array([[1.0, 0.0]]), order=3
        )
        assert np.allclose(reconstruct(w).coeffs, x1_cubed().coeffs)

    def test_sum_of_cubes(self):
        w = WaringDecomposition(
            weights=[1.0, 1.0], points=np.eye(2), order=3
        )
        assert np.allclose(reconstruct(w).coeffs, x1_cubed_plus_x2_cubed().coeffs)

    def test_matches_sum_of_pow_linear(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((3, 4))
        wts = rng.standard_normal(3)
        w = WaringDecomposition(weights=wts, points=pts, order=3)
        direct = sum(
            wi * pow_linear(p, 3).coeffs for wi, p in zip(wts, pts)
        )
        diff = SymmetricTensor(4, 3, reconstruct(w).coeffs - direct)
        assert apolar_norm(diff) == pytest.approx(0.0, abs=1e-12)

    def test_zero_point_rejected(self):
        with pytest.raises(InputError):
            WaringDecomposition(
                weights=[1.0], points=np.zeros((1, 3)), order=3
            )


class TestJson:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(8)
        t = SymmetricTensor(3, 3, rng.standard_normal(num_coeffs(3, 3)))
        back = SymmetricTensor.from_json(t.to_json())
        assert back.dim == t.dim and back.order == t.order
        assert np.array_equal(back.coeffs, t.coeffs)

    def test_malformed(self):
        with pytest.raises(InputError):
            SymmetricTensor.from_json('{"dim": 2}')
        for text in (
            '{"dim": 2, "order": 3,',
            '{"dim": "x", "order": 3, "coeffs": [1.0]}',
            '{"dim": 2, "order": 3, "coeffs": ["a", 1.0, 1.0, 1.0]}',
        ):
            with pytest.raises(InputError, match="malformed tensor JSON"):
                SymmetricTensor.from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 3.7, "order": 3, "coeffs": [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]}',
            '{"dim": 2, "order": true, "coeffs": [1.0, 0.5]}',
        ],
        ids=["dim-fraction", "order-bool"],
    )
    def test_non_integer_dim_or_order_rejected(self, text):
        # int() would read these as dim 3 and order 1, which the coefficients fit
        with pytest.raises(InputError, match="must be an integer"):
            SymmetricTensor.from_json(text)
