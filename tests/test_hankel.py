import numpy as np
import pytest

from momentgmm import (
    InputError,
    SymmetricTensor,
    WaringDecomposition,
    evaluation_matrix,
    hankel,
    pow_linear,
    reconstruct,
)
from momentgmm.hankel import numerical_rank
from momentgmm.symtensor import monomials, num_coeffs
from conftest import random_independent_points


def sum_of_cubes(m=2):
    return reconstruct(
        WaringDecomposition(weights=np.ones(m), points=np.eye(m), order=3)
    )


class TestHankel:
    def test_sum_of_cubes_rank(self):
        h = hankel(sum_of_cubes(2), 1)
        assert h.shape == (2, 3)
        assert numerical_rank(h) == 2

    def test_rank_one_power(self):
        rng = np.random.default_rng(0)
        xi = rng.standard_normal(3)
        h = hankel(pow_linear(xi, 3), 2)
        assert numerical_rank(h) == 1
        # column space is spanned by the degree-2 monomial vector of xi
        xi2 = np.array([np.prod(xi ** np.array(a)) for a in monomials(3, 2)])
        u, _, _ = np.linalg.svd(h)
        cos = abs(u[:, 0] @ xi2) / np.linalg.norm(xi2)
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_random_rank_r(self):
        rng = np.random.default_rng(1)
        pts = random_independent_points(rng, 4, 6)
        t = reconstruct(WaringDecomposition(rng.uniform(0.5, 2, 4), pts, 3))
        assert numerical_rank(hankel(t, 2)) == 4

    def test_entry_depends_only_on_alpha_plus_beta(self):
        rng = np.random.default_rng(2)
        t = SymmetricTensor(3, 4, rng.standard_normal(num_coeffs(3, 4)))
        h = hankel(t, 2)
        rows = monomials(3, 2)
        cols = monomials(3, 2)
        seen = {}
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                key = tuple(x + y for x, y in zip(a, b))
                if key in seen:
                    assert h[i, j] == seen[key]
                seen[key] = h[i, j]

    def test_linearity(self):
        rng = np.random.default_rng(3)
        s = num_coeffs(3, 3)
        t1 = SymmetricTensor(3, 3, rng.standard_normal(s))
        t2 = SymmetricTensor(3, 3, rng.standard_normal(s))
        a, b = 2.5, -1.25
        combo = SymmetricTensor(3, 3, a * t1.coeffs + b * t2.coeffs)
        assert np.allclose(
            hankel(combo, 1),
            a * hankel(t1, 1) + b * hankel(t2, 1),
        )

    def test_rank_subadditivity(self):
        rng = np.random.default_rng(4)
        for r in (1, 2, 3):
            pts = rng.standard_normal((r, 4))
            t = reconstruct(WaringDecomposition(rng.uniform(0.1, 2, r), pts, 3))
            for k in (1, 2):
                assert numerical_rank(hankel(t, k)) <= r

    def test_k_out_of_range(self):
        with pytest.raises(InputError):
            hankel(sum_of_cubes(), 3)


class TestEvaluationMatrix:
    def test_basis_vectors_identity_pattern(self):
        e = evaluation_matrix(np.eye(3), 1)
        assert np.array_equal(e, np.eye(3))

    def test_degree_two_hand_case(self):
        # monomials of degree 2 in 2 vars: X1^2, X1X2, X2^2
        e = evaluation_matrix(np.eye(2), 2)
        assert np.array_equal(e, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def test_rows_match_monomial_evaluation(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((3, 3))
        e = evaluation_matrix(pts, 2)
        for i, xi in enumerate(pts):
            for j, alpha in enumerate(monomials(3, 2)):
                assert e[i, j] == pytest.approx(
                    np.prod(xi ** np.array(alpha)), rel=1e-12
                )
