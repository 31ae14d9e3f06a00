import json

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from momentgmm import (
    GmmParams,
    InputError,
    empirical_moments,
    exact_moments,
    recover_parameters,
    sample,
)
from momentgmm.gmm import e_step, em_fit, init_moments
from momentgmm.symtensor import monomials
from conftest import random_independent_points


def brute_force_m3_coeff(weights, means, alpha):
    """Oracle for one coefficient of sum_i w_i (mu_i . X)^3: the coefficient
    of X^alpha divided by multinom(3, alpha)."""
    total = 0.0
    for w, mu in zip(weights, means):
        term = w
        for mj, aj in zip(mu, alpha):
            term *= mj**aj
        total += term
    return total


def random_params(rng, r, m):
    weights = rng.uniform(0.5, 1.5, r)
    weights /= weights.sum()
    means = random_independent_points(rng, r, m, scale=5.0)
    variances = rng.uniform(0.5, 3.0, r)
    return GmmParams(weights=weights, means=means, variances=variances)


def match_components(got_means, true_means):
    """Greedy row matching; returns the permutation of got aligned to true."""
    used = set()
    perm = []
    for mu in true_means:
        dists = [
            np.inf if j in used else np.linalg.norm(got_means[j] - mu)
            for j in range(len(got_means))
        ]
        j = int(np.argmin(dists))
        used.add(j)
        perm.append(j)
    return perm


class TestExactMoments:
    def test_sigma_bar_is_mean_variance(self, example1_params):
        ms = exact_moments(example1_params)
        assert ms.sigma_bar_sq == pytest.approx(
            float(example1_params.weights @ example1_params.variances), rel=1e-14
        )

    def test_m1_formula(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, 3, 4)
        ms = exact_moments(p)
        expected = sum(
            w * s * mu for w, s, mu in zip(p.weights, p.variances, p.means)
        )
        assert np.allclose(ms.m1, expected, rtol=1e-13)

    def test_m2_formula(self):
        rng = np.random.default_rng(1)
        p = random_params(rng, 3, 4)
        ms = exact_moments(p)
        expected = sum(w * np.outer(mu, mu) for w, mu in zip(p.weights, p.means))
        assert np.allclose(ms.m2, expected, rtol=1e-13)

    def test_m3_coefficients(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, 2, 3)
        ms = exact_moments(p)
        for pos, alpha in enumerate(monomials(3, 3)):
            assert ms.m3.coeffs[pos] == pytest.approx(
                brute_force_m3_coeff(p.weights, p.means, alpha), rel=1e-12
            )

    def test_v_is_unit(self, example2_params):
        ms = exact_moments(example2_params)
        assert np.linalg.norm(ms.v) == pytest.approx(1.0, rel=1e-14)


class TestEmpiricalMoments:
    def test_converges_to_exact(self, example2_params):
        ms_exact = exact_moments(example2_params)
        rng_seed = 0
        data, _ = sample(example2_params, 200_000, rng_seed)
        ms = empirical_moments(data)
        assert ms.sigma_bar_sq == pytest.approx(ms_exact.sigma_bar_sq, rel=0.05)
        assert np.allclose(ms.m1, ms_exact.m1, atol=0.05 * np.linalg.norm(ms_exact.m1))
        assert np.allclose(ms.m2, ms_exact.m2, atol=0.02 * np.linalg.norm(ms_exact.m2))
        assert np.linalg.norm(ms.m3.coeffs - ms_exact.m3.coeffs) < 0.02 * np.linalg.norm(
            ms_exact.m3.coeffs
        )

    def test_single_spherical_gaussian(self):
        # one centered component: sigma_bar_sq -> sigma^2, m2 -> mu mu^t = 0
        rng = np.random.default_rng(3)
        data = 2.0 * rng.standard_normal((100_000, 3))
        ms = empirical_moments(data)
        assert ms.sigma_bar_sq == pytest.approx(4.0, rel=0.05)
        assert np.allclose(ms.m2, 0.0, atol=0.15)
        assert np.allclose(ms.m3.coeffs, 0.0, atol=0.3)

    def test_isotropic_data_flags_ambiguous_v(self):
        rng = np.random.default_rng(4)
        # exactly isotropic second moment: symmetrize a sample
        base = rng.standard_normal((500, 2))
        data = np.vstack([base, base @ np.array([[0.0, 1.0], [-1.0, 0.0]])])
        data = np.vstack([data, -data])
        ms = empirical_moments(data)
        assert ms.v_ambiguous

    def test_input_validation(self):
        with pytest.raises(InputError):
            empirical_moments(np.ones(5))
        with pytest.raises(InputError):
            empirical_moments(np.array([[1.0, 2.0]]))
        with pytest.raises(InputError):
            empirical_moments(np.array([[1.0], [np.nan]]))

    def test_n_samples_recorded(self):
        rng = np.random.default_rng(5)
        ms = empirical_moments(rng.standard_normal((50, 2)))
        assert ms.n_samples == 50


class TestRecoverParameters:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_round_trip(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = int(rng.integers(3, 7))
        r = int(rng.integers(2, m + 1))
        p = random_params(rng, r, m)
        rec = recover_parameters(exact_moments(p), r)
        perm = match_components(rec.means, p.means)
        assert np.allclose(rec.means[perm], p.means, atol=1e-8)
        assert np.allclose(rec.weights[perm], p.weights, atol=1e-8)
        assert np.allclose(rec.variances[perm], p.variances, atol=1e-7)

    def test_examples_round_trip(self, example1_params, example2_params):
        for p in (example1_params, example2_params):
            rec = recover_parameters(exact_moments(p), len(p.weights))
            perm = match_components(rec.means, p.means)
            assert np.allclose(rec.means[perm], p.means, atol=1e-7)
            assert np.allclose(rec.weights[perm], p.weights, atol=1e-9)
            assert np.allclose(rec.variances[perm], p.variances, atol=1e-6)

    def test_empirical_recovery_close(self, example2_params):
        data, _ = sample(example2_params, 100_000, 1)
        rec = recover_parameters(empirical_moments(data), 3)
        perm = match_components(rec.means, example2_params.means)
        assert np.allclose(rec.means[perm], example2_params.means, atol=0.5)
        assert np.allclose(rec.weights[perm], example2_params.weights, atol=0.05)
        assert np.allclose(rec.variances[perm], example2_params.variances, rtol=0.5)

    def test_weights_sum_to_one_and_positive(self):
        rng = np.random.default_rng(6)
        p = random_params(rng, 3, 5)
        rec = recover_parameters(exact_moments(p), 3)
        assert rec.weights.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(rec.weights > 0)
        assert np.all(rec.variances > 0)

    def test_r_exceeding_dim_rejected(self):
        rng = np.random.default_rng(7)
        p = random_params(rng, 2, 3)
        with pytest.raises(InputError):
            recover_parameters(exact_moments(p), 4)

    def test_diagnostics_present(self):
        rng = np.random.default_rng(8)
        p = random_params(rng, 2, 3)
        rec = recover_parameters(exact_moments(p), 2)
        assert rec.diagnostics["residual_m2"] < 1e-8
        assert rec.diagnostics["residual_m1"] < 1e-8
        assert rec.diagnostics["complex_leak"] is False

    @pytest.mark.parametrize("m, r", [(30, 15), (6, 6), (5, 1)])
    def test_exact_recovery_through_projection(self, m, r):
        # Criterion 3's bound, at a high dimension, at r = m (where the
        # projection is a rotation) and at r = 1
        p = random_params(np.random.default_rng(300 + m + r), r, m)
        rec = recover_parameters(exact_moments(p), r)
        perm = match_components(rec.means, p.means)
        worst = max(
            np.max(np.abs(rec.weights[perm] - p.weights) / p.weights),
            np.max(np.linalg.norm(rec.means[perm] - p.means, axis=1)
                   / np.linalg.norm(p.means, axis=1)),
            np.max(np.abs(rec.variances[perm] - p.variances) / p.variances),
        )
        assert worst < 1e-6

    @pytest.mark.parametrize("m, r", [(5, 3), (4, 4)])
    def test_subspace_diagnostics(self, m, r):
        data, _ = sample(random_params(np.random.default_rng(9), r, m), 2000, 1)
        ms = empirical_moments(data)
        diag = recover_parameters(ms, r).diagnostics
        descending = np.linalg.eigvalsh(ms.m2)[::-1]
        assert diag["subspace_dim"] == r
        assert np.isfinite(diag["m2_lambda_r"])
        assert diag["m2_lambda_r"] == pytest.approx(descending[r - 1], rel=1e-12)
        if r < m:
            assert np.isfinite(diag["m2_lambda_r_plus_1"])
            assert diag["m2_lambda_r_plus_1"] == pytest.approx(descending[r], rel=1e-12)
        else:
            assert diag["m2_lambda_r_plus_1"] is None


class TestHighDimStartQuality:
    """Gate on the moments start at m = 30, r = 15, n = 5000: means
    4 N(0, I) redrawn until of rank r, Dirichlet(5) weights, variances
    U(0.5, 2), the mixture from seed 0 and all 8 samples of sample seed 1.
    The bounds are the counts this recovery reaches; they may only tighten."""

    R, M, N, SAMPLES = 15, 30, 5000, 8

    @staticmethod
    def recovery_error(got, truth):
        """||matched means - true means||_F / ||true means||_F."""
        rows, cols = linear_sum_assignment(
            np.sum((got[:, None, :] - truth[None, :, :]) ** 2, axis=2))
        return np.linalg.norm(got[rows] - truth[cols]) / np.linalg.norm(truth)

    def test_counts(self):
        rng = np.random.default_rng(0)
        means = random_independent_points(rng, self.R, self.M, scale=4.0)
        weights = rng.dirichlet(np.full(self.R, 5.0))
        variances = rng.uniform(0.5, 2.0, size=self.R)
        truth = GmmParams(weights=weights, means=means, variances=variances)
        close = reached = one_point = 0
        for k in range(self.SAMPLES):
            seed = int(np.random.default_rng([1, k, 1]).integers(2**31 - 1))
            data, _ = sample(truth, self.N, rng_seed=seed)
            start, _ = init_moments(data, self.R, rng_seed=k)
            fit = em_fit(data, self.R, start, rng_seed=k)
            best = em_fit(data, self.R, truth, rng_seed=k).loglik_trace[-1]
            close += self.recovery_error(start.means, means) < 0.1
            reached += fit.loglik_trace[-1] >= best - 1e-6 * abs(best)
            # total responsibility under two points: a component holding one row
            one_point += e_step(fit.params, data)[0].sum(axis=0).min() < 2.0
        assert close >= 2
        assert reached >= 4
        assert one_point <= 4


class TestMomentSetJson:
    def test_serializes(self, example2_params):
        ms = exact_moments(example2_params)
        obj = json.loads(ms.to_json())
        assert obj["sigma_bar_sq"] == ms.sigma_bar_sq
        assert obj["m1"] == list(ms.m1)
        assert obj["m3"]["coeffs"] == list(ms.m3.coeffs)
