import json
import math
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from momentgmm import (
    EmResult,
    GmmParams,
    InputError,
    NumericalError,
    ari,
    e_step,
    em_fit,
    em_fits,
    init_emem,
    init_kmeans,
    init_moments,
    init_random,
    m_step,
    sample,
)
from momentgmm import gmm
from momentgmm.gmm import (
    DEFAULT_TOL,
    LOG_2PI,
    VARIANCE_FLOOR_FRACTION,
    _e_kernel,
    _first_best,
    _frame,
    _kmeans_pp_seeds,
    _lloyd,
    _log_normalize,
    _m_kernel,
    pooled_variance,
)
from conftest import run_with_blas_threads


def single_gaussian(mu, var):
    return GmmParams(
        weights=np.array([1.0]),
        means=np.asarray(mu, dtype=float)[None, :],
        variances=np.array([float(var)]),
    )


def two_blob_params():
    return GmmParams(
        weights=np.array([0.5, 0.5]),
        means=np.array([[-6.0, 0.0], [6.0, 0.0]]),
        variances=np.array([1.0, 1.0]),
    )


class TestGmmParams:
    def test_validation(self):
        with pytest.raises(InputError):
            GmmParams(np.array([0.6, 0.6]), np.zeros((2, 3)), np.ones(2))
        with pytest.raises(InputError):
            GmmParams(np.array([1.0]), np.zeros((1, 3)), np.array([-1.0]))
        with pytest.raises(InputError):
            GmmParams(np.array([1.0]), np.zeros((2, 3)), np.ones(1))
        nan, inf = float("nan"), float("inf")
        for weights, means, variances in [
            ([nan, 0.5], np.zeros((2, 3)), np.ones(2)),
            ([1.5, -0.5], np.zeros((2, 3)), np.ones(2)),
            ([0.5, 0.5], [[0.0, nan, 0.0], [0.0, 0.0, 0.0]], np.ones(2)),
            ([0.5, 0.5], [[0.0, 0.0, -inf], [0.0, 0.0, 0.0]], np.ones(2)),
            ([0.5, 0.5], np.zeros((2, 3)), [1.0, inf]),
            ([0.5, 0.5], np.zeros((2, 3)), [nan, 1.0]),
        ]:
            with pytest.raises(InputError, match="mixture"):
                GmmParams(weights, means, variances)

    def test_json_round_trip(self, example1_params):
        back = GmmParams.from_json(example1_params.to_json())
        assert np.array_equal(back.weights, example1_params.weights)
        assert np.array_equal(back.means, example1_params.means)
        assert np.array_equal(back.variances, example1_params.variances)

    def test_published_weights_renormalized(self, example2_params):
        # the paper prints Example 2's weights to four digits; they sum to 0.9999
        obj = json.loads(example2_params.to_json())
        obj["weights"] = [0.0930, 0.2151, 0.6918]
        with pytest.warns(UserWarning, match="renormalized"):
            back = GmmParams.from_json(json.dumps(obj))
        assert np.array_equal(back.weights, example2_params.weights)
        obj["weights"] = [0.0930, 0.2151, 0.6908]
        with pytest.raises(InputError):
            GmmParams.from_json(json.dumps(obj))
        # a rejected model is not announced as renormalized first
        obj["weights"] = [-0.0005, 0.3005, 0.6999]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="nonnegative"):
                GmmParams.from_json(json.dumps(obj))

    def test_malformed_json(self):
        with pytest.raises(InputError):
            GmmParams.from_json('{"weights": [1.0]}')
        for text in (
            '{"weights": [1.0],',
            '{"weights": ["a"], "means": [[0.0]], "variances": [1.0]}',
            '{"weights": [0.5, 0.5], "means": [[0.0], [1.0, 2.0]], "variances": [1, 1]}',
        ):
            with pytest.raises(InputError, match="malformed mixture JSON"):
                GmmParams.from_json(text)


class TestLogDensity:
    """The log-density of one point, as the E-step's log-likelihood of a
    one-row data matrix."""

    @staticmethod
    def log_density(params, x):
        return e_step(params, np.asarray(x, dtype=float)[None, :])[1]

    def test_standard_normal_at_origin(self):
        p = single_gaussian(np.zeros(2), 1.0)
        assert self.log_density(p, [0.0, 0.0]) == pytest.approx(-math.log(2 * math.pi))

    def test_matches_closed_form(self):
        p = single_gaussian([1.0, -2.0, 0.5], 2.5)
        x = np.array([0.3, 0.1, -1.0])
        d = np.sum((x - p.means[0]) ** 2)
        expected = -1.5 * math.log(2 * math.pi * 2.5) - d / (2 * 2.5)
        assert self.log_density(p, x) == pytest.approx(expected, rel=1e-12)

    def test_mixture_of_two(self):
        # at the origin both unit components sit at squared distance 36
        expected = -18.0 - math.log(2 * math.pi)
        assert self.log_density(two_blob_params(), np.zeros(2)) == pytest.approx(
            expected, rel=1e-12
        )


def _same_bits(a, b):
    """Bit-equal float arrays, any NaN matching any NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64)
    )


def kernel_logsumexp(a):
    """log(sum(exp(a), axis=1)) of an (n, r) array by the E kernel's
    _log_normalize, which works in place on its (1, r, n) copy."""
    return _log_normalize(np.array(a.T)[None])[0]


class TestRowLogsumexp:
    """The E kernel's log-sum-exp against scipy's logsumexp(a, axis=1): the
    same non-finite entries, and the finite ones within 4 ulps of
    max(|row max|, 1)."""

    @staticmethod
    def scipy_rows(a):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return logsumexp(a, axis=1)

    def cases(self):
        rng = np.random.default_rng(20)
        for t in range(200):
            n = int(rng.integers(1, 2001)) if t % 20 == 0 else int(rng.integers(1, 200))
            r = int(rng.integers(1, 17))
            a = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(n, r))
            if t % 2:
                a = np.round(a)  # many exact ties
            if t % 3 == 0 and r > 1:
                a[:, 1] = a[:, 0]  # a tie at the row maximum in some rows
            yield a
        for values in ([-np.inf], [np.inf], [np.nan], [-np.inf, np.inf, np.nan], [-np.inf, np.inf]):
            a = rng.normal(size=(60, 4))
            idx = rng.integers(0, a.size, size=40)
            a.flat[idx] = rng.choice(values, size=len(idx))
            a[0] = -np.inf
            yield a

    def test_matches_scipy(self):
        for a in self.cases():
            got, want = kernel_logsumexp(a), self.scipy_rows(a)
            finite = np.isfinite(want)
            assert _same_bits(got[~finite], want[~finite])
            scale = np.maximum(np.abs(a[finite].max(axis=1)), 1.0)
            assert np.all(np.abs(got[finite] - want[finite]) <= 4 * np.spacing(scale))

    def test_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in self.cases():
                kernel_logsumexp(a)

    def test_responsibilities_are_normalized_exponentials(self):
        # exp(a - scipy's logsumexp), to the rounding of the exponents, whose
        # relative error is a few ulps of |a_ij| + max(|row max|, 1)
        for a in self.cases():
            stacked = np.array(a.T)[None]
            with np.errstate(invalid="ignore"):
                want = np.exp(a - self.scipy_rows(a)[:, None])
            _log_normalize(stacked)
            got = stacked[0].T
            finite = np.isfinite(want)
            assert np.array_equal(finite, np.isfinite(got))
            size = np.abs(np.nan_to_num(a, nan=0.0, posinf=0.0, neginf=0.0))
            exponent = size + np.maximum(size.max(axis=1, keepdims=True), 1.0)
            bound = 8 * np.finfo(float).eps * exponent * want + 1e-300
            assert np.all(np.abs(got - want)[finite] <= bound[finite])


def row_logsumexp(a):
    """A row-layout log-sum-exp: max, tie count and exp-sum each reduce along
    the short r-long axis of (n, r)."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        top = a.max(axis=1, keepdims=True)
        is_top = a == top
        count = is_top.sum(axis=1, keepdims=True)
        s = np.exp(np.where(is_top, -np.inf, a - top)).sum(axis=1, keepdims=True) / count
        return (np.log1p(s) + np.log(count) + top)[:, 0]


def row_e_step(params, data):
    """The E step e_step must reproduce: direct differences x_i - mu_j, one
    component at a time, and row_logsumexp."""
    data = np.asarray(data, dtype=float)
    sq_dist = np.stack([np.sum((data - mu) ** 2, axis=1) for mu in params.means], axis=1)
    log_comp = (
        np.log(params.weights)
        - 0.5 * params.dim * (LOG_2PI + np.log(params.variances))
        - 0.5 * sq_dist / params.variances
    )
    log_norm = row_logsumexp(log_comp)
    return np.exp(log_comp - log_norm[:, None]), float(np.sum(log_norm))


def row_m_step(data, resp, variance_floor=None, rng=None):
    """The row-layout M step m_step must reproduce: the variance loop sums
    each row of squared differences along the short m-long axis."""
    data = np.asarray(data, dtype=float)
    n, m = data.shape
    r = resp.shape[1]
    if variance_floor is None:
        variance_floor = VARIANCE_FLOOR_FRACTION * pooled_variance(data)
    counts = resp.sum(axis=0)
    empty = counts < 1e-10 * n
    if np.any(empty):
        rng = rng if rng is not None else np.random.default_rng(0)
        resp = resp.copy()
        for j in np.flatnonzero(empty):
            movable = ~np.any((counts - resp < 1e-10 * n) & ~empty, axis=1)
            i = int(rng.integers(n))
            while not movable[i] and movable.any():
                i = int(rng.integers(n))
            counts -= resp[i]
            counts[j] += 1.0
            empty[j] = False
            resp[i] = 0.0
            resp[i, j] = 1.0
        counts = resp.sum(axis=0)
    weights = counts / n
    means = (resp.T @ data) / counts[:, None]
    variances = np.empty(r)
    for j in range(r):
        diff = data - means[j]
        variances[j] = np.sum(resp[:, j] * np.sum(diff**2, axis=1)) / (m * counts[j])
    variances = np.maximum(variances, max(variance_floor, 1e-300))
    weights = weights / weights.sum()
    return GmmParams(weights=weights, means=means, variances=variances)


def row_em_fit(data, r, init, max_iter, rng_seed):
    """The EM loop em_fit must reproduce, over row_e_step and row_m_step;
    returns (params, trace, iterations, converged, labels)."""
    floor = VARIANCE_FLOOR_FRACTION * pooled_variance(data)
    rng = np.random.default_rng(rng_seed)
    params = init
    resp, loglik = row_e_step(params, data)
    trace = [loglik]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        params = row_m_step(data, resp, variance_floor=floor, rng=rng)
        resp, loglik = row_e_step(params, data)
        trace.append(loglik)
        if abs(trace[-1] - trace[-2]) < DEFAULT_TOL * max(abs(trace[-2]), 1.0):
            converged = True
            break
    return params, trace, it, converged, np.argmax(resp, axis=1)


def assert_same_params(got, want):
    assert _same_bits(got.weights, want.weights)
    assert _same_bits(got.means, want.means)
    assert _same_bits(got.variances, want.variances)


def assert_close_params(got, want, rtol):
    for name in ("weights", "means", "variances"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=rtol)


def random_mixture_data(m, r, seed, n=400):
    """(params, data): n points of a random spherical r-mixture in R^m whose
    coordinates lie far from the origin relative to the spread."""
    rng = np.random.default_rng(seed)
    params = GmmParams(
        weights=rng.dirichlet(np.ones(r)),
        means=50.0 + 4.0 * rng.standard_normal((r, m)),
        variances=rng.uniform(0.5, 3.0, size=r),
    )
    return params, sample(params, n, rng_seed=seed)[0]


SIZES = (1, 2, 5, 8, 9, 15, 30)


class TestColumnLayout:
    """The (runs, r, n) kernels, through e_step, m_step and em_fit, against
    the row-layout references, to tolerance; the test names date from
    bit-for-bit kernels and are kept as the tests' ids.  Measured worst
    cases are 3e-15 (responsibilities, absolute), 3e-15 (M step, relative)
    and 8e-11 (8-iteration fits, relative)."""

    @pytest.mark.parametrize("r", [1, 5])
    def test_row_logsumexp_leaves_its_input_alone(self, r):
        # the E kernel's log-sum-exp works in place on the kernel's own
        # buffer; the caller's data and parameters stay as they were
        params, data = random_mixture_data(3, r, seed=31, n=50)
        for arg in (data, np.asfortranarray(data)):
            kept = [arg.copy(), params.weights.copy(), params.means.copy(), params.variances.copy()]
            e_step(params, arg)
            em_fit(arg, r, params, max_iter=2)
            now = [arg, params.weights, params.means, params.variances]
            assert all(_same_bits(a, b) for a, b in zip(now, kept))

    @pytest.mark.parametrize("r", SIZES)
    @pytest.mark.parametrize("m", SIZES)
    def test_e_step_bit_equal_to_row_layout(self, m, r):
        params, data = random_mixture_data(m, r, seed=100 * m + r)
        resp, loglik = e_step(params, data)
        ref_resp, ref_loglik = row_e_step(params, data)
        np.testing.assert_allclose(resp, ref_resp, rtol=0, atol=1e-13)
        assert loglik == pytest.approx(ref_loglik, rel=1e-13)

    @pytest.mark.parametrize("r", SIZES)
    @pytest.mark.parametrize("m", SIZES)
    def test_m_step_bit_equal_to_row_layout(self, m, r):
        _, data = random_mixture_data(m, r, seed=100 * m + r)
        rng = np.random.default_rng(m + r)
        resp = rng.uniform(size=(len(data), r))
        resp /= resp.sum(axis=1, keepdims=True)
        assert_close_params(m_step(data, resp), row_m_step(data, resp), 1e-13)
        assert_close_params(
            m_step(data, resp, variance_floor=1e-3),
            row_m_step(data, resp, variance_floor=1e-3),
            1e-13,
        )
        if r > 1:  # the last component is empty and reseeded
            resp[:, -1] = 0.0
            resp /= resp.sum(axis=1, keepdims=True)
            got = m_step(data, resp, rng=np.random.default_rng(3))
            want = row_m_step(data, resp, rng=np.random.default_rng(3))
            assert_close_params(got, want, 1e-13)

    @pytest.mark.parametrize("r", SIZES)
    @pytest.mark.parametrize("m", SIZES)
    def test_em_fit_bit_equal_to_row_layout(self, m, r):
        params, data = random_mixture_data(m, r, seed=100 * m + r)
        init = init_random(data, r, rng_seed=m)
        if r > 1:  # a component far from every row starts empty
            init.means[-1] += 1e4
            assert row_e_step(init, data)[0][:, -1].sum() < 1e-10 * len(data)
        got = em_fit(data, r, init, max_iter=8, rng_seed=5)
        params, trace, iterations, converged, labels = row_em_fit(data, r, init, 8, 5)
        assert_close_params(got.params, params, 1e-8)
        np.testing.assert_allclose(got.loglik_trace, trace, rtol=1e-8)
        assert np.array_equal(got.hard_labels, labels)
        assert (got.iterations, got.converged) == (iterations, converged)


class TestCenteredVariances:
    """m_step's variances come from sufficient statistics about the data
    mean; these cases probe where that form loses accuracy."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        m=st.sampled_from([1, 3, 6]),
        r=st.sampled_from([1, 2, 4]),
        shift=st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
    )
    def test_translation(self, m, r, shift):
        _, data = random_mixture_data(m, r, seed=10 * m + r, n=200)
        resp = np.random.default_rng(m * r).dirichlet(np.ones(r), size=len(data))
        t = np.array(shift[:m])
        got, want = m_step(data + t, resp), m_step(data, resp)
        np.testing.assert_allclose(got.means, want.means + t, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got.variances, want.variances, rtol=1e-9)
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-12)

    def test_tight_component_far_from_the_mean(self):
        # ||mu - xbar||^2 / s^2 = 1e6 for the tight component; the expected
        # relative error is about eps * 1e6 = 2e-10
        rng = np.random.default_rng(50)
        tight = np.array([11.1, 0.0, 0.0]) + 1e-2 * rng.standard_normal((100, 3))
        data = np.vstack([rng.standard_normal((900, 3)), tight])
        resp = np.zeros((1000, 2))
        resp[:900, 0] = resp[900:, 1] = 1.0
        want = row_m_step(data, resp)
        ratio = np.sum((want.means[1] - data.mean(axis=0)) ** 2) / want.variances[1]
        assert 5e5 < ratio < 2e6
        assert_close_params(m_step(data, resp), want, 1e-8)


def dirichlet_resp(seed, runs, r, n):
    """Random row-stochastic responsibilities laid out (runs, r, n)."""
    resp = np.random.default_rng(seed).dirichlet(np.ones(r), size=(runs, n))
    return np.ascontiguousarray(resp.transpose(0, 2, 1))


def direct_m_step(x, resp):
    """Counts (runs, r), means (runs, r, m) and variances (runs, r) of
    responsibilities (runs, r, n) by direct weighted sums of the differences."""
    counts = resp.sum(axis=2)
    means = np.einsum("krn,nm->krm", resp, x) / counts[..., None]
    sq = np.sum((x[None, None] - means[..., None, :]) ** 2, axis=-1)
    return counts, means, np.sum(resp * sq, axis=2) / (x.shape[1] * counts)


class TestAugmentedKernels:
    """_e_kernel's log terms, one product with the frame's z, against the
    direct-difference log-density, and _m_kernel's sums, one product with
    z^T, against direct weighted sums; a stacked run gives the bits of the
    run alone."""

    @staticmethod
    def log_terms(monkeypatch, z, step):
        """The (runs, r, n) log terms _e_kernel hands to _log_normalize, and
        what _e_kernel returns."""
        seen = []

        def keep(a):
            seen.append(a.copy())
            return _log_normalize(a)

        monkeypatch.setattr(gmm, "_log_normalize", keep)
        resp, loglik, _ = _e_kernel(z, step)
        return seen[0], (resp, loglik)

    @pytest.mark.parametrize("m", [1, 6, 30])
    def test_e_kernel_matches_direct_log_density(self, monkeypatch, m):
        # means far from the center and a variance at the floor; the
        # expanded form's error is a rounding of (||x_i||^2 + ||o_j||^2) / (2 s_j)
        rng = np.random.default_rng(m)
        frame = _frame(3.0 * rng.standard_normal((500, m)) + 7.0)
        x, r = frame.x, 4
        offsets = x[rng.integers(500, size=(2, r))]
        offsets[0, 1] += 1e3
        offsets[1, 2] *= 1e4
        variances = rng.uniform(0.5, 4.0, size=(2, r))
        variances[0, 3] = gmm._variance_floor(frame.z)
        weights = rng.dirichlet(np.ones(r), size=2)
        got, (resp, loglik) = self.log_terms(monkeypatch, frame.z, (weights, offsets, variances))
        sq = np.sum((x[None, None] - offsets[..., None, :]) ** 2, axis=-1)
        log_w = np.log(weights) - 0.5 * m * (LOG_2PI + np.log(variances))
        want = log_w[..., None] - sq / (2.0 * variances[..., None])
        scale = (frame.x_sq + np.sum(offsets**2, axis=-1)[..., None]) / (2.0 * variances[..., None])
        tol = 1e-12 * (scale + np.abs(want))
        assert np.all(np.abs(got - want) <= tol)
        # to first order, a point's log-likelihood moves by the
        # responsibility-weighted mean of its log terms' errors
        per_point = logsumexp(want, axis=1)
        want_resp = np.exp(want - per_point[:, None])
        mean_tol = np.sum(want_resp * tol, axis=1)
        assert np.all(np.abs(loglik - per_point.sum(axis=1)) <= mean_tol.sum(axis=1))
        assert np.all(np.abs(resp - want_resp) <= 2.0 * want_resp * (tol + mean_tol[:, None]))

    def test_e_kernel_stacked_run_is_the_run_alone(self, example1_params):
        data, _ = sample(example1_params, 700, rng_seed=2)
        frame = _frame(data)
        starts = [init_random(data, 4, rng_seed=seed) for seed in range(5)]
        step = tuple(map(np.concatenate, zip(*[gmm._as_step(s, frame.c) for s in starts])))
        resp, loglik, head = _e_kernel(frame.z, step)
        assert head is None  # one block
        for k in range(5):
            alone = _e_kernel(frame.z, tuple(a[k : k + 1] for a in step))
            assert _same_bits(alone[0][0], resp[k]) and _same_bits(alone[1][0], loglik[k])

    @pytest.mark.parametrize("m", [1, 6, 30])
    def test_m_kernel_matches_direct_sums(self, m):
        rng = np.random.default_rng(10 + m)
        frame = _frame(2.0 * rng.standard_normal((400, m)) - 5.0)
        resp = dirichlet_resp(m, 2, 3, 400)
        weights, offsets, variances = _m_kernel(frame.z, resp.copy(), None, 0.0, [None, None])
        counts, means, want = direct_m_step(frame.x, resp)
        np.testing.assert_allclose(weights, counts / counts.sum(axis=1, keepdims=True), rtol=1e-13)
        np.testing.assert_allclose(offsets, means, rtol=0, atol=1e-13 * np.abs(frame.x).max())
        np.testing.assert_allclose(variances, want, rtol=1e-12)

    def test_reseeded_run_redoes_its_own_product(self):
        # run 1 of the stack has an empty component: it is reseeded in resp
        # on its own Generator, its sums are those of the reseeded
        # responsibilities, and each run gives the bits it gives alone
        frame = _frame(np.random.default_rng(3).standard_normal((300, 4)))
        resp = dirichlet_resp(4, 3, 3, 300)
        resp[1, 2] = 0.0
        resp[1] /= resp[1].sum(axis=0)
        stacked_resp = resp.copy()
        rngs = [np.random.default_rng(k) for k in range(3)]
        stacked = _m_kernel(frame.z, stacked_resp, None, 1e-8, rngs)
        assert np.count_nonzero(stacked_resp[1, 2]) == 1 and _same_bits(stacked_resp[0], resp[0])
        counts, means, variances = direct_m_step(frame.x, stacked_resp)
        np.testing.assert_allclose(stacked[1], means, rtol=0, atol=1e-13 * np.abs(frame.x).max())
        # the reseeded component holds one row, its variance 0, so the floor
        np.testing.assert_allclose(stacked[2], np.maximum(variances, 1e-8), rtol=1e-12)
        for k in range(3):
            run = resp[k : k + 1].copy()
            alone = _m_kernel(frame.z, run, None, 1e-8, [np.random.default_rng(k)])
            assert all(_same_bits(a[0], b[k]) for a, b in zip(alone, stacked))

    @staticmethod
    def blocked(monkeypatch, fn, width, r, m, *args):
        """fn(*args) with EM_BLOCK_ELEMENTS set so the E sweep's blocks are
        `width` columns wide at r components in R^m."""
        with monkeypatch.context() as patch:
            patch.setattr(gmm, "EM_BLOCK_ELEMENTS", width * (m + 2 + r))
            return fn(*args)

    @staticmethod
    def sweep_problem(example1_params):
        """700 rows of Example 1 and a stack of 5 random starts about their
        center; the last start has a component far from every row, whose
        responsibilities underflow to 0, so its M step reseeds it."""
        data, _ = sample(example1_params, 700, rng_seed=2)
        frame = _frame(data)
        starts = [init_random(data, 4, rng_seed=seed) for seed in range(5)]
        starts[-1].means[-1] += 1e4
        step = tuple(map(np.concatenate, zip(*[gmm._as_step(s, frame.c) for s in starts])))
        return frame, step

    def test_one_block_sweep_is_the_unblocked_e_step(self, example1_params):
        # 700 rows are one block: the bits of the log terms of all n
        # columns at once, normalized, and no head of sums, so the M step
        # forms resp z^T over all columns, as m_step does
        frame, step = self.sweep_problem(example1_params)
        assert len(gmm._sweep_blocks(frame.z, 4)) == 1
        weights, offsets, variances = step
        half = 0.5 / variances
        const = (np.log(weights) - 0.5 * 6 * (LOG_2PI + np.log(variances))
                 - half * np.sum(offsets**2, axis=-1))
        want = gmm._affine(frame.z, offsets / variances[..., None], -half, const)
        want_loglik = _log_normalize(want).sum(axis=1)
        for sums in (True, False):
            resp, loglik, head = _e_kernel(frame.z, step, sums)
            assert np.count_nonzero(resp[-1, -1] == 0.0) == 700
            assert _same_bits(resp, want) and _same_bits(loglik, want_loglik) and head is None

    @pytest.mark.parametrize("width", [1, 7, 200, 233])
    def test_blocked_sweep_matches_one_block(self, monkeypatch, example1_params, width):
        # at least 3 blocks, the last one short but at width 1 and 7; a sum
        # over columns in blocks rounds differently, well within 1e-14 of
        # its sum of absolute terms (measured about 1e-16); the M steps
        # from the two sweeps agree to 1e-12 relative
        frame, step = self.sweep_problem(example1_params)
        whole = _e_kernel(frame.z, step)
        resp, loglik, head = self.blocked(monkeypatch, _e_kernel, width, 4, 6, frame.z, step)
        tail = self.blocked(monkeypatch, gmm._sweep_blocks, width, 4, 6, frame.z, 4)[-1]
        assert tail >= 2 * width
        np.testing.assert_allclose(resp, whole[0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(loglik, whole[1], rtol=1e-14)
        before, cols = whole[0][..., :tail], frame.z[:, :tail].T
        assert np.all(np.abs(head - before @ cols) <= 1e-14 * (before @ np.abs(cols)))
        rngs = [np.random.default_rng(k) for k in range(5)]
        got = self.blocked(monkeypatch, _m_kernel, width, 4, 6, frame.z, resp, head, 1e-8, rngs)
        rngs = [np.random.default_rng(k) for k in range(5)]
        want = _m_kernel(frame.z, whole[0], None, 1e-8, rngs)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(frame.x).max())

    def test_blocked_stacked_run_is_the_run_alone(self, monkeypatch, example1_params):
        # the block width does not depend on the stack, so a stacked run's
        # blocks, and its bits, are those of the run alone
        frame, step = self.sweep_problem(example1_params)
        stacked = self.blocked(monkeypatch, _e_kernel, 200, 4, 6, frame.z, step)
        for k in range(5):
            run = tuple(a[k : k + 1] for a in step)
            alone = self.blocked(monkeypatch, _e_kernel, 200, 4, 6, frame.z, run)
            assert all(_same_bits(a[0], b[k]) for a, b in zip(alone, stacked))

    def test_reseeded_run_from_sweep_head(self, monkeypatch, example1_params):
        # the last run has an empty component: given the blocked sweep's
        # head of sums it reseeds and redoes its own product, so it gives
        # the bits of the M step that forms all its sums itself
        frame, step = self.sweep_problem(example1_params)
        resp, _, head = self.blocked(monkeypatch, _e_kernel, 200, 4, 6, frame.z, step)
        assert np.all(head[-1, -1, -1] < 1e-10 * 700) and np.all(head[:-1, :, -1] > 1.0)
        got = self.blocked(monkeypatch, _m_kernel, 200, 4, 6, frame.z, resp[-1:].copy(),
                           head[-1:], 1e-8, [np.random.default_rng(3)])
        want = _m_kernel(frame.z, resp[-1:].copy(), None, 1e-8, [np.random.default_rng(3)])
        assert all(_same_bits(a, b) for a, b in zip(got, want))

    def test_blocked_em_fits_runs_are_the_runs_alone(self, monkeypatch, example1_params):
        # em_fits' multi-block sweeps keep every run to its own bits, and
        # stay within rounding of the one-block fits' log-likelihoods
        frame, _ = self.sweep_problem(example1_params)
        starts = [init_random(frame, 4, rng_seed=seed) for seed in range(3)]
        stacked = self.blocked(monkeypatch, em_fits, 200, 4, 6, frame, 4, starts, 10)
        for start, fit in zip(starts, stacked):
            assert_same_fit(self.blocked(monkeypatch, em_fit, 200, 4, 6, frame, 4, start, 10), fit)
            np.testing.assert_allclose(fit.loglik_trace, em_fit(frame, 4, start, 10).loglik_trace,
                                       rtol=1e-12)


def traced_peak(fn, *args):
    """Peak bytes that fn(*args) holds at once, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGuard:
    """The column-layout copies may not raise the kernels' peak memory above
    the row-layout references' by more than 5 %."""

    @pytest.fixture(scope="class")
    def problem(self):
        params, data = random_mixture_data(10, 5, seed=40, n=20_000)
        return params, data, e_step(params, data)[0]

    def test_m_step_peak(self, problem):
        _, data, resp = problem
        assert traced_peak(m_step, data, resp) <= 1.05 * traced_peak(row_m_step, data, resp)

    def test_e_step_peak(self, problem):
        params, data, _ = problem
        assert traced_peak(e_step, params, data) <= 1.05 * traced_peak(row_e_step, params, data)


class TestSample:
    def test_shapes_and_determinism(self, example2_params):
        d1, l1 = sample(example2_params, 500, rng_seed=3)
        d2, l2 = sample(example2_params, 500, rng_seed=3)
        assert d1.shape == (500, 5) and l1.shape == (500,)
        assert np.array_equal(d1, d2) and np.array_equal(l1, l2)

    def test_label_frequencies(self, example1_params):
        _, labels = sample(example1_params, 100_000, rng_seed=0)
        freq = np.bincount(labels, minlength=4) / len(labels)
        assert np.allclose(freq, example1_params.weights, atol=0.01)

    def test_component_statistics(self):
        p = two_blob_params()
        data, labels = sample(p, 50_000, rng_seed=1)
        for j in range(2):
            cluster = data[labels == j]
            assert np.allclose(cluster.mean(axis=0), p.means[j], atol=0.05)
            assert cluster.var(axis=0).mean() == pytest.approx(1.0, abs=0.05)

    def test_n_validation(self, example2_params):
        with pytest.raises(InputError):
            sample(example2_params, 0)


class TestEStepMStep:
    def test_responsibilities_row_stochastic(self, example2_params):
        data, _ = sample(example2_params, 200, rng_seed=2)
        resp, loglik = e_step(example2_params, data)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        assert np.isfinite(loglik)

    def test_loglik_is_sum_of_log_densities(self):
        p = two_blob_params()
        data, _ = sample(p, 50, rng_seed=3)
        _, loglik = e_step(p, data)
        direct = sum(
            math.log(sum(
                w * math.exp(-np.sum((x - mu) ** 2) / (2 * v)) / (2 * math.pi * v)
                for w, mu, v in zip(p.weights, p.means, p.variances)
            ))
            for x in data
        )
        assert loglik == pytest.approx(direct, rel=1e-12)

    def test_m_step_recovers_hard_split(self):
        p = two_blob_params()
        data, labels = sample(p, 5_000, rng_seed=4)
        resp = np.zeros((len(data), 2))
        resp[np.arange(len(data)), labels] = 1.0
        est = m_step(data, resp)
        order = np.argsort(est.means[:, 0])
        assert np.allclose(est.means[order], p.means, atol=0.1)
        assert np.allclose(est.variances, 1.0, atol=0.1)
        assert np.allclose(est.weights, 0.5, atol=0.05)

    def test_empty_component_reseeded(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((100, 2))
        resp = np.zeros((100, 2))
        resp[:, 0] = 1.0  # component 1 gets nothing
        est = m_step(data, resp, rng=np.random.default_rng(0))
        assert np.all(est.weights > 0)
        assert np.all(np.isfinite(est.means))

    def test_reseed_without_redraw_takes_the_first_draw(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((30, 2))
        resp = np.zeros((30, 3))
        resp[:, 0] = 1.0
        resp[15:, 1] = 1.0
        resp[15:, 0] = 0.0
        row = int(np.random.default_rng(0).integers(30))
        moved = resp.copy()
        moved[row] = [0.0, 0.0, 1.0]
        est = m_step(data, resp, rng=np.random.default_rng(0))
        expected = m_step(data, moved)
        assert np.array_equal(est.means, expected.means)
        assert np.array_equal(est.variances, expected.variances)

    def test_reseed_redraws_rows_that_would_empty_a_component(self):
        # two distinct rows, five components: every reseed must take a row
        # that neither a singleton component nor an earlier reseed holds
        data = np.repeat([[0.0, 1.0], [2.0, -1.0]], [4, 3], axis=0)
        resp = np.zeros((7, 5))
        resp[:4, 0] = 1.0
        resp[4:, 1] = 1.0
        for seed in range(50):
            est = m_step(data, resp, rng=np.random.default_rng(seed))
            assert np.all(est.weights > 0)
            assert np.all(np.isfinite(est.means))

    def test_reseed_terminates_when_no_row_can_move(self):
        # with fewer rows than components no reseed can fill every component
        data = np.array([[0.0, 1.0], [2.0, -1.0]])
        resp = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(InputError, match="n >= r"):
            m_step(data, resp, rng=np.random.default_rng(0))

    def test_variance_floor(self):
        data = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0]])
        resp = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        est = m_step(data, resp, variance_floor=1e-4)
        assert np.all(est.variances >= 1e-4)


class TestEmFit:
    def test_loglik_monotone(self, example2_params):
        data, _ = sample(example2_params, 2_000, rng_seed=6)
        init = init_random(data, 3, rng_seed=0)
        res = em_fit(data, 3, init)
        trace = np.array(res.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-7 * np.abs(trace[:-1]))

    def test_converges_on_separated_blobs(self):
        p = two_blob_params()
        data, labels = sample(p, 2_000, rng_seed=7)
        res = em_fit(data, 2, init_kmeans(data, 2, runs=5))
        assert isinstance(res, EmResult)
        assert res.converged
        assert ari(labels, res.hard_labels) > 0.99
        order = np.argsort(res.params.means[:, 0])
        assert np.allclose(res.params.means[order], p.means, atol=0.15)

    def test_respects_max_iter(self, example2_params):
        data, _ = sample(example2_params, 500, rng_seed=8)
        res = em_fit(data, 3, init_random(data, 3, rng_seed=0), max_iter=3)
        assert res.iterations <= 3
        assert len(res.loglik_trace) == res.iterations + 1

    def test_hard_labels_are_the_compact_argmax(self, example2_params):
        data, _ = sample(example2_params, 1_000, rng_seed=10)
        res = em_fit(data, 3, init_random(data, 3, rng_seed=0))
        assert res.hard_labels.dtype == np.int8
        assert np.array_equal(res.hard_labels, np.argmax(e_step(res.params, data)[0], axis=1))

    @pytest.mark.parametrize("r, dtype", [(1, np.int8), (128, np.int8), (129, np.int16)])
    def test_hard_label_type_holds_r(self, r, dtype):
        data = np.random.default_rng(r).standard_normal((2 * r, 2))
        res = em_fit(data, r, init_random(data, r, rng_seed=0), max_iter=1)
        assert res.hard_labels.dtype == dtype

    def test_shape_mismatch(self, example2_params):
        data, _ = sample(example2_params, 100, rng_seed=9)
        with pytest.raises(InputError):
            em_fit(data, 4, init_random(data, 3, rng_seed=0))

    def test_non_finite_fit_rejected(self):
        # squared norms of rows near 1e160 overflow, so the data are
        # rejected before the first step
        data = np.random.default_rng(0).normal(size=(40, 2)) * 1e160
        start = GmmParams(np.array([0.5, 0.5]), data[:2], np.ones(2))
        with np.errstate(all="ignore"), pytest.raises(InputError, match="finite"):
            em_fit(data, 2, start, max_iter=5)

    def test_no_iterations_return_the_start(self, example2_params):
        data, _ = sample(example2_params, 100, rng_seed=9)
        start = init_random(data, 3, rng_seed=0)
        assert em_fit(data, 3, start, max_iter=0).params is start


def malformed_calls():
    """A call of a public entry point for each malformed input, with a pattern
    its message must match: data with a non-finite row, 1-D data or no rows,
    for each entry point, where the message names the data, and params or
    responsibilities that do not fit the data."""
    good = np.random.default_rng(30).normal(size=(40, 3))
    nan_row, inf_row = good.copy(), good.copy()
    nan_row[7, 1], inf_row[7, 1] = np.nan, np.inf
    bad_data = {"nan-row": nan_row, "inf-row": inf_row, "1d": good[:, 0], "no-rows": good[:0]}
    start = GmmParams(np.full(2, 0.5), good[:2], np.ones(2))
    entries = {
        "init_kmeans": lambda data: init_kmeans(data, 2),
        "init_emem": lambda data: init_emem(data, 2),
        "init_random": lambda data: init_random(data, 2),
        "init_moments": lambda data: init_moments(data, 2),
        "em_fit": lambda data: em_fit(data, 2, start),
        "e_step": lambda data: e_step(start, data),
        "m_step": lambda data: m_step(data, np.full((len(data), 2), 0.5)),
        "pooled_variance": lambda data: pooled_variance(data),
    }
    calls = [
        pytest.param(lambda entry=entry, data=data: entry(data), "data", id=f"{name}-{defect}")
        for name, entry in entries.items()
        for defect, data in bad_data.items()
    ]
    wide = GmmParams(np.full(2, 0.5), np.zeros((2, 4)), np.ones(2))
    return calls + [
        pytest.param(lambda: e_step(wide, good), "params", id="e_step-params-of-other-dim"),
        pytest.param(lambda: em_fit(good, 2, wide), "params", id="em_fit-start-of-other-dim"),
        pytest.param(lambda: m_step(good, np.full((39, 2), 0.5)), "resp",
                     id="m_step-resp-row-short"),
        pytest.param(lambda: m_step(good, np.ones(40)), "resp", id="m_step-resp-1d"),
        pytest.param(lambda: m_step(good, np.full((40, 2, 1), 0.5)), "resp", id="m_step-resp-3d"),
    ]


@pytest.mark.parametrize("call, match", malformed_calls())
def test_malformed_input_rejected(call, match):
    # an infinite entry warns on its way to the check
    with np.errstate(invalid="ignore"), pytest.raises(InputError, match=match):
        call()


def direct_sq_dist(x, centers):
    """(r, n) squared distances ||x_i - c_j||^2 by direct differences."""
    return np.array([np.sum((x - c) ** 2, axis=1) for c in centers])


def loop_lloyd(x, centers, labels):
    """One Lloyd update, the per-cluster loop _lloyd must follow: from the
    assignment `labels` to `centers`, each empty cluster, in index order,
    takes the point farthest (by direct differences) from its own center
    among those whose move empties no other cluster, then each center
    becomes its cluster's mean.  Returns (labels, centers, whether a cluster
    was empty)."""
    labels, r = labels.copy(), len(centers)
    closest = direct_sq_dist(x, centers)[labels, np.arange(len(x))]
    empty = [j for j in range(r) if not np.any(labels == j)]
    for j in empty:
        sizes = np.bincount(labels, minlength=r)
        movable = [i for i in range(len(x)) if sizes[labels[i]] > 1]
        labels[max(movable, key=lambda i: closest[i])] = j
    return labels, np.array([x[labels == j].mean(axis=0) for j in range(r)]), bool(empty)


def stacked_seeds(frame, r, seeds):
    """k-means++ centers (runs, r, m) of one run per seed on a frame."""
    return _kmeans_pp_seeds(frame.z, r, [np.random.default_rng(seed) for seed in seeds])


class TestLloyd:
    """The stacked _lloyd against loop_lloyd to tolerance, run by run, in lock
    step: _lloyd's state after k iterations is _lloyd(..., max_iter=k), whose
    labels are the assignment of iteration k + 1.  Exactly tied distances may
    be split either way, and a split decides the rest of the run, so each
    step starts from _lloyd's own state."""

    @staticmethod
    def assert_matches_loop(frame, centers):
        """For each run of a stack of at least 3: every assignment is the
        direct-difference argmin but at ties (a gap within 1e-13 of ||x_i||^2
        + ||c_j||^2), every update loop_lloyd's to atol 1e-12 * max|x_i|
        (measured 6e-16), and every WCSS the direct one to 1e-12 of sum
        ||x_i||^2 (measured 3e-16).  Returns which runs reseeded a cluster."""
        assert len(centers) >= 3
        x, x_sq = frame.x, frame.x_sq
        rows = np.arange(len(x))
        atol = 1e-12 * np.abs(x).max()
        want, previous = centers.copy(), None
        running = set(range(len(centers)))
        reseeded = np.zeros(len(centers), dtype=bool)
        for k in range(101):
            labels, got, wcss = _lloyd(frame.z, centers, max_iter=k)
            for run in sorted(running):
                np.testing.assert_allclose(got[run], want[run], rtol=0, atol=atol)
                dists = direct_sq_dist(x, got[run])
                best = np.argmin(dists, axis=0)
                gap = dists[labels[run], rows] - dists[best, rows]
                assert np.all(gap <= 1e-13 * (x_sq + np.max(np.sum(got[run] ** 2, axis=1))))
                direct = dists[labels[run], rows].sum()
                assert wcss[run] == pytest.approx(direct, rel=0, abs=1e-12 * x_sq.sum())
                if k and np.array_equal(got[run], previous[run]):
                    running.remove(run)
                    continue
                _, want[run], empty = loop_lloyd(x, got[run], labels[run])
                reseeded[run] |= empty
            if not running:
                return reseeded
            previous = got
        raise AssertionError("_lloyd did not converge in 100 iterations")

    @pytest.mark.parametrize("m, r", [(1, 3), (2, 2), (6, 4), (5, 3), (12, 6), (30, 15)])
    def test_matches_loop_to_tolerance(self, m, r):
        """Lock step with loop_lloyd to tolerance."""
        rng = np.random.default_rng(100 * m + r)
        for t in range(6):
            n = int(rng.integers(r, 600))
            data = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-2, 2)
            if t % 2:
                data = np.round(data)  # duplicated rows and exact ties
            if t % 3 == 2:
                data = data[rng.integers(0, max(r, n // 10), size=n)]
            frame = _frame(data)
            self.assert_matches_loop(frame, stacked_seeds(frame, r, range(3 * t, 3 * t + 3)))

    @pytest.mark.parametrize("m", [1, 4])
    def test_empty_cluster_far_center(self, m):
        frame = _frame(np.random.default_rng(21).normal(size=(300, m)))
        centers = stacked_seeds(frame, 4, [21, 22, 23])
        centers[1, 2] = 1e6
        assert self.assert_matches_loop(frame, centers)[1]

    @pytest.mark.parametrize("m", [1, 4])
    def test_empty_cluster_coincident_centers(self, m):
        frame = _frame(np.random.default_rng(22).normal(size=(300, m)))
        centers = stacked_seeds(frame, 4, [22, 23, 24])
        centers[0, 3] = centers[0, 1]
        assert self.assert_matches_loop(frame, centers)[0]

    @pytest.mark.parametrize("m", [1, 4])
    def test_two_empty_clusters_take_distinct_points(self, m):
        # both far centers of the last run are empty after the first
        # assignment, and the farthest point can fill only one of them
        frame = _frame(np.random.default_rng(21).normal(size=(300, m)))
        centers = stacked_seeds(frame, 4, [21, 22, 23])
        centers[2, 2], centers[2, 3] = 1e6, 2e6
        labels, got, _ = _lloyd(frame.z, centers, max_iter=1)
        assert not np.array_equal(got[2, 2], got[2, 3])
        assert np.all(np.bincount(labels[2], minlength=4) > 0)
        assert self.assert_matches_loop(frame, centers)[2]

    def test_runs_stop_apart(self):
        # a stack whose runs converge after different numbers of iterations
        # keeps each run's own result
        frame = _frame(np.random.default_rng(5).normal(size=(400, 3)))
        centers = stacked_seeds(frame, 5, range(4))
        stacked = _lloyd(frame.z, centers)
        for run in range(4):
            alone = _lloyd(frame.z, centers[run : run + 1])
            assert all(_same_bits(np.asarray(a[0], float), np.asarray(b[run], float))
                       for a, b in zip(alone, stacked))


def loop_kmeans_pp_seeds(x, r, rng):
    """k-means++ seeding of one run, one center at a time."""
    n = len(x)
    centers = np.empty((r, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    closest = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, r):
        total = closest.sum()
        if total <= 0:
            centers[j] = x[rng.integers(n)]
        else:
            centers[j] = x[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((x - centers[j]) ** 2, axis=1))
    return centers


def test_kmeans_pp_stacked_run_is_the_run_alone(example2_params):
    # each run's cumulative sums, draws and picks are those of the run seeded
    # alone, also once every distance is exactly 0 (integer rows, m = 1,
    # three distinct points and r = 5), where a run draws a uniform row
    cases = [(_frame(sample(example2_params, 500, rng_seed=4)[0]), 3),
             (_frame(np.array([[0.0], [0.0], [3.0], [5.0], [5.0], [5.0]] * 4)), 5)]
    for frame, r in cases:
        stacked = stacked_seeds(frame, r, range(20))
        for run in range(20):
            assert _same_bits(stacked_seeds(frame, r, [run])[0], stacked[run])
    assert all(len(np.unique(c)) == 3 for c in stacked)


def loop_lloyd_run(frame, centers, max_iter=100):
    """Lloyd iterations of one run, the arithmetic _lloyd must follow bit
    for bit, each product a one-run stack: argmin assignments by
    ||c_j||^2 - 2 x_i.c_j, a bincount of counts and a product of the C-ordered
    one-hot assignment with x for the sums.  Returns (labels, centers, WCSS)."""
    x, x_sq, r = frame.x, frame.x_sq, len(centers)
    n = len(x)
    rows, xt = np.arange(n), np.ascontiguousarray(x.T)

    def nearest(centers):
        rank = ((centers * -2.0)[None] @ xt)[0] + np.sum(centers**2, axis=1)[:, None]
        labels = np.argmin(rank, axis=0)
        return labels, np.maximum(rank[labels, rows] + x_sq, 0.0)

    labels = np.full(n, -1)
    for _ in range(max_iter):
        new_labels, closest = nearest(centers)
        counts = np.bincount(new_labels, minlength=r)
        for j in np.flatnonzero(counts == 0):
            movable = counts[new_labels] > 1
            far = int(np.argmax(np.where(movable, closest, -1.0)))
            counts[new_labels[far]] -= 1
            counts[j] = 1
            new_labels[far] = j
        onehot = np.zeros((1, r, n))
        onehot[0, new_labels, rows] = 1.0
        centers = (onehot @ x)[0] / counts[:, None]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    labels, closest = nearest(centers)
    return labels, centers, float(closest.sum())


def sq_dist_lloyd_run(frame, centers, max_iter=100):
    """Lloyd iterations of one run in a second arithmetic: argmin of
    _sq_dist's expanded distances and one bincount per coordinate for the
    sums, each in row order.  Without exact ties its labels are
    loop_lloyd_run's.  Returns (labels, centers, WCSS)."""
    x, r = frame.x, len(centers)
    n, m = x.shape
    rows = np.arange(n)
    labels = np.full(n, -1)
    for _ in range(max_iter):
        dists = gmm._sq_dist(frame.z, centers)
        new_labels = np.argmin(dists, axis=0)
        counts = np.bincount(new_labels, minlength=r)
        for j in np.flatnonzero(counts == 0):
            movable = counts[new_labels] > 1
            far = int(np.argmax(np.where(movable, dists[new_labels, rows], -1.0)))
            counts[new_labels[far]] -= 1
            counts[j] = 1
            new_labels[far] = j
        bins = (new_labels * m)[:, None] + np.arange(m)
        sums = np.bincount(bins.ravel(), weights=x.ravel(), minlength=r * m)
        centers = sums.reshape(r, m) / counts[:, None]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    dists = gmm._sq_dist(frame.z, centers)
    labels = np.argmin(dists, axis=0)
    return labels, centers, float(dists[labels, rows].sum())


def loop_kmeans(data, r, runs=50, rng_seed=0, lloyd_run=loop_lloyd_run):
    """The run-by-run loop init_kmeans must reproduce bit for bit: per run,
    seeding and Lloyd (`lloyd_run`) on default_rng(rng_seed + run); the
    first run with the least WCSS wins."""
    data = np.asarray(data, dtype=float)
    frame = _frame(data)
    best = None
    for run in range(runs):
        centers = loop_kmeans_pp_seeds(frame.x, r, np.random.default_rng(rng_seed + run))
        labels, _, wcss = lloyd_run(frame, centers)
        if best is None or wcss < best[0]:
            best = (wcss, labels)
    return m_step(data, np.eye(r)[best[1]])


def two_points(copies=10):
    """Copies of two points: every k-means run has WCSS 0, and the run's
    first seed decides which point is cluster 0."""
    return np.repeat(np.array([[0.0, 0.0], [3.0, 1.0]]), copies, axis=0)


class TestKmeansStack:
    """init_kmeans' stacked restarts against loop_kmeans, bit for bit."""

    @pytest.mark.parametrize("example, r", [("example1_params", 4), ("example2_params", 3)])
    def test_bit_equal_to_loop_on_examples(self, request, example, r):
        params = request.getfixturevalue(example)
        for seed in range(10):
            data, _ = sample(params, 1000, rng_seed=seed)
            got = init_kmeans(data, r, rng_seed=seed)
            assert_same_params(got, loop_kmeans(data, r, rng_seed=seed))

    @pytest.mark.parametrize("example, r", [("example1_params", 4), ("example2_params", 3)])
    def test_start_does_not_move_on_tie_free_data(self, request, example, r):
        # ranking by ||c_j||^2 - 2 x_i.c_j and summing by a product differ
        # from _sq_dist's argmin and row-order sums by rounding, which splits
        # only ties: without them the winning labels, and the start, agree
        params = request.getfixturevalue(example)
        for seed in range(10):
            data, _ = sample(params, 1000, rng_seed=seed)
            want = loop_kmeans(data, r, rng_seed=seed, lloyd_run=sq_dist_lloyd_run)
            assert_same_params(init_kmeans(data, r, rng_seed=seed), want)

    @pytest.mark.parametrize("m, r", [(1, 3), (2, 2), (5, 3), (12, 6), (30, 15)])
    def test_bit_equal_to_loop_on_rounded_and_duplicated_rows(self, m, r):
        rng = np.random.default_rng(10 * m + r)
        for t in range(4):
            n = int(rng.integers(r, 300))
            data = np.round(rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-1, 2))
            if t % 2:
                data = data[rng.integers(0, max(r, n // 10), size=n)]
            got = init_kmeans(data, r, runs=10, rng_seed=t)
            assert_same_params(got, loop_kmeans(data, r, runs=10, rng_seed=t))

    def test_bit_equal_to_loop_on_few_distinct_rows(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m, distinct = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            r = int(rng.integers(distinct + 1, 9))
            rows = rng.integers(distinct, size=int(rng.integers(r, 25)))
            data = rng.standard_normal((distinct, m))[rows]
            got = init_kmeans(data, r, runs=7, rng_seed=seed)
            assert_same_params(got, loop_kmeans(data, r, runs=7, rng_seed=seed))

    def test_bit_equal_to_loop_r1(self, example2_params):
        for seed in range(3):
            data, _ = sample(example2_params, 500, rng_seed=seed)
            got = init_kmeans(data, 1, rng_seed=seed)
            assert_same_params(got, loop_kmeans(data, 1, rng_seed=seed))

    def test_first_of_tied_runs_wins(self):
        data = two_points()
        alone = [init_kmeans(data, 2, runs=1, rng_seed=run) for run in range(10)]
        assert any(not _same_bits(a.means, alone[0].means) for a in alone)  # the order differs
        got = init_kmeans(data, 2, runs=10)
        assert_same_params(got, alone[0])
        assert_same_params(got, loop_kmeans(data, 2, runs=10))

    @pytest.mark.parametrize("runs_per_block", [1, 3])
    def test_block_size_does_not_matter(self, monkeypatch, example2_params, runs_per_block):
        cases = [(sample(example2_params, 1000, rng_seed=1)[0], 3), (two_points(), 2)]
        cases += [(few_distinct_rows(seed), 5) for seed in range(8)]
        for seed, (data, r) in enumerate(cases):
            per_run = r * len(data)
            assert 50 * per_run <= gmm.RESTART_BLOCK_ELEMENTS  # one block
            whole = init_kmeans(data, r, rng_seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(gmm, "RESTART_BLOCK_ELEMENTS", runs_per_block * per_run)
                blocked = init_kmeans(data, r, rng_seed=seed)
            assert_same_params(blocked, whole)

    def test_final_m_step_is_m_step(self, example1_params):
        # init_kmeans' hard-label M step runs on the frame it already holds;
        # it equals the public m_step on the winning labels, bit for bit
        cases = [(sample(example1_params, 1000, rng_seed=3)[0], 4), (two_points(), 2)]
        cases += [(few_distinct_rows(seed), 5) for seed in range(4)]
        cases += [(sample(example1_params, 500, rng_seed=4)[0] + 1e6, 4)]
        for seed, (data, r) in enumerate(cases):
            z = _frame(data).z
            rngs = [np.random.default_rng(seed + run) for run in range(50)]
            labels, _, wcss = _lloyd(z, _kmeans_pp_seeds(z, r, rngs))
            want = m_step(data, np.eye(r)[labels[np.argmin(wcss)]])
            assert_same_params(init_kmeans(data, r, rng_seed=seed), want)

    def test_same_start_on_one_and_two_blas_threads(self):
        # at n = 1e5 the rank and center-sum products are large enough for
        # OpenBLAS to split them over threads
        code = textwrap.dedent("""
            import hashlib
            import numpy as np
            from momentgmm import GmmParams, init_kmeans, sample
            rng = np.random.default_rng(7)
            params = GmmParams(np.full(5, 0.2), 4.0 * rng.standard_normal((5, 10)), np.ones(5))
            data, _ = sample(params, 100_000, rng_seed=1)
            start = init_kmeans(data, 5, runs=10)
            parts = (start.weights, start.means, start.variances)
            print(hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest())
        """)
        one, two = (run_with_blas_threads(["-c", code], threads) for threads in ("1", "2"))
        assert len(one.strip()) == 64 and one == two

    def test_memory_bounded_by_the_block(self):
        # at n = 1e5 and r = 5 a block holds 2 runs: 50 runs take no more
        # memory at once than 5 do
        corners = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [2, 2]])
        blobs = GmmParams(np.full(5, 0.2), 20.0 * corners, np.ones(5))
        data, _ = sample(blobs, 100_000, rng_seed=1)
        assert gmm.RESTART_BLOCK_ELEMENTS // (5 * len(data)) == 2
        few = traced_peak(init_kmeans, data, 5, 5)
        assert traced_peak(init_kmeans, data, 5, 50) <= 2 * few


def loop_emem(data, r, short_runs=50, short_iters=5, rng_seed=0):
    """The hand-written burst loop init_emem must reproduce: per run a random
    soft partition, an M step and `short_iters` E/M steps on the run's rng,
    through the one-run e_step and m_step.  Returns (the params of each
    burst, their final log-likelihoods, the runs that reseeded an empty
    component)."""
    data = np.asarray(data, dtype=float)
    n = len(data)
    floor = VARIANCE_FLOOR_FRACTION * pooled_variance(data)
    bursts, logliks, reseeded = [], [], set()
    for run in range(short_runs):
        rng = np.random.default_rng(rng_seed + run)
        resp = rng.uniform(size=(n, r))
        resp /= resp.sum(axis=1, keepdims=True)
        for it in range(short_iters + 1):
            if it:
                resp, _ = e_step(params, data)
            if np.any(resp.sum(axis=0) < 1e-10 * n):
                reseeded.add(run)
            params = m_step(data, resp, variance_floor=floor, rng=rng)
        bursts.append(params)
        logliks.append(e_step(params, data)[1])
    return bursts, np.array(logliks), reseeded


def few_distinct_rows(seed):
    """12 rows drawn from 1-3 distinct points in R^2."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((int(rng.integers(1, 4)), 2))
    return points[rng.integers(len(points), size=12)]


class TestEmem:
    """init_emem's stacked bursts against loop_emem: the same chosen burst,
    its parameters to rtol 1e-10 (measured 4e-13)."""

    @pytest.mark.parametrize("example, r", [("example1_params", 4), ("example2_params", 3)])
    def test_same_burst_as_loop_on_examples(self, request, example, r):
        data, _ = sample(request.getfixturevalue(example), 1000, rng_seed=r)
        bursts, logliks, _ = loop_emem(data, r, rng_seed=7)
        runner_up, top = np.sort(logliks)[-2:]
        assert top - runner_up > 1e-8 * abs(top)  # no tie: one burst is best
        assert_close_params(init_emem(data, r, rng_seed=7), bursts[np.argmax(logliks)], 1e-10)

    def test_same_burst_as_loop_through_reseeds(self):
        # on a few distinct rows the bursts collapse onto the variance floor,
        # where EM amplifies rounding: each burst, run alone, matches the
        # loop's to 2.5e-7 (measured), and several tie in log-likelihood
        reseeded = False
        for seed in range(8):
            data = few_distinct_rows(seed)
            bursts, logliks, runs = loop_emem(data, 5, short_runs=5, rng_seed=seed)
            alone = [init_emem(data, 5, short_runs=1, rng_seed=seed + k) for k in range(5)]
            for k in range(5):
                assert_close_params(alone[k], bursts[k], 1e-6)
            got = init_emem(data, 5, short_runs=5, rng_seed=seed)
            tied = np.flatnonzero(logliks >= logliks.max() - 1e-8 * abs(logliks.max()))
            assert any(_same_bits(got.means, alone[k].means) for k in tied)
            reseeded |= bool(runs)
        assert reseeded  # some burst above reseeded an empty component

    @pytest.mark.parametrize("runs_per_block", [1, 3])
    def test_block_size_does_not_matter(self, monkeypatch, example2_params, runs_per_block):
        cases = [(sample(example2_params, 1000, rng_seed=1)[0], 3, {})]
        cases += [(few_distinct_rows(seed), 5, {"short_runs": 5}) for seed in range(8)]
        assert any(loop_emem(d, r, rng_seed=i, **kw)[2] for i, (d, r, kw) in enumerate(cases))
        for seed, (data, r, kw) in enumerate(cases):
            assert 50 * r * len(data) <= gmm.RESTART_BLOCK_ELEMENTS  # one block
            whole = init_emem(data, r, rng_seed=seed, **kw)
            with monkeypatch.context() as patch:
                patch.setattr(gmm, "RESTART_BLOCK_ELEMENTS", runs_per_block * r * len(data))
                blocked = init_emem(data, r, rng_seed=seed, **kw)
            assert_same_params(blocked, whole)


def solo_em(data, r, init, max_iter=100, tol=DEFAULT_TOL, rng_seed=0):
    """One EM run written out over the (runs, r, n) kernels, the loop each
    run of em_fits must reproduce bit for bit: an E step, then M/E pairs
    until the relative log-likelihood change is under tol."""
    _, c, z = _frame(data)
    floor = VARIANCE_FLOOR_FRACTION * z[-2].sum() / (z.shape[1] * (len(z) - 2))
    rngs = [np.random.default_rng(rng_seed)]
    step = (init.weights[None], (init.means - c)[None], init.variances[None])
    resp, loglik, head = _e_kernel(z, step)
    trace, converged = [float(loglik[0])], False
    for _ in range(max_iter):
        step = _m_kernel(z, resp, head, floor, rngs)
        resp, loglik, head = _e_kernel(z, step)
        trace.append(float(loglik[0]))
        if abs(trace[-1] - trace[-2]) < tol * max(abs(trace[-2]), 1.0):
            converged = True
            break
    params = init if len(trace) == 1 else GmmParams(step[0][0], step[1][0] + c, step[2][0])
    labels = np.argmax(resp[0], axis=0).astype(np.min_scalar_type(-r))
    return EmResult(params, trace, len(trace) - 1, converged, labels)


def assert_same_fit(got, want):
    assert got.loglik_trace == want.loglik_trace
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert_same_params(got.params, want.params)
    assert got.hard_labels.dtype == want.hard_labels.dtype
    assert np.array_equal(got.hard_labels, want.hard_labels)


def study_starts(data, r, seed):
    """The starts of a study replicate: k-means, moments, emEM and random."""
    return [
        init_kmeans(data, r, rng_seed=seed),
        init_moments(data, r, rng_seed=seed)[0],
        init_emem(data, r, rng_seed=seed),
        init_random(data, r, rng_seed=seed),
    ]


class TestEmFits:
    """em_fits' stack, whose runs stop one by one, against em_fit and
    solo_em on each start alone: the same trace, iterations, flag, params
    and hard labels, bit for bit."""

    @staticmethod
    def check(data, r, starts, **kw):
        fits = em_fits(data, r, starts, **kw)
        assert len(fits) == len(starts)
        for start, got in zip(starts, fits):
            assert_same_fit(got, em_fit(data, r, start, **kw))
            assert_same_fit(got, solo_em(data, r, start, **kw))
        return fits

    @pytest.mark.parametrize("example, r", [("example1_params", 4), ("example2_params", 3)])
    def test_runs_stopping_apart_and_at_the_cap(self, request, example, r):
        params = request.getfixturevalue(example)
        apart = capped = False
        for seed in range(3):
            data, _ = sample(params, 1000, rng_seed=seed)
            starts = study_starts(data, r, seed)
            for max_iter in (100, 20):
                fits = self.check(data, r, starts, max_iter=max_iter, rng_seed=seed)
                stopped = {f.iterations for f in fits if f.converged}
                apart |= len(stopped) > 1
                capped |= any(not f.converged and f.iterations == max_iter for f in fits) and bool(stopped)
        assert apart  # some stack has runs that stopped at different steps
        assert capped  # and some stack ran a run to the cap after others stopped

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_no_or_one_iteration(self, example2_params, max_iter):
        data, _ = sample(example2_params, 500, rng_seed=4)
        starts = study_starts(data, 3, 4)
        fits = self.check(data, 3, starts, max_iter=max_iter)
        for start, fit in zip(starts, fits):
            assert fit.iterations == max_iter and not fit.converged
            assert (fit.params is start) == (max_iter == 0)

    def test_reseeds_draw_on_each_run_own_generator(self, monkeypatch):
        reseed, reseeding = gmm._reseed_empty, []

        def counted(resp, counts, rng):
            reseeding[-1].add(id(rng))
            return reseed(resp, counts, rng)

        for seed in range(8):
            reseeding.append(set())
            data = few_distinct_rows(seed)
            starts = [init_random(data, 5, rng_seed=seed + k) for k in range(4)]
            for k, start in enumerate(starts[1:]):
                start.means[k] = 1e3  # a component far from every row starts empty
            with monkeypatch.context() as patch:
                patch.setattr(gmm, "_reseed_empty", counted)
                fits = em_fits(data, 5, starts, rng_seed=seed)
            for start, got in zip(starts, fits):
                assert_same_fit(got, em_fit(data, 5, start, rng_seed=seed))
                assert_same_fit(got, solo_em(data, 5, start, rng_seed=seed))
        assert max(map(len, reseeding)) > 1  # several runs of one stack reseeded

    def test_one_run_stack(self, example1_params):
        data, _ = sample(example1_params, 1000, rng_seed=2)
        for start in study_starts(data, 4, 2):
            self.check(data, 4, [start], rng_seed=2)

    def test_empty_stack(self, example2_params):
        data, _ = sample(example2_params, 100, rng_seed=0)
        assert em_fits(data, 3, []) == []

    def test_mismatched_start_rejected(self, example2_params):
        data, _ = sample(example2_params, 100, rng_seed=0)
        starts = [init_random(data, 3, rng_seed=0), init_random(data, 2, rng_seed=0)]
        with pytest.raises(InputError, match="components"):
            em_fits(data, 3, starts)


class TestHardLabels:
    """em_fits' hard labels come from a running comparison over the r rows
    of the responsibilities; they must be argmax's, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        r=st.integers(1, 9),
        n=st.integers(1, 300),
        levels=st.integers(1, 4),
        nan_cols=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_running_comparison_is_argmax(self, r, n, levels, nan_cols, seed):
        # few distinct log terms give exact ties; a -inf row an exact 0; a
        # NaN term makes _log_normalize's whole column NaN
        rng = np.random.default_rng(seed)
        a = rng.integers(0, levels, size=(1, r, n)).astype(float)
        a[0, rng.integers(r), :] = -np.inf
        a[0, rng.integers(r, size=nan_cols), rng.integers(n, size=nan_cols)] = np.nan
        with np.errstate(invalid="ignore"):
            _log_normalize(a)
        kind = np.min_scalar_type(-r).type
        labels, _ = _first_best(a, kind, np.greater)
        assert labels.dtype == kind
        assert np.array_equal(labels[0], np.argmax(a[0], axis=0))
        nearest, _ = _first_best(-a, kind)
        assert np.array_equal(nearest[0], np.argmin(-a[0], axis=0))


def frame_cases(example1_params, example2_params):
    """(data, r): the examples, shifted data, repeated rows, integer and
    Fortran-ordered arrays."""
    rng = np.random.default_rng(40)
    return [
        (sample(example1_params, 1000, rng_seed=0)[0], 4),
        (sample(example2_params, 600, rng_seed=1)[0] + 1e6, 3),
        (few_distinct_rows(2), 2),
        (rng.integers(-5, 5, size=(300, 4)), 2),
        (np.asfortranarray(sample(example2_params, 400, rng_seed=3)[0]), 3),
    ]


class TestFrameRoute:
    """Each public entry point takes a Frame in place of its data; the
    result equals, bit for bit, the one on the array, which it frames."""

    def test_a_frame_frames_to_itself(self):
        frame = _frame(np.random.default_rng(0).normal(size=(5, 2)))
        assert _frame(frame) is frame
        assert frame.x.tobytes() == (frame.data - frame.data.mean(axis=0)).tobytes()

    def test_x_and_x_sq_are_views_of_z(self):
        data = np.random.default_rng(1).normal(size=(7, 3)) + 5.0
        frame = _frame(data)
        assert frame.z.shape == (5, 7) and frame.z.flags.c_contiguous
        assert frame.x.base is frame.z and frame.x_sq.base is frame.z
        assert _same_bits(frame.x, data - data.mean(axis=0))
        assert _same_bits(frame.x_sq, np.sum(frame.z[:-2] ** 2, axis=0))
        assert np.all(frame.z[-1] == 1.0)

    def test_initializers_and_em_fits(self, example1_params, example2_params):
        for data, r in frame_cases(example1_params, example2_params):
            frame = _frame(data)
            for seed in (0, 7):
                for init in (init_kmeans, init_emem, init_random):
                    assert_same_params(init(frame, r, rng_seed=seed), init(data, r, rng_seed=seed))
                (got, got_fallback), (want, want_fallback) = (
                    init_moments(frame, r, rng_seed=seed), init_moments(data, r, rng_seed=seed))
                assert got_fallback == want_fallback
                assert_same_params(got, want)
                starts = study_starts(data, r, seed)
                for got, want in zip(em_fits(frame, r, starts, rng_seed=seed),
                                     em_fits(data, r, starts, rng_seed=seed)):
                    assert_same_fit(got, want)
                assert_same_fit(em_fit(frame, r, starts[1], max_iter=5, rng_seed=seed),
                                em_fit(data, r, starts[1], max_iter=5, rng_seed=seed))
                assert np.array_equal(e_step(starts[0], frame)[0], e_step(starts[0], data)[0])
            assert pooled_variance(frame) == pooled_variance(data)

    def test_moments_fallback_on_a_frame(self, monkeypatch):
        def boom(data, r):
            raise NumericalError("forced failure")

        monkeypatch.setattr(gmm, "recover_from_data", boom)
        data = np.random.default_rng(17).standard_normal((80, 3))
        params, fallback = init_moments(_frame(data), 2, rng_seed=3)
        assert fallback
        assert_same_params(params, init_random(data, 2, rng_seed=3))


def three_blobs():
    """(data, start): 2000 points of a 3-component mixture in R^3 near the
    origin, and a random start."""
    params = GmmParams(
        weights=np.array([0.3, 0.3, 0.4]),
        means=np.array([[0.0, 0.0, 0.0], [4.0, 1.0, 0.0], [1.0, 5.0, 2.0]]),
        variances=np.array([1.0, 1.5, 2.0]),
    )
    data = sample(params, 2000, rng_seed=8)[0]
    return data, init_random(data, 3, rng_seed=8)


class TestTranslationInvariance:
    """EM, emEM and k-means work about the data mean, so shifting data and
    start by t changes nothing but the rounding of the shifted input."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(shift=st.lists(st.floats(-1e7, 1e7), min_size=3, max_size=3))
    def test_em_fit(self, shift):
        data, start = three_blobs()
        t = np.array(shift)
        moved = GmmParams(start.weights, start.means + t, start.variances)
        got, want = em_fit(data + t, 3, moved), em_fit(data, 3, start)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert np.array_equal(got.hard_labels, want.hard_labels)
        assert got.loglik_trace[-1] == pytest.approx(want.loglik_trace[-1], rel=1e-10)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(shift=st.lists(st.floats(-1e7, 1e7), min_size=3, max_size=3))
    def test_init_kmeans(self, shift):
        data, _ = three_blobs()
        t = np.array(shift)
        got, want = init_kmeans(data + t, 3, runs=10), init_kmeans(data, 3, runs=10)
        # measured at |t| = 1e7: 8.5e-10 on the means, bit-equal weights
        np.testing.assert_allclose(got.means - t, want.means, rtol=0, atol=1e-8)
        np.testing.assert_array_equal(got.weights, want.weights)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(shift=st.lists(st.floats(-1e7, 1e7), min_size=3, max_size=3))
    def test_init_emem(self, shift):
        data, _ = three_blobs()
        t = np.array(shift)
        got, want = init_emem(data + t, 3, short_runs=10), init_emem(data, 3, short_runs=10)
        # measured at |t| = 1e7: 5e-10 on the means, 1e-12 on the variances
        np.testing.assert_allclose(got.means - t, want.means, rtol=0, atol=1e-8)
        np.testing.assert_allclose(got.variances, want.variances, rtol=1e-10)
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-10)


class TestInitializers:
    def test_kmeans_separated(self):
        p = two_blob_params()
        data, _ = sample(p, 1_000, rng_seed=10)
        init = init_kmeans(data, 2, runs=10)
        order = np.argsort(init.means[:, 0])
        assert np.allclose(init.means[order], p.means, atol=0.2)

    def test_kmeans_deterministic(self, example2_params):
        data, _ = sample(example2_params, 500, rng_seed=11)
        a = init_kmeans(data, 3, runs=10, rng_seed=5)
        b = init_kmeans(data, 3, runs=10, rng_seed=5)
        assert np.array_equal(a.means, b.means)

    def test_random_init_uses_data_rows(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((50, 3))
        init = init_random(data, 4, rng_seed=1)
        assert np.allclose(init.weights, 0.25)
        assert np.allclose(init.variances, pooled_variance(data))
        for mu in init.means:
            assert np.any(np.all(data == mu, axis=1))
        # distinct rows
        assert len({tuple(mu) for mu in init.means}) == 4

    def test_emem_beats_single_random_start(self, example2_params):
        data, _ = sample(example2_params, 1_000, rng_seed=13)
        emem = init_emem(data, 3, short_runs=10, rng_seed=0)
        rand = init_random(data, 3, rng_seed=0)
        _, ll_emem = e_step(emem, data)
        _, ll_rand = e_step(rand, data)
        assert ll_emem > ll_rand

    def test_emem_deterministic(self, example2_params):
        data, _ = sample(example2_params, 400, rng_seed=14)
        a = init_emem(data, 3, short_runs=5, rng_seed=2)
        b = init_emem(data, 3, short_runs=5, rng_seed=2)
        assert np.array_equal(a.means, b.means)

    def test_moments_init_close_to_truth(self, example1_params):
        data, _ = sample(example1_params, 20_000, rng_seed=15)
        init, fallback = init_moments(data, 4)
        assert not fallback
        # each true mean has a nearby initializer mean
        for mu in example1_params.means:
            d = np.min(np.linalg.norm(init.means - mu, axis=1))
            assert d < 2.0
        assert np.all(init.variances > 0)

    def test_moments_init_requires_r_le_m(self):
        rng = np.random.default_rng(16)
        data = rng.standard_normal((100, 2))
        with pytest.raises(InputError):
            init_moments(data, 3)

    def test_moments_fallback_on_recovery_failure(self, monkeypatch):
        import momentgmm.gmm as gmm_mod
        from momentgmm import NumericalError

        def boom(data, r):
            raise NumericalError("forced failure")

        monkeypatch.setattr(gmm_mod, "recover_from_data", boom)
        rng = np.random.default_rng(17)
        data = rng.standard_normal((80, 3))
        params, fallback = init_moments(data, 2, rng_seed=0)
        assert fallback
        assert params.n_components == 2
        expected = init_random(data, 2, rng_seed=0)
        assert np.array_equal(params.means, expected.means)

    def test_moments_exactly_zero_third_moment(self):
        # an exactly zero tensor must raise rather than return garbage
        from momentgmm import NumericalError, SymmetricTensor, decompose

        with pytest.raises(NumericalError):
            decompose(SymmetricTensor(3, 3, np.zeros(10)))

    def test_kmeans_few_distinct_rows_no_nan(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4, 3))[rng.integers(4, size=21)]
        init = init_kmeans(data, 13, runs=2)
        assert np.all(np.isfinite(init.means))
        assert np.all(init.weights > 0)

    def test_kmeans_duplicate_rows_sweep_no_nan(self):
        bad = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 4))
            distinct = int(rng.integers(1, 5))
            r = int(rng.integers(distinct + 1, 9))
            n = int(rng.integers(r, 25))
            data = rng.standard_normal((distinct, m))[rng.integers(distinct, size=n)]
            init = init_kmeans(data, r, runs=2, rng_seed=seed)
            if not (np.all(np.isfinite(init.means)) and np.all(init.weights > 0)):
                bad.append(seed)
        assert bad == []

    def test_zero_runs_rejected(self):
        data = np.random.default_rng(18).standard_normal((20, 2))
        with pytest.raises(InputError, match="runs=0"):
            init_kmeans(data, 2, runs=0)

    def test_zero_short_runs_rejected(self):
        data = np.random.default_rng(18).standard_normal((20, 2))
        with pytest.raises(InputError, match="short_runs=0"):
            init_emem(data, 2, short_runs=0)

    def test_too_few_points(self):
        data = np.zeros((2, 3))
        with pytest.raises(InputError):
            init_kmeans(data, 3)
        with pytest.raises(InputError):
            init_random(data, 3)
        with pytest.raises(InputError):
            init_emem(data, 3)
