"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run pytest with -s to see the lines for passing tests; pytest echoes the
captured output automatically on failures).
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from momentgmm import (
    GmmParams,
    SymmetricTensor,
    apolar,
    ari,
    bic,
    decompose,
    error_rate,
    evaluate,
    exact_moments,
    hankel,
    nu_spherical,
    pow_linear,
    recover_parameters,
    sample,
)
from momentgmm.cli import fit_once, main
from momentgmm.hankel import numerical_rank
from momentgmm.symtensor import (
    WaringDecomposition,
    monomial_index,
    monomials,
    multinomial_weights,
    num_coeffs,
    partial_derivative,
    reconstruct,
)
from conftest import random_independent_points, summaries_per_blas_thread_count


def announce(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{name}]: {status} ({detail})")


def canonical(weights, points, order):
    """Unit points with a fixed sign, scale absorbed into the weights."""
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    norms = np.linalg.norm(points, axis=1)
    unit = points / norms[:, None]
    signs = np.array([1.0 if p[np.argmax(np.abs(p))] >= 0 else -1.0 for p in unit])
    return weights * (signs * norms) ** order, unit * signs[:, None]


def match_errors(dec, true_weights, true_points):
    """Greedy matching; returns (worst line angle, worst relative weight error).

    The angle between unit lines is measured through the chord
    min(|p-q|, |p+q|), which is well conditioned near zero where arccos of a
    dot product is not.
    """
    r = len(true_weights)
    used = set()
    worst_angle, worst_w = 0.0, 0.0
    for i in range(r):
        chords = [
            np.inf
            if j in used
            else min(
                np.linalg.norm(dec.points[j] - true_points[i]),
                np.linalg.norm(dec.points[j] + true_points[i]),
            )
            for j in range(r)
        ]
        j = int(np.argmin(chords))
        used.add(j)
        worst_angle = max(worst_angle, 2.0 * math.asin(min(chords[j] / 2.0, 1.0)))
        worst_w = max(
            worst_w, abs(dec.weights[j] - true_weights[i]) / abs(true_weights[i])
        )
    return worst_angle, worst_w


# ---------------------------------------------------------------------------
# Criterion 1: exact Waring recovery on 100 random instances
# ---------------------------------------------------------------------------


class TestCriterion1ExactRecovery:
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(2024)
        m, r, d = 6, 4, 3
        worst_angle = worst_w = worst_t = 0.0
        for trial in range(100):
            pts = random_independent_points(rng, r, m)
            wts = rng.uniform(0.1, 2.0, r)
            t = reconstruct(WaringDecomposition(weights=wts, points=pts, order=d))
            t0 = time.perf_counter()
            dec = decompose(t, rank=r, k=2, rng_seed=trial)
            elapsed = time.perf_counter() - t0
            tw, tp = canonical(wts, pts, d)
            a, w = match_errors(dec, tw, tp)
            worst_angle = max(worst_angle, a)
            worst_w = max(worst_w, w)
            worst_t = max(worst_t, elapsed)
        ok = worst_angle < 1e-8 and worst_w < 1e-8 and worst_t < 1.0
        announce(
            1, "exact Waring recovery", ok,
            f"worst angle {worst_angle:.2e}, worst weight rel err {worst_w:.2e}, "
            f"worst time {worst_t:.3f}s",
        )
        assert worst_angle < 1e-8
        assert worst_w < 1e-8
        assert worst_t < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: canonical sums of cubes
# ---------------------------------------------------------------------------


class TestCriterion2SumsOfCubes:
    def test_all_r_up_to_m_up_to_8(self):
        worst = 0.0
        ranks_ok = True
        for m in range(2, 9):
            for r in range(1, m + 1):
                coeffs = np.zeros(num_coeffs(m, 3))
                idx = monomial_index(m, 3)
                for i in range(r):
                    alpha = [0] * m
                    alpha[i] = 3
                    coeffs[idx[tuple(alpha)]] = 1.0
                t = SymmetricTensor(m, 3, coeffs)
                if numerical_rank(hankel(t, 1)) != r:
                    ranks_ok = False
                k = 1 if r == 1 else 2
                dec = decompose(t, rank=r, k=k)
                tw, tp = canonical(np.ones(r), np.eye(m)[:r], 3)
                for i in range(r):
                    chords = [
                        min(
                            np.linalg.norm(dec.points[j] - tp[i]),
                            np.linalg.norm(dec.points[j] + tp[i]),
                        )
                        for j in range(r)
                    ]
                    j = int(np.argmin(chords))
                    worst = max(worst, chords[j], abs(dec.weights[j] - 1.0))
        ok = worst < 1e-10 and ranks_ok
        announce(
            2, "canonical sums of cubes", ok,
            f"worst deviation {worst:.2e}, degree-1 Hankel ranks "
            f"{'correct' if ranks_ok else 'WRONG'}",
        )
        assert ranks_ok
        assert worst < 1e-10


# ---------------------------------------------------------------------------
# Criteria 3 and 4: moment round-trip and the mean-variance identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_mixtures():
    rng = np.random.default_rng(77)
    out = []
    for _ in range(50):
        m = int(rng.integers(3, 8))
        r = int(rng.integers(2, m + 1))
        weights = rng.uniform(0.05, 1.0, r)
        weights /= weights.sum()
        while np.any(weights < 0.05):
            weights = rng.uniform(0.05, 1.0, r)
            weights /= weights.sum()
        means = random_independent_points(rng, r, m, scale=5.0)
        variances = rng.uniform(0.5, 20.0, r)
        out.append(GmmParams(weights=weights, means=means, variances=variances))
    return out


def match_mixture(rec, p):
    perm = []
    used = set()
    for mu in p.means:
        dists = [
            np.inf if j in used else np.linalg.norm(rec.means[j] - mu)
            for j in range(len(p.weights))
        ]
        j = int(np.argmin(dists))
        used.add(j)
        perm.append(j)
    return perm


class TestCriterion3MomentRoundTrip:
    def test_fifty_random_thetas(self, random_mixtures):
        worst = 0.0
        for p in random_mixtures:
            rec = recover_parameters(exact_moments(p), p.n_components)
            perm = match_mixture(rec, p)
            worst = max(
                worst,
                np.max(np.abs(rec.weights[perm] - p.weights) / p.weights),
                np.max(
                    np.linalg.norm(rec.means[perm] - p.means, axis=1)
                    / np.linalg.norm(p.means, axis=1)
                ),
                np.max(np.abs(rec.variances[perm] - p.variances) / p.variances),
            )
        ok = worst < 1e-6
        announce(3, "moment round-trip", ok, f"worst relative error {worst:.2e}")
        assert worst < 1e-6


class TestCriterion4MeanVarianceIdentity:
    def test_identity_on_exact_moments(self, random_mixtures):
        worst = 0.0
        for p in random_mixtures:
            ms = exact_moments(p)
            worst = max(worst, abs(ms.sigma_bar_sq - float(p.weights @ p.variances)))
        ok = worst <= 1e-12
        announce(4, "mean-variance identity", ok, f"worst |difference| {worst:.2e}")
        assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Criterion 5: apolar identities
# ---------------------------------------------------------------------------


def multiply_by_variable(q, i):
    """X_i * q, via (X_i q)_alpha mult(d+1,alpha) = q_(alpha-e_i) mult(d,alpha-e_i)."""
    d, m = q.order, q.dim
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


class TestCriterion5ApolarIdentities:
    def test_hundred_random_triples(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for trial in range(100):
            d = int(rng.choice([2, 3, 4]))
            m = int(rng.integers(2, 5))
            v = rng.standard_normal(m)
            p = SymmetricTensor(m, d, rng.standard_normal(num_coeffs(m, d)))
            q = SymmetricTensor(m, d - 1, rng.standard_normal(num_coeffs(m, d - 1)))

            lhs = apolar(pow_linear(v, d), p)
            rhs = evaluate(p, v)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))

            i = int(rng.integers(m))
            lhs2 = apolar(p, multiply_by_variable(q, i))
            rhs2 = apolar(partial_derivative(p, i), q) / d
            worst = max(worst, abs(lhs2 - rhs2) / max(abs(rhs2), 1e-300))
        ok = worst < 1e-12
        announce(5, "apolar identities", ok, f"worst relative error {worst:.2e}")
        assert worst < 1e-12


# ---------------------------------------------------------------------------
# Criteria 6-8: desk-scale initializer studies and EM monotonicity
# ---------------------------------------------------------------------------

INITIALIZERS = ["kmeans", "moments", "emem", "random"]


def run_study(params, replicates=20, n=1000):
    aris = {k: [] for k in INITIALIZERS}
    traces = []
    for rep in range(replicates):
        data, truth = sample(params, n, rng_seed=rep)
        for name in INITIALIZERS:
            row = fit_once(data, params.n_components, name, rep, truth=truth)
            aris[name].append(row["ari"])
            traces.append(row["loglik_trace"])
    shares = {k: 0 for k in INITIALIZERS}
    for rep in range(replicates):
        best = max(aris[k][rep] for k in INITIALIZERS)
        for k in INITIALIZERS:
            if aris[k][rep] == best:
                shares[k] += 1
    medians = {k: float(np.median(aris[k])) for k in INITIALIZERS}
    return shares, medians, traces


@pytest.fixture(scope="module")
def study_results(example1_params, example2_params):
    t0 = time.perf_counter()
    ex1 = run_study(example1_params)
    ex2 = run_study(example2_params)
    return {"ex1": ex1, "ex2": ex2, "elapsed": time.perf_counter() - t0}


class TestCriterion6Example1Study:
    def test_moments_wins_example1(self, study_results):
        shares, medians, _ = study_results["ex1"]
        ok = (
            shares["moments"] > shares["kmeans"]
            and shares["moments"] > shares["emem"]
            and medians["moments"] >= 0.9
            and study_results["elapsed"] < 300.0
        )
        announce(
            6, "Example 1 study", ok,
            f"best-ARI shares moments {shares['moments']}, kmeans "
            f"{shares['kmeans']}, emEM {shares['emem']}; moments median ARI "
            f"{medians['moments']:.4f}; both studies took "
            f"{study_results['elapsed']:.1f}s",
        )
        assert shares["moments"] > shares["kmeans"]
        assert shares["moments"] > shares["emem"]
        assert medians["moments"] >= 0.9
        assert study_results["elapsed"] < 300.0


class TestCriterion7Example2Study:
    def test_moments_wins_example2(self, study_results):
        shares, medians, _ = study_results["ex2"]
        others = [shares[k] for k in INITIALIZERS if k != "moments"]
        ok = medians["moments"] >= 0.85 and shares["moments"] > max(others)
        announce(
            7, "Example 2 study", ok,
            f"moments share {shares['moments']} vs max other {max(others)}; "
            f"moments median ARI {medians['moments']:.4f}",
        )
        assert medians["moments"] >= 0.85
        assert shares["moments"] > max(others)


class TestCriterion8EmMonotonicity:
    def test_all_traces_non_decreasing(self, study_results):
        worst = 0.0
        for key in ("ex1", "ex2"):
            for trace in study_results[key][2]:
                trace = np.asarray(trace)
                drops = -np.diff(trace) / np.maximum(np.abs(trace[:-1]), 1.0)
                worst = max(worst, float(np.max(drops, initial=0.0)))
        ok = worst <= 1e-7
        announce(
            8, "EM monotonicity", ok,
            f"worst relative log-likelihood drop {worst:.2e} over "
            f"{sum(len(study_results[k][2]) for k in ('ex1', 'ex2'))} fits",
        )
        assert worst <= 1e-7


# ---------------------------------------------------------------------------
# Criterion 9: metric oracles
# ---------------------------------------------------------------------------


def oracle_ari(a, b):
    a, b = np.asarray(a), np.asarray(b)
    n11 = n10 = n01 = n00 = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        sa, sb = a[i] == a[j], b[i] == b[j]
        if sa and sb:
            n11 += 1
        elif sa:
            n10 += 1
        elif sb:
            n01 += 1
        else:
            n00 += 1
    total = n11 + n10 + n01 + n00
    expected = (n11 + n10) * (n11 + n01) / total
    max_index = 0.5 * ((n11 + n10) + (n11 + n01))
    if max_index == expected:
        return 1.0
    return (n11 - expected) / (max_index - expected)


def oracle_error_rate(pred, truth, r):
    pred, truth = np.asarray(pred), np.asarray(truth)
    best = len(pred)
    for perm in itertools.permutations(range(r)):
        best = min(best, int(np.sum(np.array([perm[p] for p in pred]) != truth)))
    return best / len(pred)


def all_partitions_as_labels(n):
    """Canonical label vectors (restricted growth strings) of all partitions."""
    out = []

    def grow(prefix, maximum):
        if len(prefix) == n:
            out.append(list(prefix))
            return
        for v in range(maximum + 2):
            grow(prefix + [v], max(maximum, v))

    grow([0], 0)
    return out


class TestCriterion9MetricOracles:
    def test_random_trials(self):
        rng = np.random.default_rng(9)
        exact = True
        for _ in range(1000):
            r = int(rng.integers(2, 4))
            n = int(rng.integers(2, 7))
            a = rng.integers(0, r, n)
            b = rng.integers(0, r, n)
            if not math.isclose(ari(a, b), oracle_ari(a, b), abs_tol=1e-14):
                exact = False
            if error_rate(a, b, r) != oracle_error_rate(a, b, r):
                exact = False
        parts = all_partitions_as_labels(5)
        assert len(parts) == 52  # Bell number B(5)
        for a in parts:
            for b in parts:
                if not math.isclose(ari(a, b), oracle_ari(a, b), abs_tol=1e-14):
                    exact = False
                r = max(max(a), max(b)) + 1
                if error_rate(a, b, r) != oracle_error_rate(a, b, r):
                    exact = False
        announce(
            9, "metric oracles", exact,
            "1000 random trials plus all 52x52 partition pairs of 5 points",
        )
        assert exact


# ---------------------------------------------------------------------------
# Criterion 10: BIC formula
# ---------------------------------------------------------------------------


class TestCriterion10BicFormula:
    def test_hand_cases_and_monotonicity(self):
        cases = [
            (-250.0, 100, 3, 5),
            (-1234.5, 1000, 4, 6),
            (0.0, 10, 1, 2),
        ]
        worst = 0.0
        for loglik, n, r, m in cases:
            nu = (r - 1) + r * m + r
            assert nu_spherical(r, m) == nu
            expected = 2.0 * loglik - nu * math.log(n)
            worst = max(worst, abs(bic(loglik, n, nu) - expected))
        monotone = all(
            bic(l1, 100, 7) < bic(l2, 100, 7)
            for l1, l2 in [(-10.0, -5.0), (-5.0, 0.0), (0.0, 3.0)]
        )
        ok = worst < 1e-12 and monotone
        announce(
            10, "BIC formula", ok,
            f"worst deviation {worst:.2e}, monotone in loglik: {monotone}",
        )
        assert worst < 1e-12
        assert monotone


# ---------------------------------------------------------------------------
# Criterion 11: benchmark determinism
# ---------------------------------------------------------------------------


def write_criterion11_config(tmp_path, example2_params):
    config = {
        "model": json.loads(example2_params.to_json()),
        "n": 300,
        "replicates": 4,
        "initializers": INITIALIZERS,
        "master_seed": 11,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return cfg


class TestCriterion11BenchmarkDeterminism:
    def test_byte_identical_summaries(self, tmp_path, example2_params):
        cfg = write_criterion11_config(tmp_path, example2_params)
        blobs = []
        for tag in ("run1", "run2", "run3"):
            out_dir = str(tmp_path / tag)
            rc = main(
                ["benchmark", "--config", str(cfg), "--out-dir", out_dir, "--quiet"]
            )
            assert rc == 0
            blobs.append(open(os.path.join(out_dir, "summary.json"), "rb").read())
        ok = blobs[0] == blobs[1] == blobs[2]
        announce(
            11, "benchmark determinism", ok,
            "summary.json byte-identical across three runs in one process",
        )
        assert ok

    def test_byte_identical_across_blas_thread_counts(self, tmp_path, example2_params):
        cfg = write_criterion11_config(tmp_path, example2_params)
        blobs = summaries_per_blas_thread_count(cfg, tmp_path)
        assert blobs[0] == blobs[1]
