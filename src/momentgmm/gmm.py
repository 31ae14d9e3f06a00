"""Spherical Gaussian mixtures: density, sampling, EM, and EM initializers.

Four initializer strategies are provided: repeated k-means (best of 50 runs
by within-cluster sum of squares), the method of moments (tensor
decomposition of the empirical third moment), emEM (50 short 5-iteration EM
bursts, keep the best log-likelihood), and plain random seeding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import InputError, NumericalError
from .moments import empirical_moments, recover_parameters

LOG_2PI = float(np.log(2.0 * np.pi))
DEFAULT_TOL = 1e-8
VARIANCE_FLOOR_FRACTION = 1e-8


@dataclass
class GmmParams:
    """Weights on the simplex, r mean vectors, r spherical variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        r = len(self.weights)
        if self.means.ndim != 2 or self.means.shape[0] != r:
            raise InputError("means must be an r x m matrix")
        if self.variances.shape != (r,):
            raise InputError("variances must have length r")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise InputError("weights must sum to 1")
        if np.any(self.variances <= 0):
            raise InputError("variances must be positive")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def to_json(self) -> str:
        return json.dumps(
            {
                "weights": list(self.weights),
                "means": [list(mu) for mu in self.means],
                "variances": list(self.variances),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GmmParams":
        obj = json.loads(text)
        try:
            return cls(
                np.array(obj["weights"], dtype=float),
                np.array(obj["means"], dtype=float),
                np.array(obj["variances"], dtype=float),
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed mixture JSON: {exc}") from exc


@dataclass
class EmResult:
    params: GmmParams
    loglik_trace: list[float]
    iterations: int
    converged: bool
    hard_labels: np.ndarray


def _sq_dist(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """n x r matrix of ||x_i - c_j||^2 in the expanded form
    ||x||^2 - 2 x.c + ||c||^2, which can dip below zero by rounding."""
    return (
        np.sum(data**2, axis=1)[:, None]
        - 2.0 * data @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )


def _log_component_matrix(params: GmmParams, data: np.ndarray) -> np.ndarray:
    """n x r matrix of log(w_j) + log N(x_i | mu_j, s_j^2 I)."""
    m = params.dim
    sq_dist = np.maximum(_sq_dist(data, params.means), 0.0)
    return (
        np.log(params.weights)[None, :]
        - 0.5 * m * (LOG_2PI + np.log(params.variances))[None, :]
        - 0.5 * sq_dist / params.variances[None, :]
    )


def log_density(params: GmmParams, x) -> float:
    """log p(x) under the mixture, stabilized with log-sum-exp."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != params.dim:
        raise InputError("point dimension does not match the mixture")
    return float(logsumexp(_log_component_matrix(params, x), axis=1)[0])


def sample(
    params: GmmParams, n: int, rng_seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n points; returns (data, integer labels). Deterministic per seed."""
    if n < 1:
        raise InputError("n must be >= 1")
    rng = np.random.default_rng(rng_seed)
    labels = rng.choice(params.n_components, size=n, p=params.weights)
    noise = rng.standard_normal((n, params.dim))
    data = params.means[labels] + np.sqrt(params.variances[labels])[:, None] * noise
    return data, labels


def e_step(params: GmmParams, data: np.ndarray) -> tuple[np.ndarray, float]:
    """Responsibilities (row-stochastic) and total log-likelihood."""
    data = np.asarray(data, dtype=float)
    log_comp = _log_component_matrix(params, data)
    log_norm = logsumexp(log_comp, axis=1)
    resp = np.exp(log_comp - log_norm[:, None])
    return resp, float(np.sum(log_norm))


def pooled_variance(data: np.ndarray) -> float:
    """(1/(n m)) sum ||x_i - xbar||^2."""
    centered = data - data.mean(axis=0)
    return float(np.sum(centered**2) / centered.size)


def m_step(
    data: np.ndarray,
    resp: np.ndarray,
    variance_floor: float | None = None,
    rng: np.random.Generator | None = None,
) -> GmmParams:
    """Weighted-statistics update; empty components are reseeded at a random
    data point with the pooled variance."""
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
            i = int(rng.integers(n))
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


def em_fit(
    data: np.ndarray,
    r: int,
    init: GmmParams,
    max_iter: int = 100,
    tol: float = DEFAULT_TOL,
    rng_seed: int = 0,
) -> EmResult:
    """Standard EM loop; stops on relative log-likelihood improvement < tol."""
    data = np.asarray(data, dtype=float)
    if init.n_components != r or init.dim != data.shape[1]:
        raise InputError("initializer shape does not match (r, m)")
    floor = VARIANCE_FLOOR_FRACTION * pooled_variance(data)
    rng = np.random.default_rng(rng_seed)
    params = init
    trace: list[float] = []
    converged = False
    resp, loglik = e_step(params, data)
    trace.append(loglik)
    it = 0
    for it in range(1, max_iter + 1):
        params = m_step(data, resp, variance_floor=floor, rng=rng)
        resp, loglik = e_step(params, data)
        trace.append(loglik)
        if abs(trace[-1] - trace[-2]) < tol * max(abs(trace[-2]), 1.0):
            converged = True
            break
    return EmResult(
        params=params,
        loglik_trace=trace,
        iterations=it,
        converged=converged,
        hard_labels=np.argmax(resp, axis=1),
    )


# ---------------------------------------------------------------------------
# Initializers
# ---------------------------------------------------------------------------


def _params_from_hard_labels(
    data: np.ndarray, labels: np.ndarray, r: int
) -> GmmParams:
    resp = np.zeros((len(data), r))
    resp[np.arange(len(data)), labels] = 1.0
    return m_step(data, resp)


def _kmeans_pp_seeds(data: np.ndarray, r: int, rng: np.random.Generator) -> np.ndarray:
    n = len(data)
    centers = np.empty((r, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    closest = np.sum((data - centers[0]) ** 2, axis=1)
    for j in range(1, r):
        total = closest.sum()
        if total <= 0:
            centers[j] = data[rng.integers(n)]
        else:
            centers[j] = data[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((data - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(
    data: np.ndarray, centers: np.ndarray, rng: np.random.Generator, max_iter: int = 100
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations; empty clusters are reseeded at the farthest point.
    Returns (labels, centers, within-cluster sum of squares)."""
    r = len(centers)
    labels = np.full(len(data), -1)
    for _ in range(max_iter):
        dists = _sq_dist(data, centers)
        new_labels = np.argmin(dists, axis=1)
        closest = dists[np.arange(len(data)), new_labels]
        for j in range(r):
            mask = new_labels == j
            if not np.any(mask):
                far = int(np.argmax(closest))
                centers[j] = data[far]
                new_labels[far] = j
                mask = new_labels == j
            centers[j] = data[mask].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    dists = _sq_dist(data, centers)
    labels = np.argmin(dists, axis=1)
    wcss = float(np.sum(dists[np.arange(len(data)), labels]))
    return labels, centers, wcss


def init_kmeans(
    data: np.ndarray, r: int, runs: int = 50, rng_seed: int = 0
) -> GmmParams:
    """Best of `runs` k-means++ / Lloyd runs by WCSS, turned into mixture
    parameters through a hard-label M step."""
    data = np.asarray(data, dtype=float)
    if len(data) < r:
        raise InputError("need at least r data points")
    best = None
    for run in range(runs):
        rng = np.random.default_rng(rng_seed + run)
        centers = _kmeans_pp_seeds(data, r, rng)
        labels, centers, wcss = _lloyd(data, centers, rng)
        if best is None or wcss < best[0]:
            best = (wcss, labels)
    return _params_from_hard_labels(data, best[1], r)


def init_random(data: np.ndarray, r: int, rng_seed: int = 0) -> GmmParams:
    """Uniform weights, means at r distinct data rows, pooled variance."""
    data = np.asarray(data, dtype=float)
    if len(data) < r:
        raise InputError("need at least r data points")
    rng = np.random.default_rng(rng_seed)
    rows = rng.choice(len(data), size=r, replace=False)
    var = max(pooled_variance(data), 1e-12)
    return GmmParams(
        weights=np.full(r, 1.0 / r),
        means=data[rows].copy(),
        variances=np.full(r, var),
    )


def init_emem(
    data: np.ndarray,
    r: int,
    short_runs: int = 50,
    short_iters: int = 5,
    rng_seed: int = 0,
) -> GmmParams:
    """emEM: short EM bursts from random starts; keep the best log-likelihood.

    Each short run starts from a uniformly random row-stochastic
    responsibility matrix (the classical random soft partition), followed by
    an M step and `short_iters` EM iterations.
    """
    data = np.asarray(data, dtype=float)
    if len(data) < r:
        raise InputError("need at least r data points")
    floor = VARIANCE_FLOOR_FRACTION * pooled_variance(data)
    best_loglik = -np.inf
    best_params = None
    for run in range(short_runs):
        rng = np.random.default_rng(rng_seed + run)
        resp = rng.uniform(size=(len(data), r))
        resp /= resp.sum(axis=1, keepdims=True)
        params = m_step(data, resp, variance_floor=floor, rng=rng)
        for _ in range(short_iters):
            resp, _ = e_step(params, data)
            params = m_step(data, resp, variance_floor=floor, rng=rng)
        _, loglik = e_step(params, data)
        if loglik > best_loglik:
            best_loglik = loglik
            best_params = params
    return best_params


def init_moments(
    data: np.ndarray, r: int, rng_seed: int = 0
) -> tuple[GmmParams, bool]:
    """Method-of-moments initializer.

    Returns (params, fallback); fallback is True when moment recovery failed
    and random seeding was substituted.
    """
    data = np.asarray(data, dtype=float)
    if r > data.shape[1]:
        raise InputError(
            f"moments initializer needs r <= m, got r={r}, m={data.shape[1]}"
        )
    try:
        moments = empirical_moments(data)
        rec = recover_parameters(moments, r)
    except (NumericalError, np.linalg.LinAlgError):
        return init_random(data, r, rng_seed=rng_seed), True
    # near-zero starting variances freeze the E-step, so floor the initializer
    # variances at a twentieth of the mixture-average variance
    fallback_var = max(1e-6, moments.sigma_bar_sq)
    variances = np.where(rec.variances <= 0, fallback_var, rec.variances)
    variances = np.maximum(variances, 0.05 * fallback_var)
    params = GmmParams(
        weights=rec.weights / rec.weights.sum(),
        means=rec.means,
        variances=variances,
    )
    return params, False
