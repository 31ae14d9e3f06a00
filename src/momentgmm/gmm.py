"""Spherical Gaussian mixtures: density, sampling, EM, and EM initializers.

Four initializer strategies are provided: repeated k-means (best of 50 runs
by within-cluster sum of squares), the method of moments (tensor
decomposition of the empirical third moment), emEM (50 short 5-iteration EM
bursts, keep the best log-likelihood), and plain random seeding.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .moments import empirical_moments, recover_parameters

LOG_2PI = float(np.log(2.0 * np.pi))
DEFAULT_TOL = 1e-8
VARIANCE_FLOOR_FRACTION = 1e-8
WEIGHT_SUM_SLACK = 1e-3


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
        if not np.all(self.variances > 0):
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
        """Parse a mixture JSON object.  Non-finite entries and negative
        weights are rejected.  Weights that sum to within WEIGHT_SUM_SLACK of
        1, as published four-digit weights do, are renormalized with a
        warning; larger deviations are rejected."""
        try:
            obj = json.loads(text)
            weights, means, variances = (
                np.array(obj[key], dtype=float)
                for key in ("weights", "means", "variances")
            )
            if not all(np.isfinite(v).all() for v in (weights, means, variances)):
                raise InputError("mixture weights, means and variances must be finite")
            if np.any(weights < 0):
                raise InputError("mixture weights must be nonnegative")
            total = weights.sum()
            if 1e-12 < abs(total - 1.0) <= WEIGHT_SUM_SLACK:
                warnings.warn(f"mixture weights sum to {total:.17g}; renormalized")
                weights = weights / total
            return cls(weights, means, variances)
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed mixture JSON: {exc}") from exc


@dataclass
class EmResult:
    params: GmmParams
    loglik_trace: list[float]
    iterations: int
    converged: bool
    hard_labels: np.ndarray


def _sq_dist(data: np.ndarray, data_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """n x r matrix of ||x_i - c_j||^2 in the expanded form
    ||x||^2 - 2 x.c + ||c||^2, which can dip below zero by rounding;
    `data_sq` is np.sum(data**2, axis=1)."""
    return (
        data_sq[:, None]
        - 2.0 * data @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a real 2-D array, each row shifted by its
    maximum, or by 0 where that maximum is not finite, so that rows holding
    -inf, +inf or NaN give what scipy's logsumexp does, without a
    RuntimeWarning.  The work runs on a C-ordered copy of a.T, so that each
    reduction is a few length-n vector ops."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # np.array copies even where a.T is already contiguous (r = 1)
        cols = np.array(a.T, order="C")
        top = cols.max(axis=0)
        top[~np.isfinite(top)] = 0.0
        cols -= top
        return np.log(np.exp(cols, out=cols).sum(axis=0)) + top


def _log_component_matrix(params: GmmParams, data: np.ndarray) -> np.ndarray:
    """n x r matrix of log(w_j) + log N(x_i | mu_j, s_j^2 I)."""
    sq_dist = np.maximum(_sq_dist(data, np.sum(data**2, axis=1), params.means), 0.0)
    return (
        np.log(params.weights)[None, :]
        - 0.5 * params.dim * (LOG_2PI + np.log(params.variances))[None, :]
        - 0.5 * sq_dist / params.variances[None, :]
    )


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
    log_norm = _row_logsumexp(log_comp)
    return np.exp(log_comp - log_norm[:, None]), float(np.sum(log_norm))


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
    data point.  A drawn row whose move would empty another component (a row
    reseeded just before included) is drawn again while any other row can
    move.  Needs at least as many rows as components.

    About the data mean c, with o_j = sum_i r_ij (x_i - c) / N_j: mu_j = c + o_j
    and m N_j s_j^2 = sum_i r_ij ||x_i - c||^2 - N_j ||o_j||^2.  Against direct
    differences, s_j^2's relative error grows as eps * ||mu_j - c||^2 / s_j^2
    (2e-10 at 1e6, 5e-6 at 1e10)."""
    data = np.asarray(data, dtype=float)
    n, m = data.shape
    r = resp.shape[1]
    if n < r:
        raise InputError(f"m_step needs n >= r rows, got n={n}, r={r}")
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
    c = data.mean(axis=0)
    centered = data - c
    offsets = (resp.T @ centered) / counts[:, None]
    means = offsets + c
    sq_norms = np.einsum("ij,ij->i", centered, centered)
    variances = (sq_norms @ resp - counts * np.sum(offsets**2, axis=1)) / (m * counts)
    variances = np.maximum(variances, max(variance_floor, 1e-300))
    weights = weights / weights.sum()
    return GmmParams(weights=weights, means=means, variances=variances)


def em_fit(
    data: np.ndarray,
    r: int,
    init: GmmParams,
    max_iter: int = 100,
    tol: float = DEFAULT_TOL,
    rng_seed: int | np.random.Generator = 0,
) -> EmResult:
    """Standard EM loop; stops on relative log-likelihood improvement < tol.
    `rng_seed`, a seed or a Generator, draws the empty-component reseeds."""
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
    data: np.ndarray, data_sq: np.ndarray, centers: np.ndarray, max_iter: int = 100
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations from `centers`; `data_sq` is np.sum(data**2, axis=1).
    Empty clusters are reseeded at the farthest point.
    Returns (labels, centers, within-cluster sum of squares)."""
    (n, m), r = data.shape, len(centers)
    rows = np.arange(n)
    labels = np.full(n, -1)
    for _ in range(max_iter):
        dists = _sq_dist(data, data_sq, centers)
        new_labels = np.argmin(dists, axis=1)
        counts = np.bincount(new_labels, minlength=r)
        if counts.all() and m > 1:
            # bincount adds each (cluster, column) bin in row order from 0.0,
            # as data[new_labels == j].mean(axis=0) does when m > 1
            bins = (new_labels * m)[:, None] + np.arange(m)
            sums = np.bincount(bins.ravel(), weights=data.ravel(), minlength=r * m)
            centers = sums.reshape(r, m) / counts[:, None]
        else:
            closest = dists[rows, new_labels]
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
    dists = _sq_dist(data, data_sq, centers)
    labels = np.argmin(dists, axis=1)
    wcss = float(np.sum(dists[rows, labels]))
    return labels, centers, wcss


def init_kmeans(
    data: np.ndarray, r: int, runs: int = 50, rng_seed: int = 0
) -> GmmParams:
    """Best of `runs` k-means++ / Lloyd runs by WCSS, turned into mixture
    parameters through a hard-label M step."""
    data = np.asarray(data, dtype=float)
    if not 1 <= r <= len(data):
        raise InputError(f"r={r} must lie in [1, n={len(data)}]")
    data_sq = np.sum(data**2, axis=1)
    best = None
    for run in range(runs):
        rng = np.random.default_rng(rng_seed + run)
        centers = _kmeans_pp_seeds(data, r, rng)
        labels, centers, wcss = _lloyd(data, data_sq, centers)
        if best is None or wcss < best[0]:
            best = (wcss, labels)
    return _params_from_hard_labels(data, best[1], r)


def init_random(data: np.ndarray, r: int, rng_seed: int = 0) -> GmmParams:
    """Uniform weights, means at r distinct data rows, pooled variance."""
    data = np.asarray(data, dtype=float)
    if not 1 <= r <= len(data):
        raise InputError(f"r={r} must lie in [1, n={len(data)}]")
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
    an M step and `short_iters` `em_fit` iterations with tol=0, all on one rng.
    """
    data = np.asarray(data, dtype=float)
    if not 1 <= r <= len(data):
        raise InputError(f"r={r} must lie in [1, n={len(data)}]")
    floor = VARIANCE_FLOOR_FRACTION * pooled_variance(data)
    best_loglik = -np.inf
    best_params = None
    for run in range(short_runs):
        rng = np.random.default_rng(rng_seed + run)
        resp = rng.uniform(size=(len(data), r))
        resp /= resp.sum(axis=1, keepdims=True)
        start = m_step(data, resp, variance_floor=floor, rng=rng)
        fit = em_fit(data, r, start, max_iter=short_iters, tol=0.0, rng_seed=rng)
        if fit.loglik_trace[-1] > best_loglik:
            best_loglik = fit.loglik_trace[-1]
            best_params = fit.params
    return best_params


def init_moments(
    data: np.ndarray, r: int, rng_seed: int = 0
) -> tuple[GmmParams, bool]:
    """Method-of-moments initializer.

    Returns (params, fallback); fallback is True when moment recovery failed
    and random seeding was substituted.
    """
    data = np.asarray(data, dtype=float)
    if not 1 <= r <= data.shape[1]:
        raise InputError(
            f"moments initializer needs 1 <= r <= m, got r={r}, m={data.shape[1]}"
        )
    try:
        moments = empirical_moments(data)
        rec = recover_parameters(moments, r)
    except (NumericalError, np.linalg.LinAlgError):
        return init_random(data, r, rng_seed=rng_seed), True
    # near-zero starting variances freeze the E-step, so floor the initializer
    # variances at a twentieth of the mixture-average variance, which
    # recover_parameters has already put in place of non-positive ones
    floor = 0.05 * max(1e-6, moments.sigma_bar_sq)
    variances = np.maximum(rec.variances, floor)
    params = GmmParams(
        weights=rec.weights / rec.weights.sum(),
        means=rec.means,
        variances=variances,
    )
    return params, False
