"""Spherical Gaussian mixtures: density, sampling, EM, and EM initializers.

Four initializer strategies are provided: repeated k-means (best of 50 runs
by within-cluster sum of squares), the method of moments (tensor
decomposition of the empirical third moment), emEM (50 short 5-iteration EM
bursts, keep the best log-likelihood), and plain random seeding.

EM and k-means run on the data centered once (`_frame`), so distances and
sufficient statistics are taken about the data mean, not the origin; one
helper, `_sq_dist`, gives the squared distances to a stack of centers.  One
E-kernel and one M-kernel work on a stack of runs with responsibilities laid
out (runs, r, n): `em_fit` is one run, emEM's bursts are stacked, and
`e_step` / `m_step` are one-run wrappers with (n, r) responsibilities.
Lloyd updates all centers with one `bincount`; an empty cluster takes the
farthest point whose move empties no other cluster.
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
# responsibilities (runs x r x n) that init_emem stacks in one block
EMEM_BLOCK_ELEMENTS = 2**20


@dataclass
class GmmParams:
    """Weights on the simplex, r mean vectors, r spherical variances, all
    finite; the constructor rejects anything else."""

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
        if not all(np.isfinite(v).all() for v in (self.weights, self.means, self.variances)):
            raise InputError("mixture weights, means and variances must be finite")
        if np.any(self.weights < 0):
            raise InputError("mixture weights must be nonnegative")
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
        """Parse a mixture JSON object.  Weights that sum to within
        WEIGHT_SUM_SLACK of 1, as published four-digit weights do, are
        renormalized with a warning; the constructor checks everything."""
        try:
            obj = json.loads(text)
            weights, means, variances = (
                np.array(obj[key], dtype=float)
                for key in ("weights", "means", "variances")
            )
            total = weights.sum()
            rescale = 1e-12 < abs(total - 1.0) <= WEIGHT_SUM_SLACK
            params = cls(weights / total if rescale else weights, means, variances)
            if rescale:
                warnings.warn(f"mixture weights sum to {total:.17g}; renormalized")
            return params
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


def _frame(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, x, x_sq): the data mean c, the centered data x = data - c and its
    row norms ||x_i||^2.  The EM kernels and Lloyd take means as offsets
    from c, so that a shift of the data costs their expanded forms no digits."""
    c = data.mean(axis=0)
    x = data - c
    return c, x, np.einsum("ij,ij->i", x, x)


def _sq_dist(x: np.ndarray, x_sq: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """||x_i - o_j||^2 laid out (..., r, n) for offsets (..., r, m) from the
    center of a frame (x, x_sq), in the expanded form ||x_i||^2 - 2 x_i.o_j +
    ||o_j||^2, clamped at 0, below which rounding can take it."""
    d = offsets @ x.T
    d *= -2.0
    d += x_sq
    d += np.sum(offsets**2, axis=-1)[..., None]
    return np.maximum(d, 0.0, out=d)


def pooled_variance(data: np.ndarray) -> float:
    """(1/(n m)) sum ||x_i - xbar||^2."""
    centered = data - data.mean(axis=0)
    return float(np.sum(centered**2) / centered.size)


def _log_normalize(a: np.ndarray) -> np.ndarray:
    """Turns a (runs, r, n) array of log terms, in place, into exp(a - l) and
    returns l = log(sum(exp(a), axis=1)), (runs, n).  Each column is shifted
    by its maximum, or by 0 where that maximum is not finite, so that columns
    holding -inf, +inf or NaN give what scipy's logsumexp does, without a
    RuntimeWarning."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        top = a.max(axis=1)
        top[~np.isfinite(top)] = 0.0
        a -= top[:, None, :]
        total = np.exp(a, out=a).sum(axis=1)
        a /= total[:, None, :]
        return np.log(total) + top


def _e_kernel(x: np.ndarray, x_sq: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """E step of a stack of runs on a frame (x, x_sq).  step holds the
    weights (runs, r), the offsets (runs, r, m) of the means from the frame's
    center and the variances (runs, r).  Returns the responsibilities
    (runs, r, n) and the log-likelihoods (runs,).  Each run is its own
    matrix product, so a run's result does not depend on the stack."""
    weights, offsets, variances = step
    # log w_j - m/2 log(2 pi s_j) - ||x_i - o_j||^2 / (2 s_j)
    a = _sq_dist(x, x_sq, offsets)
    a *= (-0.5 / variances)[..., None]
    a += (np.log(weights) - 0.5 * x.shape[1] * (LOG_2PI + np.log(variances)))[..., None]
    return a, _log_normalize(a).sum(axis=1)


def _reseed_empty(resp: np.ndarray, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Moves a random data row into each empty component of one run's (r, n)
    responsibilities, in place, and returns their new row sums.  A drawn row
    whose move would empty another component (a row reseeded just before
    included) is drawn again while any other row can move."""
    n = resp.shape[1]
    empty = counts < 1e-10 * n
    for j in np.flatnonzero(empty):
        movable = ~np.any((counts[:, None] - resp < 1e-10 * n) & ~empty[:, None], axis=0)
        i = int(rng.integers(n))
        while not movable[i] and movable.any():
            i = int(rng.integers(n))
        counts -= resp[:, i]
        counts[j] += 1.0
        empty[j] = False
        resp[:, i] = 0.0
        resp[j, i] = 1.0
    return resp.sum(axis=1)


def _m_kernel(x: np.ndarray, x_sq: np.ndarray, resp: np.ndarray, variance_floor: float, rngs):
    """M step of a stack of runs from responsibilities (runs, r, n) on a
    frame (x, x_sq); returns the step _e_kernel takes.  A run with an empty
    component is reseeded in resp, in place, on its Generator in rngs.

    With o_j = sum_i r_ij x_i / N_j, m N_j s_j^2 = sum_i r_ij ||x_i||^2 -
    N_j ||o_j||^2.  Against direct differences, s_j^2's relative error grows
    as eps * ||o_j||^2 / s_j^2 (2e-10 at 1e6, 5e-6 at 1e10)."""
    r, n = resp.shape[1:]
    if n < r:
        raise InputError(f"m_step needs n >= r rows, got n={n}, r={r}")
    counts = resp.sum(axis=2)
    for k in np.flatnonzero(np.any(counts < 1e-10 * n, axis=1)):
        counts[k] = _reseed_empty(resp[k], counts[k], rngs[k])
    offsets = (resp @ x) / counts[..., None]
    variances = (resp @ x_sq - counts * np.sum(offsets**2, axis=2)) / (x.shape[1] * counts)
    weights = counts / n
    weights /= weights.sum(axis=1, keepdims=True)
    return weights, offsets, np.maximum(variances, max(variance_floor, 1e-300))


def _as_step(params: GmmParams, c: np.ndarray) -> tuple:
    """params as a one-run step about the center c."""
    return params.weights[None], (params.means - c)[None], params.variances[None]


def _run_params(step: tuple, c: np.ndarray, k: int = 0) -> GmmParams:
    """Run k of a step as GmmParams, its means moved back from the center c."""
    weights, offsets, variances = step
    return GmmParams(weights=weights[k], means=offsets[k] + c, variances=variances[k])


def e_step(params: GmmParams, data: np.ndarray) -> tuple[np.ndarray, float]:
    """Responsibilities, (n, r) and row-stochastic, and total log-likelihood."""
    c, x, x_sq = _frame(np.asarray(data, dtype=float))
    resp, loglik = _e_kernel(x, x_sq, _as_step(params, c))
    return resp[0].T, float(loglik[0])


def m_step(
    data: np.ndarray,
    resp: np.ndarray,
    variance_floor: float | None = None,
    rng: np.random.Generator | None = None,
) -> GmmParams:
    """Weighted-statistics update from (n, r) responsibilities; empty
    components are reseeded at a random data row (_reseed_empty).  Needs at
    least as many rows as components."""
    c, x, x_sq = _frame(np.asarray(data, dtype=float))
    if variance_floor is None:
        variance_floor = VARIANCE_FLOOR_FRACTION * x_sq.sum() / x.size
    rng = rng if rng is not None else np.random.default_rng(0)
    step = _m_kernel(x, x_sq, np.array(resp.T, dtype=float)[None], variance_floor, [rng])
    return _run_params(step, c)


def em_fit(
    data: np.ndarray,
    r: int,
    init: GmmParams,
    max_iter: int = 100,
    tol: float = DEFAULT_TOL,
    rng_seed: int | np.random.Generator = 0,
) -> EmResult:
    """Standard EM loop; stops on relative log-likelihood improvement < tol.
    `rng_seed`, a seed or a Generator, draws the empty-component reseeds.
    The steps run on the data centered once.  The hard labels take the
    smallest signed integer type that holds r."""
    data = np.asarray(data, dtype=float)
    if init.n_components != r or init.dim != data.shape[1]:
        raise InputError("initializer shape does not match (r, m)")
    c, x, x_sq = _frame(data)
    floor = VARIANCE_FLOOR_FRACTION * x_sq.sum() / x.size
    rngs = [np.random.default_rng(rng_seed)]
    params = init
    resp, loglik = _e_kernel(x, x_sq, _as_step(init, c))
    trace = [float(loglik[0])]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        step = _m_kernel(x, x_sq, resp, floor, rngs)
        params = _run_params(step, c)
        resp, loglik = _e_kernel(x, x_sq, step)
        trace.append(float(loglik[0]))
        if abs(trace[-1] - trace[-2]) < tol * max(abs(trace[-2]), 1.0):
            converged = True
            break
    labels = np.argmax(resp[0], axis=0).astype(np.min_scalar_type(-r))
    return EmResult(params, trace, iterations=it, converged=converged, hard_labels=labels)


# ---------------------------------------------------------------------------
# Initializers
# ---------------------------------------------------------------------------


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
    x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray, max_iter: int = 100
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations on a frame (x, x_sq) from `centers`, offsets (r, m)
    from the frame's center.  Each empty cluster, in index order, takes the
    point farthest from its own center among those whose move empties no
    other cluster (so no point is taken twice); n >= r leaves one to take.
    Returns (labels, centers, within-cluster sum of squares)."""
    (n, m), r = x.shape, len(centers)
    rows = np.arange(n)
    labels = np.full(n, -1)
    for _ in range(max_iter):
        dists = _sq_dist(x, x_sq, centers)
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
    dists = _sq_dist(x, x_sq, centers)
    labels = np.argmin(dists, axis=0)
    return labels, centers, float(dists[labels, rows].sum())


def init_kmeans(
    data: np.ndarray, r: int, runs: int = 50, rng_seed: int = 0
) -> GmmParams:
    """Best of `runs` k-means++ / Lloyd runs by WCSS, turned into mixture
    parameters through a hard-label M step.  Seeding and Lloyd run on the
    data centered once (`_frame`)."""
    data = np.asarray(data, dtype=float)
    if not 1 <= r <= len(data):
        raise InputError(f"r={r} must lie in [1, n={len(data)}]")
    _, x, x_sq = _frame(data)
    best = None
    for run in range(runs):
        rng = np.random.default_rng(rng_seed + run)
        centers = _kmeans_pp_seeds(x, r, rng)
        labels, centers, wcss = _lloyd(x, x_sq, centers)
        if best is None or wcss < best[0]:
            best = (wcss, labels)
    return m_step(data, np.eye(r)[best[1]])


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

    Burst `run` draws on its own Generator, default_rng(rng_seed + run), a
    uniformly random row-stochastic responsibility matrix (the classical
    random soft partition) and any reseeds of its M step and `short_iters`
    E/M steps.  The first burst with the highest final log-likelihood wins.
    The bursts run stacked, EMEM_BLOCK_ELEMENTS responsibilities at a time.
    """
    data = np.asarray(data, dtype=float)
    n = len(data)
    if not 1 <= r <= n:
        raise InputError(f"r={r} must lie in [1, n={n}]")
    c, x, x_sq = _frame(data)
    floor = VARIANCE_FLOOR_FRACTION * x_sq.sum() / x.size
    block = max(1, EMEM_BLOCK_ELEMENTS // (r * n))
    best_loglik, best = -np.inf, None
    for first in range(0, short_runs, block):
        runs = range(first, min(first + block, short_runs))
        rngs = [np.random.default_rng(rng_seed + run) for run in runs]
        resp = np.empty((len(rngs), r, n))
        for k, rng in enumerate(rngs):
            start = rng.uniform(size=(n, r))
            resp[k] = (start / start.sum(axis=1, keepdims=True)).T
        step = _m_kernel(x, x_sq, resp, floor, rngs)
        for _ in range(short_iters):
            step = _m_kernel(x, x_sq, _e_kernel(x, x_sq, step)[0], floor, rngs)
        for k, loglik in enumerate(_e_kernel(x, x_sq, step)[1]):
            if loglik > best_loglik:
                best_loglik, best = loglik, (step, k)
    return _run_params(best[0], c, best[1])


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
