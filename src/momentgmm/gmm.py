"""Spherical Gaussian mixtures: density, sampling, EM, and EM initializers.

Four initializers: repeated k-means (best of 50 runs by within-cluster sum
of squares), the method of moments (tensor decomposition of the empirical
third moment), emEM (50 short 5-iteration EM bursts, keep the best
log-likelihood) and plain random seeding.

Every entry point checks and centers its data through `_frame`, or takes a
`moments.Frame` in its place, so that a fit frames its data once for its
initializer and EM; distances and statistics are about the data mean.
`_affine` maps (x_i, ||x_i||^2, 1) by one product a run with the frame's z:
the E-kernel's log terms and k-means++' squared distances (`_sq_dist`); the
M-kernel is one product with z^T, Lloyd two.  `_em_loop` runs a stack of EM
runs laid out (runs, r, n), each leaving it at its own tolerance: `em_fits`
stacks starts, `em_fit` is one run, emEM's bursts run EMEM_BURST_ITERS steps
at tol = 0.  A stacked run, as k-means' restarts, does the arithmetic it does
alone, bit for bit.  k-means and emEM draw restarts from `_restarts` in
RESTART_BLOCK_ELEMENTS blocks; k-means ends on `m_step`.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .moments import Frame, _frame, recover_from_data

LOG_2PI = float(np.log(2.0 * np.pi))
DEFAULT_TOL = 1e-8  # EM stops on a relative log-likelihood change below this
EMEM_BURST_ITERS = 5  # E/M steps of each short emEM burst
VARIANCE_FLOOR_FRACTION = 1e-8
WEIGHT_SUM_SLACK = 1e-3
# entries of the largest array that init_kmeans and init_emem stack in one
# block of restarts: (runs x r x n) responsibilities, or Lloyd's ranks and
# one-hot assignments
RESTART_BLOCK_ELEMENTS = 2**20


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
        return json.dumps({k: getattr(self, k).tolist() for k in ("weights", "means", "variances")})

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


def _affine(z: np.ndarray, lin: np.ndarray, quad: np.ndarray, const: np.ndarray) -> np.ndarray:
    """lin_j . x_i + quad_j ||x_i||^2 + const_j laid out (..., r, n), for lin
    (..., r, m), quad and const (..., r), on a frame's z: one product a run."""
    return np.concatenate([lin, quad[..., None], const[..., None]], axis=-1) @ z


def _sq_dist(z: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """||x_i - o_j||^2 laid out (..., r, n) for offsets (..., r, m) from the
    center of a frame's z, in the expanded form ||x_i||^2 - 2 x_i.o_j +
    ||o_j||^2, clamped at 0, below which rounding can take it."""
    d = _affine(z, offsets * -2.0, np.ones(offsets.shape[:-1]), np.sum(offsets**2, axis=-1))
    return np.maximum(d, 0.0, out=d)


def pooled_variance(data: np.ndarray | Frame) -> float:
    """(1/(n m)) sum ||x_i - xbar||^2 of a sample, checked by `_frame`, or a Frame."""
    frame = _frame(data)
    return float(frame.x_sq.sum() / frame.x.size)


def _variance_floor(z: np.ndarray) -> float:
    """The default variance floor of a frame's z, a fraction of its pooled variance."""
    return VARIANCE_FLOOR_FRACTION * z[-2].sum() / (z.shape[1] * (len(z) - 2))


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


def _e_kernel(z: np.ndarray, step) -> tuple[np.ndarray, np.ndarray]:
    """E step of a stack of runs on a frame's z.  step holds the weights
    (runs, r), the offsets (runs, r, m) of the means from the frame's center
    and the variances (runs, r).  Returns the responsibilities (runs, r, n)
    and the log-likelihoods (runs,).  The log terms, log w_j - m/2 log(2 pi
    s_j) - ||x_i - o_j||^2 / (2 s_j) expanded, are one `_affine` product a run."""
    weights, offsets, variances = step
    half = 0.5 / variances
    const = (np.log(weights) - 0.5 * (len(z) - 2) * (LOG_2PI + np.log(variances))
             - half * np.sum(offsets**2, axis=-1))
    a = _affine(z, offsets / variances[..., None], -half, const)
    return a, _log_normalize(a).sum(axis=1)


def _reseed_empty(resp: np.ndarray, counts: np.ndarray, rng: np.random.Generator) -> None:
    """Moves a random data row into each empty component of one run's (r, n)
    responsibilities, with row sums `counts`, both in place.  A drawn row
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


def _m_kernel(z: np.ndarray, resp: np.ndarray, variance_floor: float, rngs):
    """M step of a stack of runs from responsibilities (runs, r, n) on a
    frame's z; returns the step _e_kernel takes.  resp z^T sums r_ij x_i,
    r_ij ||x_i||^2 and r_ij; a run with an empty component is reseeded in
    resp, in place, on its Generator in rngs, and redoes its own product.

    With o_j = sum_i r_ij x_i / N_j, m N_j s_j^2 = sum_i r_ij ||x_i||^2 -
    N_j ||o_j||^2.  Against direct differences, s_j^2's relative error grows
    as eps * ||o_j||^2 / s_j^2 (2e-10 at 1e6, 5e-6 at 1e10)."""
    r, n = resp.shape[1:]
    if n < r:
        raise InputError(f"m_step needs n >= r rows, got n={n}, r={r}")
    sums = resp @ z.T
    for k in np.flatnonzero(np.any(sums[..., -1] < 1e-10 * n, axis=1)):
        _reseed_empty(resp[k], sums[k, :, -1], rngs[k])
        sums[k] = resp[k] @ z.T
    counts = sums[..., -1]
    offsets = sums[..., :-2] / counts[..., None]
    variances = (sums[..., -2] - counts * np.sum(offsets**2, axis=2)) / ((len(z) - 2) * counts)
    weights = counts / n
    weights /= weights.sum(axis=1, keepdims=True)
    return weights, offsets, np.maximum(variances, max(variance_floor, 1e-300))


def _as_step(params: GmmParams, c: np.ndarray) -> tuple:
    """params as a one-run step about the center c."""
    if params.dim != len(c):
        raise InputError(f"params are {params.dim}-dimensional, the data {len(c)}-dimensional")
    return params.weights[None], (params.means - c)[None], params.variances[None]


def _run_params(step: tuple, c: np.ndarray) -> GmmParams:
    """A one-run step as GmmParams, its means moved back from the center c."""
    weights, offsets, variances = step
    return GmmParams(weights=weights[0], means=offsets[0] + c, variances=variances[0])


def _em_loop(z, step, variance_floor, rngs, max_iter, tol):
    """EM of a stack of runs on a frame's z: an E step of `step`, then
    up to max_iter M/E pairs; run k reseeds on rngs[k] and leaves the stack,
    as in Lloyd, once its log-likelihood changes by less than tol relative
    (never at tol = 0).  Returns per run its last step as a one-run stack,
    its (r, n) responsibilities, its E steps' log-likelihoods as Python
    floats and whether tol stopped it."""
    resp, loglik = _e_kernel(z, step)
    runs, traces, out = list(range(len(rngs))), [[] for _ in rngs], [None] * len(rngs)
    while True:
        moving = []
        for i, (k, value) in enumerate(zip(runs, loglik.tolist())):
            trace = traces[k]
            trace.append(value)
            converged = len(trace) > 1 and abs(value - trace[-2]) < tol * max(abs(trace[-2]), 1.0)
            if converged or len(trace) > max_iter:
                out[k] = (tuple(a[i : i + 1] for a in step), resp[i], trace, converged)
            else:
                moving.append(i)
        if not moving:
            return out
        if len(moving) < len(runs):
            runs = [runs[i] for i in moving]
            step, resp = tuple(a[moving] for a in step), resp[moving]
        step = _m_kernel(z, resp, variance_floor, [rngs[k] for k in runs])
        resp, loglik = _e_kernel(z, step)


def e_step(params: GmmParams, data: np.ndarray) -> tuple[np.ndarray, float]:
    """Responsibilities, (n, r) and row-stochastic, and total log-likelihood."""
    _, c, z = _frame(data)
    resp, loglik = _e_kernel(z, _as_step(params, c))
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
    _, c, z = _frame(data)
    if np.ndim(resp) != 2 or len(resp) != len(z[0]):
        raise InputError(f"resp must be an n x r matrix with n = {len(z[0])}, got {np.shape(resp)}")
    if variance_floor is None:
        variance_floor = _variance_floor(z)
    rng = rng if rng is not None else np.random.default_rng(0)
    step = _m_kernel(z, np.array(resp.T, dtype=float)[None], variance_floor, [rng])
    return _run_params(step, c)


def em_fits(
    data: np.ndarray | Frame, r: int, inits: list[GmmParams], max_iter: int = 100, rng_seed: int = 0
) -> list[EmResult]:
    """EM from each start in `inits`, stacked on one frame.  Each run reseeds
    on its own default_rng(rng_seed) and stops on its own test, so it gives
    what `em_fit` gives from its start alone, bit for bit.  Hard labels, the
    argmax of the last responsibilities (_log_normalize leaves a column
    NaN-free or all NaN, label 0 either way), take the smallest signed
    integer type that holds r."""
    _, c, z = _frame(data)
    if any(init.n_components != r for init in inits):
        raise InputError(f"every start must have r={r} components")
    if not inits:
        return []
    floor = _variance_floor(z)
    step = tuple(map(np.concatenate, zip(*[_as_step(init, c) for init in inits])))
    rngs = [np.random.default_rng(rng_seed) for _ in inits]
    kind = np.min_scalar_type(-r).type
    fits = []
    for init, (run_step, resp, trace, converged) in zip(
        inits, _em_loop(z, step, floor, rngs, max_iter, DEFAULT_TOL)
    ):
        params = init if len(trace) == 1 else _run_params(run_step, c)
        labels, _ = _first_best(resp[None], kind, np.greater)
        fits.append(EmResult(params, trace, len(trace) - 1, converged, labels[0]))
    return fits


def em_fit(
    data: np.ndarray | Frame, r: int, init: GmmParams, max_iter: int = 100, rng_seed: int = 0
) -> EmResult:
    """Standard EM loop, the one-run case of `em_fits`; stops on relative
    log-likelihood improvement < DEFAULT_TOL.  `rng_seed` draws the
    empty-component reseeds."""
    return em_fits(data, r, [init], max_iter, rng_seed)[0]


# ---------------------------------------------------------------------------
# Initializers
# ---------------------------------------------------------------------------


def _restarts(r: int, n: int, runs: int, per_run: int, rng_seed: int, name: str):
    """Checks 1 <= r <= n and runs >= 1 (the parameter `name`), then yields the
    Generators default_rng(rng_seed + run) of restarts 0 .. runs-1 in blocks of
    RESTART_BLOCK_ELEMENTS entries of their largest arrays, per_run a run."""
    if not 1 <= r <= n:
        raise InputError(f"r={r} must lie in [1, n={n}]")
    if runs < 1:
        raise InputError(f"{name}={runs} must be >= 1")
    block = max(1, RESTART_BLOCK_ELEMENTS // per_run)
    for first in range(0, runs, block):
        stack = range(first, min(first + block, runs))
        yield [np.random.default_rng(rng_seed + run) for run in stack]


def _kmeans_pp_seeds(z: np.ndarray, r: int, rngs) -> np.ndarray:
    """k-means++ centers (runs, r, m) on a frame's z, run k drawn on its
    Generator rngs[k] with the calls of a run seeded alone; a row is the one
    rng.choice(n, p=...) draws, the count of cdf / cdf[-1] <= u (searchsorted
    on the monotone CDF), found for all runs at once.  The distances to the
    nearest center so far come from _sq_dist.  In its expanded form a row's
    distance to itself is up to about 1.2e-15 ||x_i||^2 (measured at m = 2-30;
    m = 1 is exact), so a chosen row keeps a weight at rounding level."""
    x, n = z[:-2].T, z.shape[1]
    centers = np.empty((len(rngs), r, len(z) - 2))
    centers[:, 0] = x[[rng.integers(n) for rng in rngs]]
    closest = _sq_dist(z, centers[:, :1])[:, 0]
    for j in range(1, r):
        cdf = np.cumsum(closest, axis=1)
        drawn = cdf[:, -1] > 0
        u = np.array([rng.random() if d else rng.integers(n) for rng, d in zip(rngs, drawn)])
        below = np.count_nonzero(cdf / np.where(drawn, cdf[:, -1], 1.0)[:, None] <= u[:, None], 1)
        centers[:, j] = x[np.where(drawn, below, u).astype(np.intp)]
        np.minimum(closest, _sq_dist(z, centers[:, j : j + 1])[:, 0], out=closest)
    return centers


def _first_best(d: np.ndarray, kind, better=np.less) -> tuple[np.ndarray, np.ndarray]:
    """Index, of integer type `kind`, and value of the smallest of the r
    slices of d (runs, r, n), or the largest for better=np.greater, the first
    on ties as argmin and argmax give it, by a running comparison: argmin or
    argmax along the short middle axis costs several times more."""
    keep = np.minimum if better is np.less else np.maximum
    labels = np.zeros((len(d), d.shape[2]), dtype=kind)
    best = d[:, 0].copy()
    for j in range(1, d.shape[1]):
        # every label is below j here, so this sets j where d[:, j] is better
        np.maximum(labels, better(d[:, j], best) * kind(j), out=labels)
        keep(best, d[:, j], out=best)
    return labels, best


def _lloyd(
    z: np.ndarray, centers: np.ndarray, max_iter: int = 100
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations of a stack of runs on a frame's z from
    `centers`, offsets (runs, r, m) from the frame's center.  Each empty
    cluster, in index order, takes the point farthest from its own center
    among those whose move empties no other cluster (so no point is taken
    twice); n >= r leaves one to take.  A run stops once its labels do not
    change.  An iteration is two matrix products a run: one ranks the centers
    by ||c_j||^2 - 2 x_i.c_j (only the nearest takes ||x_i||^2 and the clamp
    at 0), the other multiplies the C-ordered float one-hot (runs, r, n) of
    the assignment by x, over its row sums, for the new centers.  Returns
    labels (runs, n) of the smallest unsigned type that holds r - 1, centers
    and within-cluster sums of squares (runs,)."""
    runs, r = centers.shape[:2]
    kind = np.min_scalar_type(r - 1).type
    xt, x_sq, clusters = z[:-2], z[-2], np.arange(r, dtype=kind)[:, None]

    def nearest(offsets):
        rank = (offsets * -2.0) @ xt
        rank += np.sum(offsets**2, axis=-1)[..., None]
        labels, best = _first_best(rank, kind)
        best += x_sq
        return labels, np.maximum(best, 0.0, out=best)

    centers = centers.copy()
    active, labels = np.arange(runs), None
    for _ in range(max_iter):
        new_labels, closest = nearest(centers[active])
        onehot = (new_labels[:, None, :] == clusters).astype(float)
        counts = onehot.sum(axis=2)
        for k in np.flatnonzero(np.any(counts == 0, axis=1)):
            for j in np.flatnonzero(counts[k] == 0):
                movable = counts[k, new_labels[k]] > 1
                far = int(np.argmax(np.where(movable, closest[k], -1.0)))
                onehot[k, new_labels[k, far], far], onehot[k, j, far] = 0.0, 1.0
                new_labels[k, far] = j
                counts[k] = onehot[k].sum(axis=1)
        centers[active] = (onehot @ xt.T) / counts[..., None]
        moved = np.any(new_labels != labels, axis=1) if labels is not None else slice(None)
        labels, active = new_labels[moved], active[moved]
        if not active.size:
            break
    labels, closest = nearest(centers)
    return labels, centers, closest.sum(axis=1)


def init_kmeans(
    data: np.ndarray | Frame, r: int, runs: int = 50, rng_seed: int = 0
) -> GmmParams:
    """Best of `runs` k-means++ / Lloyd runs by WCSS, turned into mixture
    parameters by `m_step` of its hard labels on the same frame.  Run `run`
    seeds on its own Generator, default_rng(rng_seed + run), and the first
    run with the least WCSS wins.  Seeding and Lloyd run on the data centered
    once (`_frame`), stacked, in the blocks of `_restarts`."""
    frame = _frame(data)
    n, best_wcss, best = len(frame.data), np.inf, None
    for rngs in _restarts(r, n, runs, r * n, rng_seed, "runs"):
        labels, _, wcss = _lloyd(frame.z, _kmeans_pp_seeds(frame.z, r, rngs))
        for k, run_wcss in enumerate(wcss):
            if best is None or run_wcss < best_wcss:
                best_wcss, best = run_wcss, labels[k]
    return m_step(frame, np.eye(r)[best])


def init_random(data: np.ndarray | Frame, r: int, rng_seed: int = 0) -> GmmParams:
    """Uniform weights, means at r distinct data rows, pooled variance."""
    frame = _frame(data)
    if not 1 <= r <= len(frame.data):
        raise InputError(f"r={r} must lie in [1, n={len(frame.data)}]")
    rows = np.random.default_rng(rng_seed).choice(len(frame.data), size=r, replace=False)
    var = max(pooled_variance(frame), 1e-12)
    return GmmParams(weights=np.full(r, 1.0 / r), means=frame.data[rows], variances=np.full(r, var))


def init_emem(
    data: np.ndarray | Frame, r: int, short_runs: int = 50, rng_seed: int = 0
) -> GmmParams:
    """emEM: short EM bursts from random starts; keep the best log-likelihood.

    Burst `run` draws on its own Generator, default_rng(rng_seed + run), a
    uniformly random row-stochastic responsibility matrix (the classical
    random soft partition) and any reseeds of its M step and EMEM_BURST_ITERS
    E/M steps.  The first burst with the highest final log-likelihood wins.
    The bursts run stacked, RESTART_BLOCK_ELEMENTS responsibilities at a time.
    """
    _, c, z = _frame(data)
    n = z.shape[1]
    floor = _variance_floor(z)
    best_loglik, best = -np.inf, None
    for rngs in _restarts(r, n, short_runs, r * n, rng_seed, "short_runs"):
        resp = np.empty((len(rngs), r, n))
        for k, rng in enumerate(rngs):
            start = rng.uniform(size=(n, r))
            resp[k] = (start / start.sum(axis=1, keepdims=True)).T
        step = _m_kernel(z, resp, floor, rngs)
        for run_step, _, trace, _ in _em_loop(z, step, floor, rngs, EMEM_BURST_ITERS, tol=0.0):
            if trace[-1] > best_loglik:
                best_loglik, best = trace[-1], run_step
    return _run_params(best, c)


def init_moments(
    data: np.ndarray | Frame, r: int, rng_seed: int = 0
) -> tuple[GmmParams, bool]:
    """Method-of-moments initializer.

    Returns (params, fallback); fallback is True when moment recovery failed
    and random seeding was substituted.  `rng_seed` seeds only that random
    fallback: the pencil draws of the decomposition always use `decompose`'s
    default rng_seed, 0, so every seed gives the same start on the same data.
    """
    frame = _frame(data)
    if not 1 <= r <= frame.x.shape[1]:
        raise InputError(f"moments initializer needs n x m data and 1 <= r <= m, got r={r}")
    try:
        rec, sigma_bar_sq = recover_from_data(frame, r)
    except (NumericalError, np.linalg.LinAlgError):
        return init_random(frame, r, rng_seed=rng_seed), True
    # near-zero starting variances freeze the E-step, so floor the initializer
    # variances at a twentieth of the mixture-average variance, which
    # recovery has already put in place of non-positive ones
    floor = 0.05 * max(1e-6, sigma_bar_sq)
    variances = np.maximum(rec.variances, floor)
    params = GmmParams(
        weights=rec.weights / rec.weights.sum(),
        means=rec.means,
        variances=variances,
    )
    return params, False
