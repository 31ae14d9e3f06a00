"""Waring decomposition of identifiable symmetric tensors.

Pipeline: SVD of a Hankel matrix to get an orthonormal basis U of its column
space, slice U by variable-divisibility into a matrix pencil, simultaneously
diagonalize the pencil with a random two-vector combination to read off the
decomposition points, then solve a linear system for the weights.  An
optional damped Gauss-Newton pass polishes noisy decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .hankel import HankelMatrix, hankel
from .symtensor import (
    SymmetricTensor,
    WaringDecomposition,
    apolar_norm,
    evaluation_matrix,
    exponent_matrix,
    multinomial_weights,
    num_coeffs,
    pow_linear,  # noqa: F401  perfbench/smoke.py checks the tracer wraps it here
    reconstruct,
    sum_index,
)

MAX_PENCIL_RETRIES = 5
EIGENVALUE_GAP_TOL = 1e-10
IMAG_LEAK_TOL = 1e-6


@dataclass
class DecompositionOptions:
    rank: int | None = None
    rank_tolerance: float = 1e-8
    k: int | None = None
    refine_iterations: int = 5
    rng_seed: int = 0
    # "error": reject complex-leaking points (exact tensors); "warn": take
    # real parts and flag the result (empirical moment tensors).
    on_complex: str = "error"

    def __post_init__(self):
        if self.refine_iterations < 0 or self.refine_iterations > 50:
            raise InputError("refine_iterations must be in [0, 50]")
        if self.on_complex not in ("error", "warn"):
            raise InputError("on_complex must be 'error' or 'warn'")


@dataclass
class PencilSlices:
    """U spans im(H_T^{k,d-k}); slices[i] holds the rows of U indexed by the
    degree-k monomials divisible by X_i, re-indexed by degree k-1."""

    u: np.ndarray
    slices: list[np.ndarray]
    k: int
    dim: int


def default_row_degree(order: int) -> int:
    """Row degree used when the caller gives none: (d+1)//2, so that for the
    GMM case d=3 it is 2, matching linearly independent points (iota=1)."""
    return min(order - 1, (order + 1) // 2)


def truncated_svd_basis(
    h: HankelMatrix, opts: DecompositionOptions
) -> tuple[PencilSlices, int]:
    """Orthonormal basis of the Hankel column space plus the detected rank."""
    u_full, s, _ = np.linalg.svd(h.matrix, full_matrices=False)
    if s.size == 0 or s[0] <= np.finfo(float).tiny:
        raise NumericalError("zero tensor: all singular values vanish")
    if opts.rank is not None:
        r = opts.rank
        if r < 1 or r > min(h.matrix.shape):
            raise InputError(f"requested rank {r} out of range for Hankel shape")
    else:
        r = int(np.sum(s > opts.rank_tolerance * s[0]))
    u = u_full[:, :r]

    shift = sum_index(h.dim, h.k - 1, 1)
    slices = [u[shift[:, i]] for i in range(h.dim)]
    return PencilSlices(u=u, slices=slices, k=h.k, dim=h.dim), r


def _normalize_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit Euclidean norm, sign of the largest-magnitude coordinate positive.
    Returns (normalized points, scale factors) with point = scale * normalized."""
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms == 0.0):
        raise NumericalError("recovered a zero point")
    unit = points / norms[:, None]
    lead = unit[np.arange(len(unit)), np.argmax(np.abs(unit), axis=1)]
    signs = np.where(lead < 0, -1.0, 1.0)
    return unit * signs[:, None], norms * signs


def simultaneous_diagonalize(
    pencil: PencilSlices, rng_seed: int = 0, on_complex: str = "error"
) -> tuple[np.ndarray, bool]:
    """Recover the decomposition points (one per pencil eigenvector) from a
    random two-vector combination of the slices.

    Returns (points, complex_leak_flag); points are normalized to unit norm
    with a fixed sign convention.
    """
    r = pencil.u.shape[1]
    m = pencil.dim
    if r > pencil.slices[0].shape[0]:
        raise NumericalError(
            f"rank {r} exceeds the slice row count {pencil.slices[0].shape[0]}"
        )
    rng = np.random.default_rng(rng_seed)
    last_error = None
    for _ in range(MAX_PENCIL_RETRIES):
        a = rng.standard_normal(m)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(m)
        b /= np.linalg.norm(b)
        m_a = sum(a[i] * pencil.slices[i] for i in range(m))
        m_b = sum(b[i] * pencil.slices[i] for i in range(m))
        ga = np.linalg.pinv(m_a)
        try:
            eigvals, f = np.linalg.eig(ga @ m_b)
        except np.linalg.LinAlgError as exc:
            last_error = str(exc)
            continue
        scale = max(np.max(np.abs(eigvals)), 1.0)
        gaps = np.abs(eigvals[:, None] - eigvals[None, :])
        np.fill_diagonal(gaps, np.inf)
        if np.min(gaps) < EIGENVALUE_GAP_TOL * scale:
            last_error = "eigenvalue clustering in the random pencil"
            continue

        coords = np.empty((r, m), dtype=complex)
        for i in range(m):
            coords[:, i] = np.diag(ga @ pencil.slices[i] @ f)
        points = np.conj(coords)

        re_scale = np.max(np.abs(points.real))
        im_scale = np.max(np.abs(points.imag))
        leak = False
        if re_scale == 0.0 or im_scale > IMAG_LEAK_TOL * re_scale:
            if on_complex == "error":
                last_error = "points carry non-negligible imaginary parts"
                continue
            leak = True
        unit, _ = _normalize_points(points.real)
        return unit, leak
    raise NumericalError(f"simultaneous diagonalization failed: {last_error}")


def solve_weights(
    t: SymmetricTensor, points: np.ndarray
) -> tuple[np.ndarray, float]:
    """Least-squares weights for T = sum w_i (p_i . X)^d under the apolar
    inner product.  Returns (weights, relative apolar residual)."""
    points = np.asarray(points, dtype=float)
    sqrt_w = np.sqrt(multinomial_weights(t.dim, t.order))
    design = evaluation_matrix(points, t.order).T * sqrt_w[:, None]
    target = t.coeffs * sqrt_w
    weights, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < len(points):
        raise NumericalError("collinear points: weight system is rank deficient")
    resid = np.linalg.norm(design @ weights - target)
    norm_t = np.linalg.norm(target)
    rel = resid / norm_t if norm_t > 0 else resid
    return weights, float(rel)


def relative_residual(t: SymmetricTensor, w: WaringDecomposition) -> float:
    """apolar_norm(reconstruct(w) - t) / apolar_norm(t)."""
    diff = SymmetricTensor(t.dim, t.order, reconstruct(w).coeffs - t.coeffs)
    norm_t = apolar_norm(t)
    resid = apolar_norm(diff)
    return resid / norm_t if norm_t > 0 else resid


def decompose(
    t: SymmetricTensor, opts: DecompositionOptions | None = None
) -> WaringDecomposition:
    """Full decomposition: Hankel SVD, pencil diagonalization, weight solve,
    optional Gauss-Newton refinement.

    Points come back unit-normalized with scale absorbed into the weights.
    """
    opts = opts if opts is not None else DecompositionOptions()
    k = opts.k if opts.k is not None else default_row_degree(t.order)
    if not 1 <= k <= t.order - 1:
        raise InputError(f"k={k} out of range [1, {t.order - 1}]")

    h = hankel(t, k)
    pencil, r = truncated_svd_basis(h, opts)
    if r > num_coeffs(t.dim, k - 1):
        raise NumericalError(
            f"detected rank {r} exceeds s_(k-1); choose a larger k"
        )
    if r > num_coeffs(t.dim, t.order - k):
        raise NumericalError(
            f"detected rank {r} exceeds s_(d-k); choose a smaller k"
        )

    # the random combination quality varies on noisy tensors, so draw a
    # few pencils and keep the candidate with the smallest residual
    best = None
    for attempt in range(MAX_PENCIL_RETRIES):
        try:
            points, leak = simultaneous_diagonalize(
                pencil,
                rng_seed=opts.rng_seed + 7919 * attempt,
                on_complex=opts.on_complex,
            )
            weights, rel = solve_weights(t, points)
        except NumericalError as exc:
            if best is None and attempt == MAX_PENCIL_RETRIES - 1:
                raise exc
            continue
        if best is None or rel < best[0]:
            best = (rel, weights, points, leak)
        if rel < 1e-10:
            break
    if best is None:
        raise NumericalError("all pencil draws failed")
    _, weights, points, leak = best

    result = WaringDecomposition(
        weights=weights, points=points, order=t.order, complex_leak=leak
    )
    if opts.refine_iterations > 0 and relative_residual(t, result) > 1e-14:
        result = refine(t, result, opts.refine_iterations)
    return result


def _jacobian(weights: np.ndarray, points: np.ndarray, d: int) -> np.ndarray:
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


def refine(
    t: SymmetricTensor, w: WaringDecomposition, iters: int
) -> WaringDecomposition:
    """Damped Gauss-Newton descent on the squared apolar residual over all
    weights and points.  Non-improving steps are rejected, so the residual
    never increases; returns the best decomposition found."""
    if iters <= 0:
        return w
    d = t.order
    m = t.dim
    r = w.rank
    sqrt_wts = np.sqrt(multinomial_weights(m, d))

    def residual_vec(weights, points):
        return sqrt_wts * (weights @ evaluation_matrix(points, d) - t.coeffs)

    weights = w.weights.copy()
    points = w.points.copy()
    res = residual_vec(weights, points)
    cost = float(res @ res)
    lam = 1e-6
    for _ in range(iters):
        if cost == 0.0:
            break
        # one Jacobian per iteration; damping retries reuse it
        jac = _jacobian(weights, points, d)
        jac *= sqrt_wts[:, None]
        jtj = jac.T @ jac
        grad = jac.T @ res
        for _ in range(20):
            step = np.linalg.solve(jtj + lam * np.eye(jtj.shape[0]), -grad)
            new_weights = weights + step[:r]
            new_points = points + step[r:].reshape(r, m)
            if np.all(np.linalg.norm(new_points, axis=1) > 0.0):
                new_res = residual_vec(new_weights, new_points)
                new_cost = float(new_res @ new_res)
                if new_cost < cost:
                    weights, points = new_weights, new_points
                    res, cost = new_res, new_cost
                    lam = max(lam / 10.0, 1e-12)
                    break
            lam *= 10.0
        else:
            break

    unit, scales = _normalize_points(points)
    weights = weights * scales**d
    return WaringDecomposition(
        weights=weights, points=unit, order=d, complex_leak=w.complex_leak
    )
