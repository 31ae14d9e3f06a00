"""Waring decomposition of identifiable symmetric tensors.

Pipeline: SVD of a Hankel matrix to get an orthonormal basis U of its column
space, slice U by variable-divisibility into a matrix pencil, simultaneously
diagonalize the pencil with a random two-vector combination to read off the
decomposition points, then solve a linear system for the weights.  An
optional damped Gauss-Newton pass polishes noisy decompositions.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import InputError, NumericalError
from .hankel import RANK_TOLERANCE, hankel
from .symtensor import (
    SymmetricTensor,
    WaringDecomposition,
    apolar_norm,
    evaluation_matrix,
    multinomial_weights,
    num_coeffs,
    pow_linear,  # noqa: F401  perfbench/smoke.py checks the tracer wraps it here
    reconstruct,
    sum_index,
)

# best of MAX_PENCIL_RETRIES successful pencil draws, out of at most
# MAX_PENCIL_DRAWS attempts
MAX_PENCIL_RETRIES = 5
MAX_PENCIL_DRAWS = 25
REFINE_ITERATIONS = 5  # refine steps after a best draw whose residual exceeds 1e-14
EIGENVALUE_GAP_TOL = 1e-10
IMAG_LEAK_TOL = 1e-6


def default_row_degree(order: int) -> int:
    """Row degree used when the caller gives none: (d+1)//2, so that for the
    GMM case d=3 it is 2, matching linearly independent points (iota=1)."""
    return min(order - 1, (order + 1) // 2)


def truncated_svd_basis(
    t: SymmetricTensor, k: int, rank: int | None = None, rank_tolerance: float = RANK_TOLERANCE
) -> np.ndarray:
    """Pencil slices of an orthonormal basis U of the column space of
    hankel(t, k): an (m, s_(k-1), r) array whose slice i holds the rows of U at
    the degree-k monomials divisible by X_i.  The rank r, `rank` or else the
    count of singular values above rank_tolerance * sigma_max, is last."""
    # 1 or NaN would truncate the Hankel SVD to rank 0
    if not 0.0 <= rank_tolerance < 1.0:
        raise InputError("rank_tolerance must be in [0, 1)")
    mat = hankel(t, k)
    u_full, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] <= np.finfo(float).tiny:
        raise NumericalError("zero tensor: all singular values vanish")
    if rank is None:
        rank = int(np.sum(s > rank_tolerance * s[0]))
    elif rank < 1 or rank > min(mat.shape):
        raise InputError(f"requested rank {rank} out of range for Hankel shape")
    return u_full[:, :rank][sum_index(t.dim, k - 1, 1).T]


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
    slices: np.ndarray, rng_seed: int = 0, on_complex: str = "error"
) -> tuple[np.ndarray, bool]:
    """Recover the decomposition points (one per pencil eigenvector) from one
    random two-vector combination of `truncated_svd_basis`'s slices, drawn
    from `rng_seed`.  Requires r <= s_(k-1), which `decompose` checks.

    Returns (points, complex_leak_flag); points are normalized to unit norm
    with a fixed sign convention.  Raises NumericalError when the draw is
    unlucky (eigen-solver failure, clustered eigenvalues, or complex points in
    "error" mode); `decompose` retries with fresh seeds.
    """
    m = len(slices)
    rng = np.random.default_rng(rng_seed)
    a = rng.standard_normal(m)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(m)
    b /= np.linalg.norm(b)
    m_a, m_b = (np.stack([a, b])[:, :, None, None] * slices).sum(axis=1)
    ga = np.linalg.pinv(m_a)
    try:
        eigvals, f = np.linalg.eig(ga @ m_b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pencil eigen-solver failed: {exc}") from exc
    scale = max(np.max(np.abs(eigvals)), 1.0)
    gaps = np.abs(eigvals[:, None] - eigvals[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.min(gaps) < EIGENVALUE_GAP_TOL * scale:
        raise NumericalError("eigenvalue clustering in the random pencil")

    # C order: _normalize_points' row norms round differently over an F-ordered view
    points = np.conj(np.diagonal(ga @ slices @ f, axis1=1, axis2=2).T.copy())

    re_scale = np.max(np.abs(points.real))
    im_scale = np.max(np.abs(points.imag))
    leak = bool(re_scale == 0.0 or im_scale > IMAG_LEAK_TOL * re_scale)
    if leak and on_complex == "error":
        raise NumericalError("points carry non-negligible imaginary parts")
    unit, _ = _normalize_points(points.real)
    return unit, leak


def solve_weights(t: SymmetricTensor, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares x for T = sum_i x_i rows_i under the apolar inner product,
    each row holding coefficients in t's layout; `decompose` passes
    evaluation_matrix(points, d), the rows of (p_i . X)^d.  Returns (x,
    relative apolar residual); linearly dependent rows raise NumericalError."""
    sqrt_w = np.sqrt(multinomial_weights(t.dim, t.order))
    design = np.asarray(rows, dtype=float).T * sqrt_w[:, None]
    target = t.coeffs * sqrt_w
    x, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise NumericalError("linearly dependent rows: the least-squares system is rank deficient")
    resid = np.linalg.norm(design @ x - target)
    norm_t = np.linalg.norm(target)
    return x, float(resid / norm_t if norm_t > 0 else resid)


def relative_residual(t: SymmetricTensor, w: WaringDecomposition) -> float:
    """apolar_norm(reconstruct(w) - t) / apolar_norm(t)."""
    diff = SymmetricTensor(t.dim, t.order, reconstruct(w).coeffs - t.coeffs)
    norm_t = apolar_norm(t)
    resid = apolar_norm(diff)
    return resid / norm_t if norm_t > 0 else resid


def decompose(
    t: SymmetricTensor, *, rank: int | None = None, k: int | None = None,
    rank_tolerance: float = RANK_TOLERANCE, rng_seed: int = 0, on_complex: str = "error",
) -> WaringDecomposition:
    """Full decomposition: Hankel SVD in row degree k (default_row_degree when
    None) truncated by `truncated_svd_basis`, pencil diagonalization on draws
    from rng_seed, weight solve, optional Gauss-Newton refinement.
    on_complex "error" rejects complex-leaking points (exact tensors); "warn"
    takes their real parts and flags the result (empirical moment tensors).

    Points come back unit-normalized with scale absorbed into the weights.
    """
    if on_complex not in ("error", "warn"):
        raise InputError("on_complex must be 'error' or 'warn'")
    k = k if k is not None else default_row_degree(t.order)
    slices = truncated_svd_basis(t, k, rank, rank_tolerance)
    r = slices.shape[-1]
    if r > num_coeffs(t.dim, k - 1):
        raise NumericalError(
            f"detected rank {r} exceeds s_(k-1); choose a larger k"
        )

    # the random combination quality varies on noisy tensors, so draw a few
    # pencils and keep the candidate with the smallest residual (the first,
    # on a tie); unlucky draws are skipped, within a budget of MAX_PENCIL_DRAWS
    found = []
    last_error = None
    for draw in range(MAX_PENCIL_DRAWS):
        try:
            points, leak = simultaneous_diagonalize(slices, rng_seed + 7919 * draw, on_complex)
            weights, rel = solve_weights(t, evaluation_matrix(points, t.order))
        except NumericalError as exc:
            last_error = exc
            continue
        found.append((rel, weights, points, leak))
        if rel < 1e-10 or len(found) == MAX_PENCIL_RETRIES:
            break
    if not found:
        raise NumericalError(
            f"all {MAX_PENCIL_DRAWS} pencil draws failed: {last_error}"
        )
    rel, weights, points, leak = min(found, key=lambda candidate: candidate[0])

    result = WaringDecomposition(
        weights=weights, points=points, order=t.order, complex_leak=leak
    )
    if rel > 1e-14:
        result = refine(t, result, REFINE_ITERATIONS)
    return result


def _normal_equations(
    signs: np.ndarray, points: np.ndarray, d: int, res: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton normal matrix J^T C J and gradient J^T C res for the
    coefficients of sum_i s_i (q_i . X)^d in the points (q_11..q_rm), the
    signs s_i fixed, where C holds the multinomial weights and `res` the
    coefficients of model - T.

    Neither needs the s_d x rm Jacobian J.  By the apolar identity
    <(p . X)^d, (q . X)^d> = (p . q)^d, J^T C J follows from the Gram matrix
    G = Q Q^T: point (i, j) with point (k, l) is
    d s_i s_k [G_ik^(d-1) delta_jl + (d-1) G_ik^(d-2) q_kj q_il].  By
    <R, (q . X)^d> = R(q), the gradient is s_i grad R(q_i), with R = model - T
    the residual polynomial.  Evaluating R rather than T avoids cancelling
    the model against T near a fit."""
    r, m = points.shape
    gram = points @ points.T
    # (d-1) G^(d-2), written so that d = 1 gives zeros instead of 0 * inf
    second = (d - 1) * gram ** max(d - 2, 0)
    pair = d * signs[:, None] * signs
    jtj = (pair * second)[:, None, :, None] * points.T[None, :, :, None] * points[:, None, None, :]
    diag = np.arange(m)
    jtj[:, diag, :, diag] += pair * gram ** (d - 1)

    # dR/dX_j = d * sum_beta c^(d-1)_beta R_(beta+e_j) X^beta
    lower = evaluation_matrix(points, d - 1)
    partials = d * lower @ (multinomial_weights(m, d - 1)[:, None] * res[sum_index(m, d - 1, 1)])
    return jtj.reshape(r * m, r * m), (signs[:, None] * partials).ravel()


def refine(
    t: SymmetricTensor, w: WaringDecomposition, iters: int
) -> WaringDecomposition:
    """Damped Gauss-Newton descent on the squared apolar residual over the
    absorbed points q_i = |w_i|^(1/d) p_i, term i being s_i (q_i . X)^d with
    its sign s_i fixed (s_i = 1 at odd d, where q_i takes w_i's sign).  These
    r*m unknowns carry no weight that could trade against its point's scale,
    so J^T C J has no null space of that kind.  Each iteration forms the normal
    equations once, in Gram form (`_normal_equations`); each damping retry
    adds lam to their diagonal and solves by Cholesky.  lam starts at 1e-6
    times the diagonal's mean, lam0; failed factorizations and non-improving
    steps multiply it by 10, and accepted steps divide it by 10, down to
    1e-6 lam0.  Every scale is relative: the result commutes with rotations
    up to rounding, and bit for bit with scaling the points by 2^k and the
    tensor by 2^(dk).  A zero weight is a zero q_i, whose Jacobian
    rows and gradient vanish (d > 1): it comes back with weight 0 and its
    input point.  Returns the best decomposition."""
    if iters <= 0:
        return w
    d = t.order
    m = t.dim
    r = w.rank
    sqrt_wts = np.sqrt(multinomial_weights(m, d))
    roots = np.abs(w.weights) ** (1.0 / d)
    if d % 2:  # an odd power keeps the sign of q_i
        roots, signs = np.sign(w.weights) * roots, np.ones(r)
    else:
        signs = np.sign(w.weights)

    def residual(points):
        """Coefficients of model - T, and their squared apolar norm."""
        res = signs @ evaluation_matrix(points, d) - t.coeffs
        scaled = sqrt_wts * res
        return res, float(scaled @ scaled)

    points = roots[:, None] * w.points
    res, cost = residual(points)
    lam = None
    for _ in range(iters):
        if cost == 0.0:
            break
        # one normal system per iteration; damping retries shift its diagonal
        jtj, grad = _normal_equations(signs, points, d, res)
        diag = jtj.diagonal().copy()
        if lam is None:
            lam = lam0 = 1e-6 * diag.sum() / len(diag)
        for _ in range(20):
            np.fill_diagonal(jtj, diag + lam)
            try:  # a non-finite system fails to factor or gives a rejected step
                step = cho_solve(cho_factor(jtj, check_finite=False), -grad, check_finite=False)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            new_points = points + step.reshape(r, m)
            new_res, new_cost = residual(new_points)
            if new_cost < cost:
                points, res, cost = new_points, new_res, new_cost
                lam = max(lam / 10.0, 1e-6 * lam0)
                break
            lam *= 10.0
        else:
            break

    zero = ~points.any(axis=1)  # a zero term keeps its input point
    unit, scales = _normalize_points(np.where(zero[:, None], w.points, points))
    return WaringDecomposition(
        weights=signs * np.where(zero, 0.0, scales) ** d, points=unit, order=d,
        complex_leak=w.complex_leak,
    )
