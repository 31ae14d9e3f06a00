"""Waring decomposition of identifiable symmetric tensors.

Pipeline: SVD of a Hankel matrix to get an orthonormal basis U of its column
space, slice U by variable-divisibility into a matrix pencil, diagonalize
the pencil with a random two-vector combination to read off the
decomposition points (a draw that gives complex points is redrawn), then
solve a linear system for the weights.  Given the diagonal second moment of
an order-3 tensor's points, the points come instead from the whitened
tensor, whose slices one orthogonal matrix diagonalizes.  An optional damped
Gauss-Newton pass polishes noisy decompositions.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import InputError, NumericalError
from .hankel import RANK_TOLERANCE, hankel
from .symtensor import (
    SymmetricTensor,
    WaringDecomposition,
    apolar_norm,
    evaluation_matrix,
    index_tuples,
    multinomial_weights,
    num_coeffs,
    pow_linear,  # noqa: F401  perfbench/smoke.py checks the tracer wraps it here
    reconstruct,
    sum_index,
)

MAX_PENCIL_DRAWS = 25  # the first pencil draw that succeeds is kept
REFINE_ITERATIONS = 5  # most refine steps after a start whose residual exceeds 1e-14
REFINE_STOP = 1e-2  # refine stops after an accepted step that lowers its cost less, relative
MAX_SWEEPS = 50
SWEEP_TOL = 1e-12  # joint diagonalization stops after a sweep whose every |sin| is below it
_PAIR_MIX = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
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


def pencil_points(slices: np.ndarray, rng_seed: int = 0) -> np.ndarray:
    """Recover the decomposition points (one per pencil eigenvector) from one
    random two-vector combination of `truncated_svd_basis`'s slices, drawn
    from `rng_seed`.  Requires r <= s_(k-1), which `decompose` checks.

    Returns the points, normalized to unit norm with a fixed sign convention.
    Raises NumericalError when the draw is unlucky (eigen-solver failure,
    clustered eigenvalues, or complex points); `decompose` retries with fresh
    seeds.
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
    if re_scale == 0.0 or np.max(np.abs(points.imag)) > IMAG_LEAK_TOL * re_scale:
        raise NumericalError("points carry non-negligible imaginary parts")
    return _normalize_points(points.real)[0]


@lru_cache(maxsize=None)
def _round_robin(r: int, n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Every pair p < q of range(r) once, in rounds of disjoint pairs (the
    circle method, with a bye at odd r).  For n stacked r x r matrices laid
    out as a[i, j, l] = A_j[i, l], a round is the (k, n, 4) flat index of its
    pairs' entries (p, p), (q, q), (p, q), (q, p), and the flat indices of an
    r x r rotation's pairs of entries ((p, p), (q, p)) and ((q, q), (p, q))."""
    ring, rounds = np.arange(1, r + r % 2), []
    for _ in range(len(ring)):
        first, last = np.split(np.concatenate([[0], ring]), 2)  # seat i faces seat -1 - i
        p, q = np.minimum(first, last[::-1]), np.maximum(first, last[::-1])
        p, q = p[q < r], q[q < r]
        rows, cols = np.stack([p, q, p, q], axis=-1), np.stack([p, q, q, p], axis=-1)
        flat = rows[:, None] * (n * r) + (np.arange(n) * r)[:, None] + cols[:, None]
        rounds.append((flat, np.stack([p * (r + 1), q * r + p], axis=-1).ravel(),
                       np.stack([q * (r + 1), p * r + q], axis=-1).ravel()))
        ring = np.roll(ring, 1)
    return tuple(rounds)


def simultaneous_diagonalize(slices: np.ndarray, rng_seed: int = 0) -> tuple[np.ndarray, int]:
    """An orthogonal V whose columns jointly diagonalize the n symmetric r x r
    matrices slices[j], and the sweeps it took.  V starts as the eigenvectors
    of sum_j theta_j slices[j], theta a unit vector drawn from `rng_seed`.
    Jacobi rotations then lower the off-diagonal mass of all A_j = V^T
    slices[j] V at once (Cardoso & Souloumiac, SIAM J. Matrix Anal. Appl.
    1996).  Pair (p, q) turns by a quarter of the argument of sum_j h_j^2,
    h_j = A_j,pp - A_j,qq + i (A_j,pq + A_j,qp), in parallel round-robin
    order, until a sweep's every |sin| is below SWEEP_TOL or MAX_SWEEPS
    sweeps have run; r = 1 takes none."""
    n, r = len(slices), slices.shape[-1]
    theta = np.random.default_rng(rng_seed).standard_normal(n)
    _, v = np.linalg.eigh(np.tensordot(theta / np.linalg.norm(theta), slices, axes=1))
    # a[i, j, l] = A_j[i, l], so that each side of a rotation is one product
    a = (v.T @ slices @ v).transpose(1, 0, 2).reshape(r * n, r)
    rounds = _round_robin(r, n)
    # a round rewrites the same entries of its rotation each sweep; the rest stays the identity
    rots = np.tile(np.eye(r), (len(rounds), 1, 1))
    sweeps = 0
    while r > 1 and sweeps < MAX_SWEEPS:
        sweeps += 1
        sines = []
        for (flat, cos_sin, cos_minus_sin), rot in zip(rounds, rots):
            # (A_pp - A_qq, A_pq + A_qp) side by side, read as one complex h per slice
            h = (a.take(flat) @ _PAIR_MIX).view(complex)[..., 0]
            turn = np.exp(0.25j * np.angle(np.einsum("kj,kj->k", h, h)))
            rot.flat[cos_sin] = turn.view(float)
            rot.flat[cos_minus_sin] = turn.conj().view(float)
            a = (rot.T @ a.reshape(r, -1)).reshape(-1, r) @ rot
            v = v @ rot
            sines.append(turn.imag)
        if np.abs(np.concatenate(sines)).max() < SWEEP_TOL:
            break
    return v, sweeps


def _whitened_points(
    t: SymmetricTensor, eigenvalues: np.ndarray, rng_seed: int
) -> tuple[np.ndarray, int]:
    """Unit points of t = sum_i w_i (p_i . X)^3 in r = t.dim variables whose
    second moment sum_i w_i p_i p_i^T is diag(eigenvalues) (Hsu & Kakade,
    arXiv:1206.5766), and the sweeps of their joint diagonalization.  With
    coefficient (a, b, c) divided by sqrt(lambda_a lambda_b lambda_c), t is
    sum_i w_i^(-1/2) v_i^(x)3 for orthonormal v_i = sqrt(w_i) p_i / sqrt(lambda),
    so its slices share the eigenvectors v_i, and p_i lies along sqrt(lambda) * v_i."""
    lam = np.asarray(eigenvalues, dtype=float)
    if t.order != 3 or lam.shape != (t.dim,):
        raise InputError("m2_eigenvalues needs an order-3 tensor and one eigenvalue per variable")
    if not np.all(lam > 0):
        raise NumericalError("cannot whiten: the second moment is not positive definite")
    r, roots = t.dim, np.sqrt(lam)
    whitened = t.coeffs / roots[index_tuples(r, 3)].prod(axis=1)
    if not (np.isfinite(whitened).all() and np.isfinite(roots).all()):
        raise NumericalError("cannot whiten: non-finite tensor or second moment")
    v, sweeps = simultaneous_diagonalize(whitened[sum_index(r, 2, 1)[sum_index(r, 1, 1)]], rng_seed)
    unit, _ = _normalize_points(roots * v.T)
    return unit, sweeps


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
    rank_tolerance: float = RANK_TOLERANCE, rng_seed: int = 0,
    m2_eigenvalues: np.ndarray | None = None,
) -> WaringDecomposition:
    """Full decomposition: start points, weight solve, Gauss-Newton refinement
    (`refine`) when the weight solve leaves a relative residual above 1e-14.

    Without m2_eigenvalues the points come from the Hankel SVD in row degree
    k (default_row_degree when None) truncated by `truncated_svd_basis`, and
    the first pencil draw from rng_seed that succeeds (`pencil_points`); a
    draw whose points leak imaginary parts is an unlucky one.

    m2_eigenvalues, the diagonal of sum_i w_i p_i p_i^T for an order-3 t in
    its own coordinates (M2's top r eigenvalues on W, in the moments path),
    whitens t instead (`_whitened_points`, theta drawn from rng_seed); the
    rank is then t.dim, and k and rank_tolerance do not apply.

    Points come back unit-normalized with scale absorbed into the weights.
    """
    if m2_eigenvalues is not None:
        if rank not in (None, t.dim):
            raise InputError(f"with m2_eigenvalues the rank is the dimension {t.dim}, not {rank}")
        points, sweeps = _whitened_points(t, m2_eigenvalues, rng_seed)
        weights, rel = solve_weights(t, evaluation_matrix(points, t.order))
        result = WaringDecomposition(weights, points, t.order, sweeps=sweeps)
    else:
        k = k if k is not None else default_row_degree(t.order)
        slices = truncated_svd_basis(t, k, rank, rank_tolerance)
        r = slices.shape[-1]
        if r > num_coeffs(t.dim, k - 1):
            raise NumericalError(f"detected rank {r} exceeds s_(k-1); choose a larger k")
        # unlucky draws are skipped, within a budget of MAX_PENCIL_DRAWS
        for draw in range(MAX_PENCIL_DRAWS):
            try:
                points = pencil_points(slices, rng_seed + 7919 * draw)
                weights, rel = solve_weights(t, evaluation_matrix(points, t.order))
                break
            except NumericalError as exc:
                last_error = exc
        else:
            raise NumericalError(f"all {MAX_PENCIL_DRAWS} pencil draws failed: {last_error}")
        result = WaringDecomposition(weights, points, t.order)
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
    input point.  It stops after `iters` accepted steps, or after one that
    lowers the cost by less than REFINE_STOP relative, or when 20 damping
    retries in a row fail.  Returns the best decomposition, with its accepted
    steps as `refine_steps`."""
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
    lam, steps, gain = None, 0, 1.0
    while steps < iters and cost > 0.0 and gain >= REFINE_STOP:
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
                gain = (cost - new_cost) / cost
                points, res, cost, steps = new_points, new_res, new_cost, steps + 1
                lam = max(lam / 10.0, 1e-6 * lam0)
                break
            lam *= 10.0
        else:
            break

    zero = ~points.any(axis=1)  # a zero term keeps its input point
    unit, scales = _normalize_points(np.where(zero[:, None], w.points, points))
    return replace(w, weights=signs * np.where(zero, 0.0, scales) ** d, points=unit,
                   refine_steps=steps)
