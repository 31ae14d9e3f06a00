"""Moment tensors of spherical Gaussian mixtures and parameter recovery.

The first three adjusted moments of a spherical mixture are, in polynomial
form,

    M1(X) = sum_i w_i s_i^2 (mu_i . X)
    M2(X) = sum_i w_i (mu_i . X)^2
    M3(X) = sum_i w_i (mu_i . X)^3

where s_i^2 are the component variances.  Recovery Waring-decomposes M3 in
the span W of M2's top r eigenvectors, whitened by M2's eigenvalues there,
then solves against M2 and M1.  A fit checks and centers its data once, into
a `Frame` that the moments and `gmm` read.  The fit path forms every moment
from the frame's z and M3 only in W, that of y = data W read as
y^t = W^t x^t + W^t c; `recover_parameters` contracts a full M3 with W.  M3
sums the pairs a <= b in blocks of rows (MOMENT_BLOCK_ELEMENTS).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError
from .symtensor import (
    SymmetricTensor,
    WaringDecomposition,
    index_tuples,
    pow_linear,
    reconstruct,
    sum_index,
)
from .waring import decompose, solve_weights

EIGEN_GAP_TOL = 1e-10
LAMBDA_TOL = 1e-10  # relative to the largest |lambda_i|
WEIGHT_CLAMP = 1e-6
SUBSTITUTE_VARIANCE_FRACTION = 1e-6  # of the pooled variance
# entries of the (rows x s_2(k)) pair products _m3_array forms per block of rows
MOMENT_BLOCK_ELEMENTS = 2**15


@dataclass
class MomentSet:
    """First three adjusted moments plus the variance proxy sigma_bar_sq (smallest covariance
    eigenvalue), its unit eigenvector v and the pooled variance tr(cov) / m."""

    m1: np.ndarray
    m2: np.ndarray
    m3: SymmetricTensor | None
    sigma_bar_sq: float
    v: np.ndarray
    pooled_variance: float
    v_ambiguous: bool = False

    @property
    def dim(self) -> int:
        return len(self.m1)

    @property
    def substitute_variance(self) -> float:
        """sigma_bar_sq, floored at a fraction of the pooled variance, in the data's units."""
        return max(self.sigma_bar_sq, SUBSTITUTE_VARIANCE_FRACTION * self.pooled_variance)

    def to_json(self) -> str:
        return json.dumps(
            {
                "sigma_bar_sq": self.sigma_bar_sq,
                "v": list(self.v),
                "m1": list(self.m1),
                "m2": [list(row) for row in self.m2],
                "m3": json.loads(self.m3.to_json()),
            }
        )


@dataclass
class RecoveredParams:
    """Mixture parameters read off the moment tensors, with diagnostics: the
    relative apolar residuals of the M2 and M1 solves, the joint-diagonalization
    sweeps, the whitening spread lambda_r / lambda_1, refine's accepted steps,
    the decomposition dimension and M2's eigenvalues lambda_r, lambda_(r+1)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    diagnostics: dict = field(default_factory=dict)


class Frame(NamedTuple):
    """A checked sample: the data as floats, their mean c and the C-ordered (m + 2, n) array
    z = [x^T; x_sq; 1] of the centered rows x = data - c and their squared norms x_sq (both
    views of z), so that gmm's affine maps of (x_i, ||x_i||^2, 1) are one product each."""

    data: np.ndarray
    c: np.ndarray
    z: np.ndarray
    x = property(lambda self: self.z[:-2].T)
    x_sq = property(lambda self: self.z[-2])


def _frame(data) -> Frame:
    """The Frame of an n x m finite sample, or `data` itself if it is a Frame:
    the one input check of moments and gmm.  The EM kernels and Lloyd take
    means as offsets from c, so that a shift costs their expanded forms no digits."""
    if isinstance(data, Frame):
        return data
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or not data.size:
        raise InputError(f"data must be a nonempty n x m matrix, got shape {data.shape}")
    # the bits of data.mean(axis=0) on C-ordered rows of m >= 2, in a third of its time
    c = np.einsum("ij->j", data) / len(data)
    z = np.empty((data.shape[1] + 2, len(data)))
    np.subtract(data, c, out=z[:-2].T)
    z[-2], z[-1] = np.einsum("ij,ij->j", z[:-2], z[:-2]), 1.0
    if not np.isfinite(z[-2]).all():
        raise InputError("data must be finite, with squared row norms below overflow")
    return Frame(data, c, z)


def _sample_moments(data) -> tuple[Frame, MomentSet]:
    """The Frame of a sample of at least 2 rows (or the Frame given) and its
    MomentSet less M3; every moment is read off the frame's z."""
    frame = _frame(data)
    (n, m), c, x = frame.data.shape, frame.c, frame.z[:-2]
    if n < 2:
        raise InputError("data must have at least 2 rows")

    cov = x @ x.T / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    sigma_bar_sq, v = float(eigvals[0]), eigvecs[:, 0]
    ambiguous = m > 1 and 0 < eigvals[-1] and eigvals[1] - eigvals[0] < EIGEN_GAP_TOL * eigvals[-1]
    # M1 = mean((x.v)^2 data) = (sum (x.v)^2 x + c sum (x.v)^2) / n, z's last row being 1: one pass
    # of numpy's own loop over z's rows, as a BLAS GEMV's bits change with its thread count
    sums = np.einsum("ij,j->i", frame.z, (v @ x) ** 2)
    return frame, MomentSet(
        m1=(sums[:-2] + c * sums[-1]) / n, m2=cov + np.outer(c, c) - sigma_bar_sq * np.eye(m),
        m3=None, sigma_bar_sq=sigma_bar_sq, v=v, pooled_variance=float(np.trace(cov)) / m,
        v_ambiguous=bool(ambiguous),
    )


def _m3_array(y: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Coefficients of the adjusted M3 of an n x k sample y with adjusted M1 m1, mean(y_a y_b y_c)
    - sym(m1 (x) I) at a <= b <= c: the pairs a <= b are summed, one GEMM per block of rows whose
    pair products hold MOMENT_BLOCK_ELEMENTS entries, and read at each monomial's ((a, b), c)."""
    n, k = y.shape
    a, b = index_tuples(k, 2).T
    step = max(1, MOMENT_BLOCK_ELEMENTS // len(a))
    raw = 0.0
    for i in range(0, n, step):
        rows = y[i : i + step]
        raw += (rows[:, a] * rows[:, b]).T @ rows
    a, b, c = index_tuples(k, 3).T
    return raw[sum_index(k, 1, 1)[a, b], c] / n - (
        (a == b) * m1[c] + (a == c) * m1[b] + (b == c) * m1[a]
    )


def empirical_moments(data: np.ndarray | Frame) -> MomentSet:
    """Plug-in moment estimates from an n x m sample matrix or its Frame."""
    frame, ms = _sample_moments(data)
    return replace(ms, m3=SymmetricTensor(ms.dim, 3, _m3_array(frame.data, ms.m1)))


def _m3_in_w(frame: Frame, m1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """_m3_array of y = data W (W^t W = I), as the F-ordered view of y^t = W^t x^t + W^t c."""
    yt = w.T @ frame.z[:-2]
    yt += (frame.c @ w)[:, None]
    return _m3_array(yt.T, m1 @ w)


def exact_moments(params) -> MomentSet:
    """Closed-form moments of known spherical mixture parameters."""
    weights = np.asarray(params.weights, dtype=float)
    means = np.asarray(params.means, dtype=float)
    variances = np.asarray(params.variances, dtype=float)
    m = means.shape[1]

    sigma_bar_sq = float(weights @ variances)
    # v: unit eigenvector of the exact covariance sum_i w_i (s_i^2 I + centered
    # spread) at its smallest eigenvalue
    centered = means - weights @ means
    cov = centered.T @ (weights[:, None] * centered) + sigma_bar_sq * np.eye(m)
    return MomentSet(
        m1=(weights * variances) @ means, m2=means.T @ (weights[:, None] * means),
        m3=reconstruct(WaringDecomposition(weights=weights, points=means, order=3)),
        sigma_bar_sq=sigma_bar_sq, v=np.linalg.eigh(cov)[1][:, 0],
        pooled_variance=float(np.trace(cov)) / m,
    )


def recover_from_data(data: np.ndarray | Frame, r: int) -> tuple[RecoveredParams, float]:
    """(recover_parameters(empirical_moments(data), r), its substitute variance) up
    to rounding, with M3 in W formed as that of y = data W (_m3_in_w)."""
    frame, ms = _sample_moments(data)
    return _recover(ms, r, lambda w: _m3_in_w(frame, ms.m1, w)), ms.substitute_variance


def recover_parameters(moments: MomentSet, r: int) -> RecoveredParams:
    """Mixture parameters from a full moment set, its M3 contracted with W."""
    m = moments.dim
    # dense[a, b, c] = T_(e_a+e_b+e_c), gathered through the degree-2 and
    # degree-3 "beta + e_i" tables
    dense = moments.m3.coeffs[sum_index(m, 2, 1)[sum_index(m, 1, 1)]]
    return _recover(moments, r, lambda w: _symmetric_array_coeffs(
        np.einsum("abc,ai,bj,ck->ijk", dense, w, w, w, optimize=True)))


def _recover(moments: MomentSet, r, m3_in) -> RecoveredParams:
    """Waring-decompose m3_in(W), M3's coefficients in the span W of M2's top r eigenvectors,
    where the means lie, whitened by M2's eigenvalues there; map the points back, rescale
    against M2, then solve M1 for variances.  Both solves are `solve_weights`, which rejects
    linearly dependent means."""
    m1, m2, m = moments.m1, moments.m2, moments.dim
    if r > m:
        raise InputError(f"r={r} exceeds dimension m={m}; r <= m is required")

    eigvals, eigvecs = np.linalg.eigh(m2)
    basis, top = eigvecs[:, ::-1][:, :r], eigvals[::-1][:r]
    dec = decompose(SymmetricTensor(r, 3, m3_in(basis)), m2_eigenvalues=top)
    w_tilde, mu_tilde = dec.weights, dec.points @ basis.T

    # scale system: sum_i lambda_i w~_i (mu~_i . X)^2 = M2(X)
    lam, resid_m2 = solve_weights(
        SymmetricTensor(m, 2, _symmetric_array_coeffs(m2)),
        [w * pow_linear(mu, 2).coeffs for w, mu in zip(w_tilde, mu_tilde)],
    )
    if np.any(np.abs(lam) <= LAMBDA_TOL * np.max(np.abs(lam))):
        raise NumericalError("degenerate scale: some lambda_i is near zero")

    weights = lam**3 * w_tilde
    means = mu_tilde / lam[:, None]
    if np.all(weights <= 0):
        raise NumericalError("recovery failed: all recovered weights non-positive")
    weights = np.maximum(weights, WEIGHT_CLAMP)
    weights = weights / weights.sum()

    # variance system: sum_i w_i s_i^2 (mu_i . X) = M1(X); its apolar weights are all 1
    variances, resid_m1 = solve_weights(SymmetricTensor(m, 1, m1), weights[:, None] * means)
    # non-positive variance estimates (possible on noisy moments) are replaced by the
    # mixture-average variance, floored in the data's units: a neutral value EM can adjust from
    variances = np.where(variances <= 0, moments.substitute_variance, variances)

    return RecoveredParams(
        weights=weights,
        means=means,
        variances=variances,
        diagnostics={
            "residual_m2": resid_m2,
            "residual_m1": resid_m1,
            "sweeps": dec.sweeps,
            "whitening_spread": float(top[-1] / top[0]),
            "refine_steps": dec.refine_steps,
            "subspace_dim": r,
            "m2_lambda_r": float(eigvals[m - r]),
            "m2_lambda_r_plus_1": float(eigvals[m - r - 1]) if r < m else None,
        },
    )


def _symmetric_array_coeffs(arr: np.ndarray) -> np.ndarray:
    """Tensor-layout coefficients of an m x ... x m array symmetric up to
    rounding: T_alpha is the entry at alpha's sorted index tuple (a <= b <= ...),
    so T_(e_j+e_k) = mat[j, k] for j <= k."""
    return arr[tuple(index_tuples(arr.shape[0], arr.ndim).T)]
