"""Moment tensors of spherical Gaussian mixtures and parameter recovery.

The first three adjusted moments of a spherical mixture are, in polynomial
form,

    M1(X) = sum_i w_i s_i^2 (mu_i . X)
    M2(X) = sum_i w_i (mu_i . X)^2
    M3(X) = sum_i w_i (mu_i . X)^3

where s_i^2 are the component variances.  Recovery runs a Waring
decomposition of M3 restricted to the span of M2's top r eigenvectors, and
two linear solves against M2 and M1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .symtensor import (
    SymmetricTensor,
    WaringDecomposition,
    index_tuples,
    multinomial_weights,
    pow_linear,
    reconstruct,
    sum_index,
)
from .waring import DecompositionOptions, decompose

EIGEN_GAP_TOL = 1e-10
LAMBDA_TOL = 1e-10
WEIGHT_CLAMP = 1e-6


@dataclass
class MomentSet:
    """First three adjusted moments plus the variance proxy sigma_bar_sq
    (smallest covariance eigenvalue) and its unit eigenvector v."""

    m1: np.ndarray
    m2: np.ndarray
    m3: SymmetricTensor
    sigma_bar_sq: float
    v: np.ndarray
    n_samples: int | str = "exact"
    v_ambiguous: bool = False

    @property
    def dim(self) -> int:
        return len(self.m1)

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
    """Mixture parameters read off the moment tensors, with the least-squares
    residuals of the two linear solves, the decomposition dimension and M2's
    eigenvalues lambda_r, lambda_(r+1) as diagnostics."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def empirical_moments(data: np.ndarray) -> MomentSet:
    """Plug-in moment estimates from an n x m sample matrix."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise InputError("data must be an n x m matrix")
    n, m = data.shape
    if n < 2:
        raise InputError("need at least 2 samples")
    if not np.all(np.isfinite(data)):
        raise InputError("data contains non-finite entries")

    xbar = data.mean(axis=0)
    centered = data - xbar
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    sigma_bar_sq = float(eigvals[0])
    v = eigvecs[:, 0]
    ambiguous = bool(
        m > 1 and eigvals[-1] > 0 and (eigvals[1] - eigvals[0]) < EIGEN_GAP_TOL * eigvals[-1]
    )

    proj_sq = (centered @ v) ** 2
    m1 = (data * proj_sq[:, None]).mean(axis=0)
    m2 = data.T @ data / n - sigma_bar_sq * np.eye(m)

    # raw[a, b, c] = mean(x_a x_b x_c), one GEMM per c, so that no temporary
    # is larger than the n x m data (monomials of the rows would be n x s_2)
    raw = np.empty((m, m, m))
    for c in range(m):
        raw[:, :, c] = (data * data[:, [c]]).T @ data / n
    eye = np.eye(m)
    raw -= (
        eye[:, :, None] * m1 + eye[:, None, :] * m1[:, None] + eye[None, :, :] * m1[:, None, None]
    )
    m3 = SymmetricTensor(m, 3, _symmetric_array_coeffs(raw))
    return MomentSet(
        m1=m1, m2=m2, m3=m3, sigma_bar_sq=sigma_bar_sq, v=v,
        n_samples=n, v_ambiguous=ambiguous,
    )


def exact_moments(params) -> MomentSet:
    """Closed-form moments of known spherical mixture parameters."""
    weights = np.asarray(params.weights, dtype=float)
    means = np.asarray(params.means, dtype=float)
    variances = np.asarray(params.variances, dtype=float)
    m = means.shape[1]

    sigma_bar_sq = float(weights @ variances)
    m1 = (weights * variances) @ means
    m2 = means.T @ (weights[:, None] * means)
    m3 = reconstruct(WaringDecomposition(weights=weights, points=means, order=3))
    # v: unit eigenvector of the exact covariance sum_i w_i (s_i^2 I + centered
    # spread) at its smallest eigenvalue
    mu_bar = weights @ means
    spread = (means - mu_bar).T @ (weights[:, None] * (means - mu_bar))
    cov = spread + sigma_bar_sq * np.eye(m)
    eigvals, eigvecs = np.linalg.eigh(cov)
    return MomentSet(
        m1=m1, m2=m2, m3=m3, sigma_bar_sq=sigma_bar_sq,
        v=eigvecs[:, 0], n_samples="exact",
    )


def recover_parameters(moments: MomentSet, r: int) -> RecoveredParams:
    """Waring-decompose M3 in the span W of M2's top r eigenvectors, where the
    means lie, map the points back, rescale against M2, then solve M1 for
    variances."""
    m = moments.dim
    if r > m:
        raise InputError(f"r={r} exceeds dimension m={m}; r <= m is required")

    eigvals, eigvecs = np.linalg.eigh(moments.m2)
    basis = eigvecs[:, ::-1][:, :r]
    # dense[a, b, c] = T_(e_a+e_b+e_c), gathered through the degree-2 and
    # degree-3 "beta + e_i" tables
    dense = moments.m3.coeffs[sum_index(m, 2, 1)[sum_index(m, 1, 1)]]
    projected = np.einsum("abc,ai,bj,ck->ijk", dense, basis, basis, basis, optimize=True)
    opts = DecompositionOptions(
        rank=r, k=2, on_complex="error" if moments.n_samples == "exact" else "warn"
    )
    dec = decompose(SymmetricTensor(r, 3, _symmetric_array_coeffs(projected)), opts)
    w_tilde, mu_tilde = dec.weights, dec.points @ basis.T

    # scale system: sum_i lambda_i w~_i (mu~_i . X)^2 = M2(X), solved over the
    # degree-2 coefficients under the apolar weighting
    sqrt_w2 = np.sqrt(multinomial_weights(m, 2))
    design = np.column_stack(
        [w_tilde[i] * pow_linear(mu_tilde[i], 2).coeffs for i in range(r)]
    ) * sqrt_w2[:, None]
    target = _symmetric_array_coeffs(moments.m2) * sqrt_w2
    lam, _, rank2, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank2 < r:
        raise NumericalError("scale system is rank deficient")
    resid_m2 = float(np.linalg.norm(design @ lam - target))
    if np.any(np.abs(lam) < LAMBDA_TOL):
        raise NumericalError("degenerate scale: some lambda_i is near zero")

    weights = lam**3 * w_tilde
    means = mu_tilde / lam[:, None]
    if np.all(weights <= 0):
        raise NumericalError("recovery failed: all recovered weights non-positive")
    weights = np.maximum(weights, WEIGHT_CLAMP)
    weights = weights / weights.sum()

    # variance system: sum_i w_i s_i^2 (mu_i . X) = M1(X)
    design1 = (weights[:, None] * means).T
    variances, _, _, _ = np.linalg.lstsq(design1, moments.m1, rcond=None)
    resid_m1 = float(np.linalg.norm(design1 @ variances - moments.m1))
    # non-positive variance estimates (possible on noisy moments) are replaced
    # by the mixture-average variance, a neutral value EM can adjust from
    fallback_var = max(WEIGHT_CLAMP, moments.sigma_bar_sq)
    variances = np.where(variances <= 0, fallback_var, variances)

    return RecoveredParams(
        weights=weights,
        means=means,
        variances=variances,
        diagnostics={
            "residual_m2": resid_m2,
            "residual_m1": resid_m1,
            "complex_leak": dec.complex_leak,
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
