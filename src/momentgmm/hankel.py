"""Hankel (catalecticant) matrices and interpolation degrees of point sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .symtensor import SymmetricTensor, evaluation_matrix, sum_index

DEFAULT_RANK_TOL = 1e-8


@dataclass
class HankelMatrix:
    """s_k x s_{d-k} matrix with entry (alpha, beta) = T_{alpha+beta}."""

    k: int
    order: int
    dim: int
    matrix: np.ndarray


def hankel(t: SymmetricTensor, k: int) -> HankelMatrix:
    """Catalecticant of T in row degree k, column degree d-k."""
    if not 1 <= k <= t.order - 1:
        raise InputError(f"k={k} out of range [1, {t.order - 1}]")
    mat = t.coeffs[sum_index(t.dim, k, t.order - k)]
    return HankelMatrix(k=k, order=t.order, dim=t.dim, matrix=mat)


def numerical_rank(mat: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above tol * sigma_max."""
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def interpolation_degree(points, tol: float = DEFAULT_RANK_TOL) -> int:
    """Smallest k such that the degree-k evaluation map at the points is
    surjective (evaluation matrix of full row rank r).

    Requires the points to be pairwise distinct up to scale; the search is
    capped at k = r, which always suffices for such point sets.
    """
    points = np.asarray(points, dtype=float)
    r = points.shape[0]
    for k in range(1, r + 1):
        if numerical_rank(evaluation_matrix(points, k), tol) == r:
            return k
    raise NumericalError(
        f"no interpolation degree <= {r} found; points may coincide up to scale"
    )
