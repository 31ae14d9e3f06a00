"""Hankel (catalecticant) matrices of symmetric tensors."""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .symtensor import SymmetricTensor, sum_index

# the numerical rank counts singular values above RANK_TOLERANCE * sigma_max
RANK_TOLERANCE = 1e-8


def hankel(t: SymmetricTensor, k: int) -> np.ndarray:
    """Catalecticant of T in row degree k, column degree d-k: the
    s_k x s_{d-k} matrix with entry (alpha, beta) = T_{alpha+beta}."""
    if not 1 <= k <= t.order - 1:
        raise InputError(f"k={k} out of range [1, {t.order - 1}]")
    return t.coeffs[sum_index(t.dim, k, t.order - k)]


def numerical_rank(mat: np.ndarray) -> int:
    """Count of singular values above RANK_TOLERANCE * sigma_max."""
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOLERANCE * s[0]))
