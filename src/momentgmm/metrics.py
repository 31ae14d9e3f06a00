"""Clustering-quality and model-selection criteria: BIC, ARI, error rate."""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError


def nu_spherical(r: int, m: int) -> int:
    """Free parameters of an r-component spherical mixture with varying
    variances: (r-1) mixing weights + r*m means + r variances."""
    return (r - 1) + r * m + r


def bic(loglik: float, n: int, nu: int) -> float:
    """2*loglik - nu*log(n); larger is a better fit."""
    if n < 1 or nu < 1:
        raise InputError("n and nu must be >= 1")
    return 2.0 * loglik - nu * math.log(n)


def _codes(labels: np.ndarray) -> np.ndarray:
    """Codes from 0, distinct for distinct labels, that index a dense table."""
    labels = np.asarray(labels)
    if np.can_cast(labels.dtype, np.int64) and labels.size:
        low = int(labels.min())
        if int(labels.max()) - low < labels.size:
            return labels.astype(np.int64) - low
    return np.unique(labels, return_inverse=True)[1]


def _contingency(labels_a, labels_b) -> np.ndarray:
    if np.shape(labels_a) != np.shape(labels_b):
        raise InputError("label vectors must have equal length")
    a, b = _codes(labels_a), _codes(labels_b)
    cols = int(b.max()) + 1
    return np.bincount(a * cols + b, minlength=(int(a.max()) + 1) * cols).reshape(-1, cols)


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index via pair counting on the contingency table."""
    table = _contingency(labels_a, labels_b)
    n = table.sum()
    if n < 2:
        return 1.0

    def comb2(x):
        return x * (x - 1) // 2

    sum_ij = int(np.sum(comb2(table)))
    sum_a = int(np.sum(comb2(table.sum(axis=1))))
    sum_b = int(np.sum(comb2(table.sum(axis=0))))
    total = comb2(int(n))
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def error_rate(pred, truth, r: int) -> float:
    """Minimal misclassification fraction over relabelings of the predicted
    clusters, via optimal assignment on the confusion matrix."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if np.any(pred < 0) or np.any(pred >= r) or np.any(truth < 0) or np.any(truth >= r):
        raise InputError(f"labels must lie in [0, {r})")
    # the table leaves out labels that never occur: zero rows and columns add no agreement
    confusion = _contingency(pred, truth)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    agree = int(confusion[rows, cols].sum())
    return float((len(pred) - agree) / len(pred))
