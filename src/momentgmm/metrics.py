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


def _contingency(labels_a, labels_b) -> np.ndarray:
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape:
        raise InputError("label vectors must have equal length")
    _, a = np.unique(labels_a, return_inverse=True)
    _, b = np.unique(labels_b, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    return table


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
    clusters, via optimal assignment on the r x r confusion matrix."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise InputError("label vectors must have equal length")
    if np.any(pred < 0) or np.any(pred >= r) or np.any(truth < 0) or np.any(truth >= r):
        raise InputError(f"labels must lie in [0, {r})")
    confusion = np.zeros((r, r), dtype=np.int64)
    np.add.at(confusion, (pred, truth), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    agree = int(confusion[rows, cols].sum())
    return float((len(pred) - agree) / len(pred))
