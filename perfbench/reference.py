"""Fixed reference computations that measure the host's speed.

The shared host this benchmark runs on changes speed by up to a factor of
two within minutes: one fixed study job takes 0.5 s at one moment and 0.95 s
a minute later, and its CPU time tracks its wall time, so the process is
slowed, not descheduled. The worker therefore times a reference computation
before the first job and after each, and reports each job's cost as its
latency over the mean of the reference times on either side of it (unit
`ref`). Host slowdowns reach both alike and cancel; a change to momentgmm
moves only the job.

The computations use numpy alone, never momentgmm, so no change to the
library moves them. A slowdown of the host does not reach all code alike
(code that streams large arrays suffers more than code that stays in cache),
so each workload's reference mirrors the array sizes and kind of work of
that workload's hot path; spec.json names its parts and repetitions.
"""

from __future__ import annotations

import itertools
import time
from functools import cached_property

import numpy as np


class Reference:
    def __init__(self, parts: dict[str, int]):
        self.parts = [(getattr(self, "_" + name), reps) for name, reps in parts.items()]

    # inputs, built on first use so that a workload holds only its own
    @cached_property
    def small(self) -> np.ndarray:
        """study: n = 1000 points in m = 6 dimensions"""
        return np.random.default_rng(0).standard_normal((1000, 6))

    @cached_property
    def centres(self) -> np.ndarray:
        return np.random.default_rng(1).standard_normal((4, 6))

    @cached_property
    def expo(self) -> np.ndarray:
        """recover-hidim: exponents of the degree-3 monomials of m = 30 variables"""
        combos = itertools.combinations_with_replacement(range(30), 3)
        return np.array([np.bincount(c, minlength=30) for c in combos])

    @cached_property
    def points(self) -> np.ndarray:
        return np.random.default_rng(2).uniform(0.5, 1.5, size=(15, 30))

    @cached_property
    def rows(self) -> np.ndarray:
        """large-n: n = 1e5 rows in m = 10 dimensions"""
        return np.random.default_rng(3).standard_normal((100000, 10))

    @cached_property
    def row_centres(self) -> np.ndarray:
        return np.random.default_rng(4).standard_normal((5, 10))

    def _lloyd(self) -> None:
        """Lloyd iterations with a Python loop over the clusters."""
        x, c = self.small, self.centres.copy()
        for _ in range(30):
            d = np.sum(x**2, axis=1)[:, None] - 2.0 * x @ c.T + np.sum(c**2, axis=1)[None, :]
            labels = np.argmin(d, axis=1)
            for j in range(len(c)):
                c[j] = x[labels == j].mean(axis=0)

    def _em_steps(self) -> None:
        """Responsibilities and weighted means on small arrays."""
        x, c = self.small, self.centres
        for _ in range(60):
            d = ((x[:, None, :] - c[None]) ** 2).sum(-1)
            logp = -0.5 * d
            logp -= logp.max(1, keepdims=True)
            p = np.exp(logp)
            p /= p.sum(1, keepdims=True)
            c = (p.T @ x) / p.sum(0)[:, None]

    def _gauss_newton(self) -> None:
        """Monomial values of a few points, and the normal matrix of a
        Jacobian of monomial columns."""
        jac = np.empty((len(self.expo), 15 * 31))
        for i, p in enumerate(self.points):
            mono = np.prod(p[None, :] ** self.expo, axis=1)
            jac[:, i] = mono
            jac[:, 15 + 30 * i: 15 + 30 * (i + 1)] = mono[:, None] * self.expo / p[None, :]
        jac.T @ jac

    def _column_moments(self) -> None:
        """Means of products of column triples over many rows."""
        x = self.rows
        for a, b, c in itertools.islice(itertools.combinations_with_replacement(range(10), 3), 40):
            float(np.mean(x[:, a] * x[:, b] * x[:, c]))

    def _row_e_step(self) -> None:
        """Log-densities, log-sum-exp and responsibilities over many rows."""
        x, c = self.rows, self.row_centres
        d = np.sum(x**2, axis=1)[:, None] - 2.0 * x @ c.T + np.sum(c**2, axis=1)[None, :]
        logp = -0.5 * d
        top = logp.max(1, keepdims=True)
        norm = top + np.log(np.exp(logp - top).sum(1, keepdims=True))
        resp = np.exp(logp - norm)
        resp.T @ x

    def time(self) -> float:
        """Wall-clock seconds of one pass over the reference's parts."""
        t0 = time.perf_counter()
        for part, reps in self.parts:
            for _ in range(reps):
                part()
        return time.perf_counter() - t0
