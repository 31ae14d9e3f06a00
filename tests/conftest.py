import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentgmm
from momentgmm import GmmParams


@pytest.fixture(scope="session")
def example1_params() -> GmmParams:
    """Four overlapping clusters in R^6, one of them tiny; the published
    probability vector sums to 1.0001 so it is renormalized here."""
    weights = np.array([0.2782, 0.0139, 0.3324, 0.3756])
    weights = weights / weights.sum()
    means = np.array(
        [
            [-5.0, -9.0, 8.0, 8.0, 2.0, 5.0],
            [-7.0, 6.0, -1.0, 6.0, -8.0, -10.0],
            [-4.0, -10.0, -5.0, 1.0, 5.0, 4.0],
            [-6.0, 6.0, 5.0, 4.0, -1.0, -1.0],
        ]
    )
    variances = np.array([1.5, 2.5, 5.0, 15.0])
    return GmmParams(weights=weights, means=means, variances=variances)


@pytest.fixture(scope="session")
def example2_params() -> GmmParams:
    """Three heavily overlapping clusters in R^5 with a small first cluster."""
    weights = np.array([0.0930, 0.2151, 0.6918])
    weights = weights / weights.sum()
    means = np.array(
        [
            [7.0, -4.0, -4.0, -6.0, -4.0],
            [2.0, -4.0, -6.0, -10.0, -3.0],
            [4.0, -4.0, -5.0, 6.0, 1.0],
        ]
    )
    variances = np.array([5.0, 10.0, 15.0])
    return GmmParams(weights=weights, means=means, variances=variances)


def random_independent_points(rng, r, m, scale=1.0):
    """Gaussian points re-drawn until they are linearly independent."""
    while True:
        pts = scale * rng.standard_normal((r, m))
        if np.linalg.matrix_rank(pts) == r:
            return pts


def run_with_blas_threads(args, threads):
    """Runs `python args` in a fresh process on `threads` OpenBLAS threads,
    which OpenBLAS reads once, when numpy is first imported, and returns its
    standard output."""
    src = str(Path(momentgmm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
        check=True, timeout=300,
    ).stdout


def summaries_per_blas_thread_count(cfg, tmp_path, counts=("1", "2")):
    """summary.json bytes of `momentgmm benchmark` on the config file `cfg`,
    one fresh process per OpenBLAS thread count."""
    blobs = []
    for threads in counts:
        out_dir = tmp_path / f"threads{threads}"
        run_with_blas_threads(
            ["-m", "momentgmm.cli", "benchmark",
             "--config", str(cfg), "--out-dir", str(out_dir), "--quiet"], threads,
        )
        blobs.append((out_dir / "summary.json").read_bytes())
    return blobs
