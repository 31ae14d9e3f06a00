"""The benchmark workloads: inputs made from the workload seed, the timed job,
the correctness checks on each job's outputs and the quality metrics.

Generator parameters live in spec.json next to this file. Import this module
only after `momentgmm` is importable and the thread environment is fixed
(worker.py does both).
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from momentgmm import cli, gmm

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())

# Criterion 8: no relative log-likelihood drop beyond this between EM steps
MAX_LOGLIK_DROP = 1e-7
WEIGHT_SUM_TOL = 1e-9
SEED_HIGH = 2**31 - 1


def job_seed(workload_seed: int, i: int) -> int:
    """Seed of job i: every job of a run gets its own input."""
    return int(np.random.default_rng([workload_seed, i]).integers(SEED_HIGH))


def sample_seed(workload_seed: int, k: int) -> int:
    """Seed of a workload's k-th sample, a stream apart from the job seeds."""
    return int(np.random.default_rng([workload_seed, k, 1]).integers(SEED_HIGH))


@dataclass
class JobResult:
    fits: list[dict]  # rows as cli.fit_once returns them
    moments_best_ari_pct: float | None = None  # study only


class Study:
    """One job is the paper's harness call: cli.run_benchmark with one
    replicate and all four initializers; jobs alternate Examples 1 and 2."""

    def __init__(self, gen: dict, seed: int):
        models = []
        for key in ("example1", "example2"):
            published = gen["models"][key]
            weights = np.asarray(published["weights"])
            # the published vectors sum to 1 +- 1e-4, which GmmParams rejects
            models.append(dict(published, weights=list(weights / weights.sum())))
        self.models = models
        self.gen = gen
        self.n = gen["n"]
        self.seed = seed
        self.quality_jobs = gen["quality_jobs"]

    def config(self, i: int) -> dict:
        return {
            "model": self.models[i % 2],
            "n": self.n,
            "replicates": self.gen["replicates"],
            "initializers": self.gen["initializers"],
            "master_seed": job_seed(self.seed, i),
        }

    def run_job(self, i: int) -> JobResult:
        summary, rows = cli.run_benchmark(self.config(i))
        return JobResult(rows, summary["shares"]["moments"]["best_ari_pct"])

    def warm_up(self) -> None:
        # a fixed input, so that set-up time does not vary with the seed's
        # job content (study jobs differ up to 2x in length)
        cli.run_benchmark(dict(self.config(0), master_seed=0))

    def recovery(self, i: int, fits: list[dict]) -> tuple[np.ndarray, np.ndarray]:
        """(moments start means before EM, true means) of job i's moments fit.

        run_benchmark samples replicate 0 of a one-replicate run with
        master_seed and fits with the same seed; the moments fit is redone
        here, untimed, and its EM result compared with the job's row so that
        a change in that derivation fails loudly instead of skewing the metric.
        """
        cfg = self.config(i)
        model = gmm.GmmParams.from_json(json.dumps(cfg["model"]))
        seed = cfg["master_seed"]
        data, _ = gmm.sample(model, cfg["n"], rng_seed=seed)
        start, fallback = gmm.init_moments(data, model.n_components, rng_seed=seed)
        row = next(f for f in fits if f["initializer"] == "moments")
        redone = gmm.em_fit(data, model.n_components, start, rng_seed=seed)
        if fallback != row["fallback"] or redone.loglik_trace[-1] != row["loglik"]:
            raise RuntimeError(
                "study: redoing the moments fit of master_seed "
                f"{seed} no longer reproduces run_benchmark's row"
            )
        return start.means, model.means


class FitOnceMoments:
    """One job is cli.fit_once with the moments initializer on one of the
    generator's `samples` samples, drawn during set-up, of a random spherical
    mixture; job i uses sample i mod `samples`.

    The mixture comes from the generator's fixed mixture_seed and the samples
    from the workload seed, so that runs with different seeds time the same
    problem, as the study's fixed published examples do. How long a job takes
    depends on its sample (over five single-sample large-n runs the mean job
    cost ranged from 5.7 to 7.2 reference units), so a run spreads its jobs
    over several.
    """

    def __init__(self, gen: dict, seed: int):
        rng = np.random.default_rng(gen["mixture_seed"])
        self.r = gen["r"]
        while True:
            means = gen["mean_scale"] * rng.standard_normal((self.r, gen["m"]))
            if np.linalg.matrix_rank(means) == self.r:
                break
        weights = rng.dirichlet(np.full(self.r, gen["dirichlet_alpha"]))
        variances = rng.uniform(*gen["variance_range"], size=self.r)
        self.model = gmm.GmmParams(weights=weights, means=means, variances=variances)
        self.samples = [
            gmm.sample(self.model, gen["n"], rng_seed=sample_seed(seed, k))
            for k in range(gen["samples"])
        ]
        self.n = gen["n"]
        self.seed = seed
        self.quality_jobs = gen["quality_jobs"]

    def run_job(self, i: int) -> JobResult:
        data, labels = self.samples[i % len(self.samples)]
        return JobResult([cli.fit_once(data, self.r, "moments", job_seed(self.seed, i), truth=labels)])

    def warm_up(self) -> None:
        data, labels = self.samples[0]
        cli.fit_once(data, self.r, "moments", 0, truth=labels)

    def recovery(self, i: int, fits: list[dict]) -> tuple[np.ndarray, np.ndarray]:
        """(moments start means before EM, true means) of job i, redone untimed."""
        seed = job_seed(self.seed, i)
        data = self.samples[i % len(self.samples)][0]
        start, fallback = gmm.init_moments(data, self.r, rng_seed=seed)
        if fallback != fits[0]["fallback"]:
            raise RuntimeError(f"redoing init_moments for seed {seed} changed its fallback flag")
        return start.means, self.model.means


def make(name: str, seed: int):
    """Build workload `name` from `seed`; this is the data-generation part of set-up."""
    kind = Study if name == "study" else FitOnceMoments
    workload = kind(SPEC["workloads"][name]["generator"], seed)
    workload.reference_parts = SPEC["workloads"][name]["reference"]
    return workload


def check_fit(row: dict) -> list[str]:
    """Correctness problems of one fit row; empty when the fit is sound."""
    name = row["initializer"]
    if row.get("failure"):
        return [f"{name}: fit failed: {row.get('message', '')}"]
    problems = []
    trace = np.asarray(row["loglik_trace"], dtype=float)
    if not np.all(np.isfinite(trace)):
        problems.append(f"{name}: non-finite log-likelihood")
    else:
        drops = -np.diff(trace) / np.maximum(np.abs(trace[:-1]), 1.0)
        if np.max(drops, initial=0.0) > MAX_LOGLIK_DROP:
            problems.append(f"{name}: EM log-likelihood dropped by {np.max(drops):.3g}")
    p = row["params"]
    if not np.all(np.isfinite(p.weights)) or abs(p.weights.sum() - 1.0) > WEIGHT_SUM_TOL:
        problems.append(f"{name}: weights not finite or not summing to 1")
    if not np.all(np.isfinite(p.means)):
        problems.append(f"{name}: non-finite means")
    if not np.all(np.isfinite(p.variances)) or np.any(p.variances <= 0):
        problems.append(f"{name}: variances not finite and positive")
    return problems


def recovery_error(recovered: np.ndarray, truth: np.ndarray) -> float:
    """||matched recovered means - true means||_F / ||true means||_F."""
    cost = np.sum((recovered[:, None, :] - truth[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.linalg.norm(recovered[rows] - truth[cols]) / np.linalg.norm(truth))


def quality(workload, results: list[JobResult | None]) -> dict[str, float | None]:
    """Quality metrics over the quality set, the first `quality_jobs` jobs;
    None marks a metric that does not apply to the workload."""
    ari, loglik, errors, fallbacks, best = [], [], [], [], []
    for i, res in enumerate(results[: workload.quality_jobs]):
        if res is None:
            continue
        fits = [f for f in res.fits if not f.get("failure")]
        ari += [f["ari"] for f in fits]
        loglik += [f["loglik"] / workload.n for f in fits]
        moments = [f for f in fits if f["initializer"] == "moments"]
        fallbacks += [f["fallback"] for f in moments]
        if moments:
            errors.append(recovery_error(*workload.recovery(i, res.fits)))
        if res.moments_best_ari_pct is not None:
            best.append(res.moments_best_ari_pct)
    return {
        "fallback_ratio": float(np.mean(fallbacks)) if fallbacks else None,
        "ari.mean": float(np.mean(ari)) if ari else None,
        "loglik_per_point.mean": float(np.mean(loglik)) if loglik else None,
        "recovery_err.p50": statistics.median(errors) if errors else None,
        "moments.best_ari_pct": float(np.mean(best)) if best else None,
    }
