"""Stage timings of momentgmm with quality numbers beside them, as one JSON file.

    python bench/perf.py OUT.json [--repeats 5]

Runs from the root of a source checkout and imports the library from `src`.
BLAS runs on one thread unless OPENBLAS_NUM_THREADS (or OMP_/MKL_NUM_THREADS)
is set; the file records the value used. On Examples 1 and 2 (the published
mixtures, n = 1000, sample seeds 0-9) it times:

- each initializer, the call `cli.run_benchmark` makes;
- the final EM fits of a study replicate: the four starts fitted one by one
  with `em_fit`, and the same four as one `em_fits` stack, with a check that
  the two give the same results;
- one `e_step` and one `m_step`, also at n = 100000 on Example 1.

Each timing is the wall time per sample (or per call) of one repeat; the file
gives the median and minimum over the repeats. The quality beside a timing is
that of the EM fit the timed work leads to, from the same start with the same
seed as `cli.fit_once`: its final log-likelihood, ARI against the true labels
and iteration count, per sample seed. Timings vary with the host; compare two
files only when they come from the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the thread pin)
import scipy  # noqa: E402

from momentgmm import cli, gmm, metrics  # noqa: E402

SEEDS = range(10)
N = 1000
LARGE_N = 100_000


def examples() -> dict[str, gmm.GmmParams]:
    """The paper's Examples 1 and 2, from the study workload's spec; their
    published weights sum to 1 +- 1e-4 and are divided by their sum."""
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    models = spec["workloads"]["study"]["generator"]["models"]
    out = {}
    for name in ("example1", "example2"):
        weights = np.asarray(models[name]["weights"], dtype=float)
        out[name] = gmm.GmmParams(
            weights / weights.sum(), models[name]["means"], models[name]["variances"]
        )
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def timings(fn, repeats: int) -> dict:
    """Median and minimum over `repeats` calls of fn, which returns the
    seconds it measured."""
    times = [fn() for _ in range(repeats)]
    return {"median_s": statistics.median(times), "min_s": min(times), "repeats": repeats}


def quality(fits: list[gmm.EmResult], truths: list[np.ndarray]) -> dict:
    return {
        "loglik": [f.loglik_trace[-1] for f in fits],
        "ari": [metrics.ari(f.hard_labels, t) for f, t in zip(fits, truths)],
        "iterations": [f.iterations for f in fits],
    }


def same_fit(a: gmm.EmResult, b: gmm.EmResult) -> bool:
    """Equal traces, flags, parameters and hard labels."""
    return (
        a.loglik_trace == b.loglik_trace
        and (a.iterations, a.converged) == (b.iterations, b.converged)
        and all(np.array_equal(getattr(a.params, k), getattr(b.params, k))
                for k in ("weights", "means", "variances"))
        and np.array_equal(a.hard_labels, b.hard_labels)
    )


def per_sample(calls) -> float:
    """Wall seconds per call of a list of thunks, run in order."""
    t0 = time.perf_counter()
    for call in calls:
        call()
    return (time.perf_counter() - t0) / len(calls)


def bench_example(model: gmm.GmmParams, repeats: int) -> dict:
    r = model.n_components
    samples = [gmm.sample(model, N, rng_seed=seed) for seed in SEEDS]
    truths = [labels for _, labels in samples]
    out = {"initializers": {}}
    starts = {}
    for name in cli.INITIALIZERS:
        calls = [
            lambda name=name, data=data, seed=seed: cli.run_initializer(name, data, r, seed)
            for seed, (data, _) in zip(SEEDS, samples)
        ]
        entry = timings(lambda: per_sample(calls), repeats)
        starts[name] = [call()[0] for call in calls]
        fits = [
            gmm.em_fit(data, r, start, rng_seed=seed)
            for seed, (data, _), start in zip(SEEDS, samples, starts[name])
        ]
        out["initializers"][name] = entry | quality(fits, truths)

    def solo(seed, data):
        return [gmm.em_fit(data, r, s[seed], rng_seed=seed) for s in starts.values()]

    def stack(seed, data):
        return gmm.em_fits(data, r, [s[seed] for s in starts.values()], rng_seed=seed)

    stacked = [stack(seed, data) for seed, (data, _) in zip(SEEDS, samples)]
    same = all(
        same_fit(a, b)
        for seed, (data, _), fits in zip(SEEDS, samples, stacked)
        for a, b in zip(solo(seed, data), fits)
    )
    out["final_em"] = {
        "runs": list(starts),
        "solo_em_fit": timings(
            lambda: per_sample([lambda s=s, d=d: solo(s, d) for s, (d, _) in zip(SEEDS, samples)]),
            repeats,
        ),
        "em_fits_stack": timings(
            lambda: per_sample([lambda s=s, d=d: stack(s, d) for s, (d, _) in zip(SEEDS, samples)]),
            repeats,
        ),
        "stack_equals_solo": same,
    } | {
        name: quality([fits[k] for fits in stacked], truths) for k, name in enumerate(starts)
    }
    out["steps"] = bench_steps(samples[0], starts["kmeans"][0], repeats)
    return out


def bench_steps(sample, start: gmm.GmmParams, repeats: int) -> dict:
    """One e_step and one m_step on `sample` from `start`, each with the
    log-likelihood and ARI of the mixture it yields or scores."""
    data, truth = sample
    resp, loglik = gmm.e_step(start, data)
    after = gmm.m_step(data, resp)
    e_resp, e_loglik = gmm.e_step(after, data)
    return {
        "n": len(data),
        "e_step": timings(lambda: per_sample([lambda: gmm.e_step(start, data)]), repeats)
        | {"loglik": loglik, "ari": metrics.ari(np.argmax(resp, axis=1), truth)},
        "m_step": timings(lambda: per_sample([lambda: gmm.m_step(data, resp)]), repeats)
        | {"loglik": e_loglik, "ari": metrics.ari(np.argmax(e_resp, axis=1), truth)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON file to write")
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats per stage")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    models = examples()
    report = {
        "environment": environment(),
        "settings": {"n": N, "sample_seeds": list(SEEDS), "repeats": args.repeats},
        "examples": {name: bench_example(model, args.repeats) for name, model in models.items()},
    }
    large = gmm.sample(models["example1"], LARGE_N, rng_seed=0)
    start = gmm.init_random(large[0], models["example1"].n_components, rng_seed=0)
    report["large_n_steps"] = bench_steps(large, start, args.repeats)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
