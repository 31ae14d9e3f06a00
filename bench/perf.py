"""Stage timings of momentgmm with quality numbers beside them, as one JSON file.

    python bench/perf.py OUT.json [--repeats 5] [--compare PREV.json]

Runs from the root of a source checkout and imports the library from `src`.
BLAS runs on one thread unless OPENBLAS_NUM_THREADS (or OMP_/MKL_NUM_THREADS)
is set; the file records the value used. On Examples 1 and 2 (the published
mixtures, n = 1000, sample seeds 0-9) it times:

- each initializer, the call `cli.run_benchmark` makes, and `init_kmeans`'
  two stages inside those calls (KMEANS_STAGES): k-means++ seeding of its 50
  runs and their Lloyd iterations from those seeds;
- the final EM fits of a study replicate: the four starts fitted one by one
  with `em_fit`, and the same four as one `em_fits` stack, with a check that
  the two give the same results;
- one `e_step` and one `m_step`, also at n = 100000 on Example 1 from a
  random start (`large_n_steps`) and on the first `recover-hidim` fit sample
  below from its moments start (`recover_hidim_steps`), where 14-19 % of
  its E steps' log terms lie more than 700 below their column's maximum;
- `cli.fit_once` with the moments start on the samples of the benchmark's
  `large-n` workload (6 samples, n = 100000, m = 10, r = 5; workload seed 3)
  and `recover-hidim` workload (8 samples, n = 5000, m = 30, r = 15; workload
  seed 1), sample k fitted with the seed of job k, end to end and by stage
  (FIT_STAGES): the frame, the second-order statistics, M3 in W with the
  projection W^t z it is formed from, the `decompose` call and its parts (the
  whitening with its joint diagonalization, the weight solve, `refine`), the
  two `solve_weights` calls for the M2 scales and the M1 variances
  (`recover_solves`), the E and M kernels of every EM iteration (`em`) and
  the hard labels. Each stage carries its wrapped calls per fit
  (`calls_per_fit`); the `decompose` stage also carries each fit's
  joint-diagonalization sweeps and `refine`'s damping factorizations
  (`cho_factor` calls, failed ones included).

A stage is the time that real library calls spend inside the functions its
table names, wrapped by name (`inside`) while the whole call runs, in repeats
of its own with only its names wrapped. So a stage runs in the cache state
the rest of the call leaves it in, and a kernel change touches this file only
when it renames a function in a table. Stages timed minutes apart on a shared
host need not add up to `fit_once`; each workload's `stage_coverage` is the
share of the fits' wall time spent inside the stages that do not nest
(TOP_STAGES), all wrapped at once in one pass, the median over the repeats.

A repeat makes `calls` back-to-back calls of the timed work, enough that it
lasts at least REPEAT_S, counted from one call before the first repeat. Each
timing is the wall time per sample (or per call), averaged over one repeat's
calls; the file gives the median and minimum over the repeats, and `calls`.
Before the first repeat of a stage and after each it times perfbench's own
reference computation (reference.py, imported read-only) with the parts
spec.json gives the matching workload: `study` for Examples 1 and 2,
`large-n` for the n = 100000 stages and `recover-hidim` for its own. Those
times are stored as `ref_s`, and `median_ref` is the median over the repeats
of each one's time over the mean of the two reference times around it, in
reference units as perfbench scores a job. The quality beside a timing is
that of the EM fit the timed work leads to, from the same start with the
same seed as `cli.fit_once`: its final log-likelihood, ARI against the true
labels and iteration count, per sample seed; the workload stages also carry
the recovery error of the start (`workloads.recovery_error`). Timings vary
with the host; compare two files only when they come from the same machine.

It also evaluates the moments start on the 32 `recover-hidim` samples of
workload seeds HIDIM_SEEDS (8 each), sample k fitted with seed k by
`init_moments`, then `em_fit` (`recover_hidim_32`): per sample the start's
recovery error, its joint-diagonalization sweeps, `refine`'s damping
factorizations, the EM iterations, whether the fit reaches the truth
log-likelihood (within 1e-6 relative of EM run from the true parameters) and
whether it is one-point (a component with under two points of total
responsibility), and their row: the median error and the count under 0.1,
the two fit counts, the mean sweeps per joint diagonalization, the mean
damping solves per fit and the summed iterations.

With --compare, the stages present in both files whose `median_ref` rose or
fell by more than a factor 1 + COMPARE_CHANGE against PREV.json, slower or
faster, each with both raw medians beside it, and every quality or count
list that differs, are printed and recorded under "compare"; nothing fails
on them. A shared host's speed drifts by more than that within minutes, and
the reference drifts with it, so the ratio holds steadier than a raw time.
Against a file without reference times (such as BENCH_19.json) the raw
medians are compared, and the output says so. A quality change that several
stages of one workload carry alike is given once, with the number of those
stages.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the thread pin)
import scipy  # noqa: E402

from momentgmm import cli, gmm, metrics, moments, waring  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's own sample generation)
from reference import Reference  # noqa: E402  (the benchmark's host-speed reference)

SEEDS = range(10)
N = 1000
LARGE_N = 100_000
FIT_WORKLOAD_SEEDS = {"large-n": 3, "recover-hidim": 1}
COMPARE_CHANGE = 0.20
HIDIM_SEEDS = (1, 5, 12, 13)
REPEAT_S = 0.02  # a shorter repeat is lost in the noise of the reference around it
QUALITY_KEYS = ("loglik", "ari", "iterations", "recovery_error", "sweeps", "refine_solves",
                "reaches_truth", "one_point", "recovery_error_median",
                "recovery_error_under_0_1", "sweeps_per_call", "refine_solves_per_fit")
# per stage, the library functions whose calls it times (`inside`)
FIT_STAGES = {
    "frame": ((cli, "_frame"),),
    "second_order": ((moments, "_sample_moments"),),
    "m3_in_w": ((moments, "_m3_in_w"),),
    "decompose": ((moments, "decompose"),),
    "decompose_whitened_points": ((waring, "_whitened_points"),),
    "decompose_weights": ((waring, "solve_weights"),),
    "decompose_refine": ((waring, "refine"),),
    "recover_solves": ((moments, "solve_weights"),),
    "em": ((gmm, "_e_kernel"), (gmm, "_m_kernel")),
    "labels": ((gmm, "_first_best"),),
}
# the stages that do not nest in one another: all but decompose's parts
TOP_STAGES = tuple(stage for stage in FIT_STAGES if not stage.startswith("decompose_"))
KMEANS_STAGES = {"seeding": ((gmm, "_kmeans_pp_seeds"),), "lloyd": ((gmm, "_lloyd"),)}


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


def reference(workload: str) -> Reference:
    """perfbench's reference computation of `workload`, its inputs built."""
    ref = Reference(workloads.SPEC["workloads"][workload]["reference"])
    ref.time()
    return ref


def timings(fn, repeats: int, ref: Reference) -> dict:
    """Median and minimum over `repeats` repeats of the mean of `calls`
    back-to-back calls of fn, which returns the seconds it measured, with
    `calls` set from one call before them so that a repeat lasts at least
    REPEAT_S; the seconds of `ref` before the first repeat and after each;
    and the median over the repeats of each one's seconds over the mean of
    the two reference times around it, as perfbench scores a job."""
    t0 = time.perf_counter()
    fn()
    calls = math.ceil(REPEAT_S / (time.perf_counter() - t0))
    times, ref_s = [], [ref.time()]
    for _ in range(repeats):
        times.append(statistics.fmean(fn() for _ in range(calls)))
        ref_s.append(ref.time())
    ratios = [t / statistics.mean(pair) for t, pair in zip(times, zip(ref_s, ref_s[1:]))]
    return {"median_s": statistics.median(times), "min_s": min(times), "repeats": repeats,
            "calls": calls, "ref_s": ref_s, "median_ref": statistics.median(ratios)}


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


def sweeps_and_solves(call):
    """What `call` returns, with the sweeps of each joint diagonalization and
    the `cho_factor` calls of `refine` it made."""
    sweeps, inner = [], waring.simultaneous_diagonalize

    def recording(*args, **kwargs):
        v, done = inner(*args, **kwargs)
        sweeps.append(done)
        return v, done

    with mock.patch.object(waring, "simultaneous_diagonalize", recording), \
            mock.patch.object(waring, "cho_factor", wraps=waring.cho_factor) as solves:
        return call(), sweeps, solves.call_count


def inside(calls, names) -> tuple[float, float]:
    """Seconds per call of `calls`, thunks run in order, spent inside the
    library functions `names`, (module, name) pairs each wrapped by name
    while the calls run, and the wrapped calls made per call."""
    spent, entered = 0.0, 0

    def timed(fn):
        def wrapper(*args, **kwargs):
            nonlocal spent, entered
            entered += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent += time.perf_counter() - t0
        return wrapper

    with contextlib.ExitStack() as stack:
        for module, name in names:
            stack.enter_context(mock.patch.object(module, name, timed(getattr(module, name))))
        for call in calls:
            call()
    return spent / len(calls), entered / len(calls)


def bench_example(model: gmm.GmmParams, repeats: int, ref: Reference) -> dict:
    r = model.n_components
    samples = [gmm.sample(model, N, rng_seed=seed) for seed in SEEDS]
    truths = [labels for _, labels in samples]
    out = {"initializers": {}}
    starts, thunks = {}, {}
    for name in cli.INITIALIZERS:
        calls = thunks[name] = [
            lambda name=name, data=data, seed=seed: cli.run_initializer(name, data, r, seed)
            for seed, (data, _) in zip(SEEDS, samples)
        ]
        entry = timings(lambda: per_sample(calls), repeats, ref)
        starts[name] = [call()[0] for call in calls]
        fits = [
            gmm.em_fit(data, r, start, rng_seed=seed)
            for seed, (data, _), start in zip(SEEDS, samples, starts[name])
        ]
        out["initializers"][name] = entry | quality(fits, truths)
    kmeans_quality = {k: v for k, v in out["initializers"]["kmeans"].items() if k in QUALITY_KEYS}
    out["kmeans_stages"] = {
        stage: timings(lambda names=names: inside(thunks["kmeans"], names)[0], repeats, ref)
        | kmeans_quality
        for stage, names in KMEANS_STAGES.items()
    }

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
            repeats, ref,
        ),
        "em_fits_stack": timings(
            lambda: per_sample([lambda s=s, d=d: stack(s, d) for s, (d, _) in zip(SEEDS, samples)]),
            repeats, ref,
        ),
        "stack_equals_solo": same,
    } | {
        name: quality([fits[k] for fits in stacked], truths) for k, name in enumerate(starts)
    }
    out["steps"] = bench_steps(samples[0], starts["kmeans"][0], repeats, ref)
    return out


def bench_steps(sample, start: gmm.GmmParams, repeats: int, ref: Reference) -> dict:
    """One e_step and one m_step on `sample` from `start`, each with the
    log-likelihood and ARI of the mixture it yields or scores."""
    data, truth = sample
    resp, loglik = gmm.e_step(start, data)
    after = gmm.m_step(data, resp)
    e_resp, e_loglik = gmm.e_step(after, data)
    return {
        "n": len(data),
        "e_step": timings(lambda: per_sample([lambda: gmm.e_step(start, data)]), repeats, ref)
        | {"loglik": loglik, "ari": metrics.ari(np.argmax(resp, axis=1), truth)},
        "m_step": timings(lambda: per_sample([lambda: gmm.m_step(data, resp)]), repeats, ref)
        | {"loglik": e_loglik, "ari": metrics.ari(np.argmax(e_resp, axis=1), truth)},
    }


def bench_fit(workload: str, repeats: int, ref: Reference) -> dict:
    """fit_once with the moments start on the samples of `workload` at its
    FIT_WORKLOAD_SEEDS seed, sample k fitted with the seed of job k, end to
    end and by stage (FIT_STAGES), each stage with its wrapped calls per fit.
    Every entry carries the fits' quality and the recovery error of their
    starts, as the benchmark computes it; `decompose` carries each fit's
    joint-diagonalization sweeps and refine's damping factorizations.
    `stage_coverage` is the share of the fits spent inside the TOP_STAGES."""
    seed = FIT_WORKLOAD_SEEDS[workload]
    work = workloads.make(workload, seed)
    r, samples = work.r, work.samples
    seeds = [workloads.job_seed(seed, k) for k in range(len(samples))]
    fits = [lambda d=d, s=s, t=t: cli.fit_once(d, r, "moments", s, truth=t)
            for s, (d, t) in zip(seeds, samples)]
    rows = [fit() for fit in fits]
    fit_quality = {key: [row[key] for row in rows] for key in ("loglik", "ari", "iterations")}
    fit_quality["recovery_error"] = [
        workloads.recovery_error(*work.recovery(k, [row])) for k, row in enumerate(rows)
    ]
    report = {"fit_once": timings(lambda: per_sample(fits), repeats, ref) | fit_quality}
    for stage, names in FIT_STAGES.items():
        report[stage] = (timings(lambda names=names: inside(fits, names)[0], repeats, ref)
                         | {"calls_per_fit": inside(fits, names)[1]} | fit_quality)
    counts = [sweeps_and_solves(fit)[1:] for fit in fits]
    report["decompose"] |= {"sweeps": [sum(sweeps) for sweeps, _ in counts],
                            "refine_solves": [solves for _, solves in counts]}
    return {"workload": workload, "workload_seed": seed, "n": work.n, "r": r,
            "sample_fit_seeds": seeds, "stages": report,
            "stage_coverage": stage_coverage(fits, repeats)}


def stage_coverage(calls, repeats: int) -> float:
    """The median over `repeats` passes of `calls` of the share of a pass's
    wall time spent inside the TOP_STAGES, all wrapped at once."""
    names = [pair for stage in TOP_STAGES for pair in FIT_STAGES[stage]]
    shares = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        spent, _ = inside(calls, names)
        shares.append(spent * len(calls) / (time.perf_counter() - t0))
    return statistics.median(shares)


def moved(new: float, old: float) -> str | None:
    """"slower" or "faster" when new and old differ by more than a factor
    1 + COMPARE_CHANGE, else None."""
    if new > (1 + COMPARE_CHANGE) * old:
        return "slower"
    return "faster" if old > (1 + COMPARE_CHANGE) * new else None


def hidim_quality(seeds=HIDIM_SEEDS) -> dict:
    """The moments start and its EM fit on the `recover-hidim` samples of
    each workload seed in `seeds`, sample k fitted with seed k: per sample
    the recovery error of the start, the sweeps of its joint diagonalization,
    refine's damping factorizations, the EM iterations, whether the fit
    reaches the truth log-likelihood and whether it is one-point; and their
    row."""
    out = {key: [] for key in ("recovery_error", "sweeps", "refine_solves", "iterations",
                               "reaches_truth", "one_point")}
    for seed in seeds:
        work = workloads.make("recover-hidim", seed)
        for k, (data, _) in enumerate(work.samples):
            (start, _), sweeps, solves = sweeps_and_solves(
                lambda: gmm.init_moments(data, work.r, rng_seed=k))
            fit = gmm.em_fit(data, work.r, start, rng_seed=k)
            best = gmm.em_fit(data, work.r, work.model, rng_seed=k).loglik_trace[-1]
            out["recovery_error"].append(workloads.recovery_error(start.means, work.model.means))
            out["sweeps"] += sweeps
            out["refine_solves"].append(solves)
            out["iterations"].append(fit.iterations)
            out["reaches_truth"].append(bool(fit.loglik_trace[-1] >= best - 1e-6 * abs(best)))
            out["one_point"].append(bool(gmm.e_step(fit.params, data)[0].sum(axis=0).min() < 2.0))
    errors = out["recovery_error"]
    return {"workload_seeds": list(seeds)} | out | {"row": {
        "recovery_error_median": statistics.median(errors),
        "recovery_error_under_0_1": sum(e < 0.1 for e in errors),
        "reaches_truth": sum(out["reaches_truth"]),
        "one_point": sum(out["one_point"]),
        "sweeps_per_call": statistics.fmean(out["sweeps"]),
        "refine_solves_per_fit": statistics.fmean(out["refine_solves"]),
        "iterations": sum(out["iterations"]),
    }}


def compare(new: dict, old: dict, path: str = "") -> list[str]:
    """Lines naming each stage of both reports whose median over the host
    reference (`median_ref`) moved by more than a factor 1 + COMPARE_CHANGE
    in `new`, slower or faster, with the raw medians beside it, or whose raw
    median did where either stage lacks reference times; and each quality
    list that differs, once for the stages of a workload that carry it alike
    (`collapse_stages`)."""
    lines = []
    for key in new.keys() & old.keys():
        a, b, where = new[key], old[key], f"{path}/{key}"
        if isinstance(a, dict) and isinstance(b, dict):
            if "median_s" in a and "median_s" in b:
                raw = f"median {b['median_s']:.6g} -> {a['median_s']:.6g} s"
                if "median_ref" in a and "median_ref" in b:
                    if change := moved(a["median_ref"], b["median_ref"]):
                        lines.append(f"{change} {where}: {b['median_ref']:.6g} -> "
                                     f"{a['median_ref']:.6g} ref ({raw})")
                elif change := moved(a["median_s"], b["median_s"]):
                    lines.append(f"{change} {where}, raw, no reference times: {raw}")
            nested = compare(a, b, where)
            lines += collapse_stages(nested, where) if key == "stages" else nested
        elif key in QUALITY_KEYS and a != b:
            pairs = zip(b, a) if isinstance(a, list) else [(b, a)]
            changed = (f"[{i}] {u!r} -> {v!r}" for i, (u, v) in enumerate(pairs) if u != v)
            lines.append(f"quality {where}: " + ", ".join(changed))
    return sorted(lines)


def collapse_stages(lines: list[str], where: str) -> list[str]:
    """`lines` of the stages under `where`, with each quality change that
    several stages carry alike (every stage of a workload carries its fits'
    quality) given once, its stage as * and the number of stages beside it."""
    prefix = f"quality {where}/"
    alike: dict[str, list[str]] = {}
    for line in lines:
        if line.startswith(prefix):
            alike.setdefault(line[len(prefix):].split("/", 1)[1], []).append(line)
    out = [line for line in lines if not line.startswith(prefix)]
    for tail, same in alike.items():
        key, changes = tail.split(": ", 1)
        out += same if len(same) == 1 else [f"{prefix}*/{key} in {len(same)} stages: {changes}"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON file to write")
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats per stage")
    parser.add_argument("--compare", metavar="PREV.json",
                        help="report stages over 20%% slower or faster, over the host "
                             "reference, and quality changes against PREV.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    models = examples()
    refs = {name: reference(name) for name in ("study", "large-n", "recover-hidim")}
    report = {
        "environment": environment(),
        "settings": {"n": N, "sample_seeds": list(SEEDS), "repeats": args.repeats},
        "reference": {name: workloads.SPEC["workloads"][name]["reference"] for name in refs},
        "examples": {name: bench_example(model, args.repeats, refs["study"])
                     for name, model in models.items()},
    }
    large = gmm.sample(models["example1"], LARGE_N, rng_seed=0)
    start = gmm.init_random(large[0], models["example1"].n_components, rng_seed=0)
    report["large_n_steps"] = bench_steps(large, start, args.repeats, refs["large-n"])
    seed = FIT_WORKLOAD_SEEDS["recover-hidim"]
    hidim = workloads.make("recover-hidim", seed)
    start, _ = gmm.init_moments(hidim.samples[0][0], hidim.r, rng_seed=workloads.job_seed(seed, 0))
    report["recover_hidim_steps"] = bench_steps(hidim.samples[0], start, args.repeats,
                                                refs["recover-hidim"])
    for name in FIT_WORKLOAD_SEEDS:
        report[f"{name.replace('-', '_')}_fit"] = bench_fit(name, args.repeats, refs[name])
    report["recover_hidim_32"] = hidim_quality()
    print("recover_hidim_32:", json.dumps(report["recover_hidim_32"]["row"]))
    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        lines = compare(report, old)
        if "reference" not in old:
            lines.insert(0, f"{args.compare} has no reference times: stages compared by raw median")
        report["compare"] = {"against": args.compare, "lines": lines}
        print("\n".join(lines) or "no stage slower or faster, no quality changed")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
