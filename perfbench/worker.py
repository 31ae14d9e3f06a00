"""One benchmark workload in one process.

run.py starts this with MOMENTGMM_THREADS and the BLAS thread count fixed in
the environment and `src` on PYTHONPATH. It sets up (import, data generation,
one warm-up job), runs the timed closed loop, checks every job and prints one
JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so run.py's spawn time and
    # this process's clock share one origin
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def last_level_cache_bytes() -> int | None:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    blas_threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "MOMENTGMM_THREADS": os.environ.get("MOMENTGMM_THREADS"),
        "last_level_cache_bytes": last_level_cache_bytes(),
        "commit": git_commit(),
        "valid": blas_threads <= nproc,
    }


def run_checked(workload, i: int):
    """Run job i once; returns (result, latency, failure messages), where the
    result is None for a job that raised and a failing job gives one message."""
    from workloads import check_fit

    t0 = time.perf_counter()
    try:
        res = workload.run_job(i)
    except Exception as exc:  # a failing job is counted, never fatal
        return None, time.perf_counter() - t0, [f"job {i}: {type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - t0
    problems = [f"job {i}: {p}" for f in res.fits for p in check_fit(f)]
    return res, latency, problems[:1]


def closed_loop(workload, seconds: float, min_jobs: int, reference):
    """Run jobs back to back for `seconds`, and for at least `min_jobs` jobs,
    timing the reference computation before the first job and after each.

    Returns (results, latencies, reference times, failure messages); there is
    one more reference time than there are jobs.
    """
    results, latencies, failures = [], [], []
    ref_times = [reference.time()]
    start = time.perf_counter()
    while len(results) < min_jobs or time.perf_counter() - start < seconds:
        res, latency, problems = run_checked(workload, len(results))
        ref_times.append(reference.time())
        results.append(res)
        latencies.append(latency)
        failures += problems
    return results, latencies, ref_times, failures


def paired_loop(workload, seconds: float, tracer):
    """Run each job index twice back to back, once untraced and once with the
    tracer installed, for `seconds` and at least one pair. The order flips
    from pair to pair, so host speed drift reaches both modes alike.

    Returns (traced results, [(untraced latency, traced latency)], failure
    messages of both modes).
    """
    traced_results, pairs, failures = [], [], []
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start < seconds:
        latency = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.job = i
                with tracer.installed():
                    res, latency[traced], problems = run_checked(workload, i)
                traced_results.append(res)
            else:
                _, latency[traced], problems = run_checked(workload, i)
            failures += problems
        pairs.append((latency[False], latency[True]))
        i += 1
    return traced_results, pairs, failures


def job_costs(latencies: list[float], ref_times: list[float]) -> list[float]:
    """Each job's latency over the mean of the reference times on either side
    of it; ref_times holds one more entry than latencies."""
    return [2.0 * t / (a + b) for t, a, b in zip(latencies, ref_times, ref_times[1:])]


def p50_p90(values: list[float]) -> tuple[float, float]:
    p90 = (
        statistics.quantiles(values, n=10, method="inclusive")[8]
        if len(values) > 1 else values[0]
    )
    return statistics.median(values), p90


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write traced spans here (JSONL)")
    args = parser.parse_args(argv)

    import momentgmm

    if Path(momentgmm.__file__).resolve().parent != ROOT / "src" / "momentgmm":
        print(f"momentgmm imported from {momentgmm.__file__}, not this checkout",
              file=sys.stderr)
        return 1
    import workloads

    workload = workloads.make(args.workload, args.seed)
    workload.warm_up()
    setup_s = monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"setup_s": setup_s, "env": environment()}
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        traced, pairs, failures = paired_loop(workload, args.seconds, tracer)
        if args.spans:
            tracer.dump(args.spans)
        metrics = layer_metrics(tracer.spans, len(traced))
        fits = [f for res in traced if res is not None for f in res.fits if not f.get("failure")]
        metrics["gmm.em_fit.iters"] = statistics.mean(f["iterations"] for f in fits)
        metrics["gmm.em_fit.converged_ratio"] = statistics.mean(float(f["converged"]) for f in fits)
        diag = metrics["waring.simultaneous_diagonalize.calls"]
        metrics["waring.pencil.useful_ratio"] = (
            metrics["waring.decompose.calls"] / diag if diag else None
        )
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(t / p for p, t in pairs) - 1.0
        )
        out.update(
            attempted=2 * len(pairs),
            failures=failures,
            metrics=metrics,
            pairs=pairs,
        )
    else:
        from reference import Reference

        reference = Reference(workload.reference_parts)
        reference.time()  # warm-up, and builds its inputs
        results, latencies, ref_times, failures = closed_loop(
            workload, args.seconds, workload.quality_jobs, reference
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        costs = job_costs(latencies, ref_times)
        cost_p50, cost_p90 = p50_p90(costs)
        job_p50, job_p90 = p50_p90(latencies)
        metrics = {
            "job_cost.p50": cost_p50,
            "job_cost.p90": cost_p90,
            "jobs_per_ref": len(costs) / math.fsum(costs),
            "peak_rss_mb": peak_rss_mb,
            "jobs_per_s": len(latencies) / math.fsum(latencies),
            "job_s.p50": job_p50,
            "job_s.p90": job_p90,
            "reference_s.p50": statistics.median(ref_times),
            "fail_ratio": len(failures) / len(results),
        }
        metrics.update(workloads.quality(workload, results))
        out.update(
            attempted=len(results),
            failures=failures,
            metrics=metrics,
            samples=len(costs),
            beyond_p90=sum(c > cost_p90 for c in costs),
            latencies=latencies,
            reference_times=ref_times,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
