"""momentgmm benchmark: one workload, one run.

    python3 perfbench/run.py --workload study --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout; the library is imported from `src`,
nothing is installed. The workload runs in one worker process whose
environment fixes MOMENTGMM_THREADS=1 and one BLAS thread; further
set-up-only processes run one after another before and after it, so that
`setup_s` is a median.

An untraced run times the workload's fixed numpy reference computation
(reference.py) before the first job and after each; the timing metrics
BENCHMARK.json gates are job costs, each job's latency over the reference
times on either side of it, so that the shared host's speed drift cancels. The wall-clock timings are
printed too, as report-only metrics.

The report lines give every end-to-end metric of BENCHMARK.json and the
report-only metrics of spec.json (n/a where one does not apply), or with
--trace 1 every per-layer metric, each with its unit, and the environment.
The last line is one JSON object with `correct`, `attempted`, `failed` and
the metrics that BENCHMARK.json lists for the mode. A traced run runs every
job index twice, untraced and traced; the paired latencies give
trace.overhead_pct. Full results, and the spans of a traced run, go to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEADLINE_S = 170.0
SPEC = json.loads((HERE / "spec.json").read_text())


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(SPEC["load"]["env"])
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline: float, *extra: str) -> dict:
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(spawned_at), *extra,
    ]
    # subprocess.run kills and reaps the worker if the deadline passes
    proc = subprocess.run(
        cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value) -> str:
    return "n/a" if value is None else format(value, ".6g")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            result = run_worker(args, deadline, "--spans", str(stem) + "-spans.jsonl")
        else:
            # the set-up-only processes run half before and half after the
            # workload process, so that the median samples the host's speed
            # over the whole run and not only at its start
            extra = SPEC["load"]["setup_repeats"] - 1
            setups = [
                run_worker(args, deadline, "--setup-only")["setup_s"]
                for _ in range(extra // 2)
            ]
            result = run_worker(args, deadline)
            setups.append(result["setup_s"])
            setups += [
                run_worker(args, deadline, "--setup-only")["setup_s"]
                for _ in range(extra - extra // 2)
            ]
            result["setup_runs_s"] = setups
            result["metrics"]["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    listed = contract["per_layer"] if args.trace else contract["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if not args.trace:
        units.update((m["name"], m["unit"]) for m in SPEC["report_only"])
    failed = len(result["failures"])
    correct = failed == 0 and result["env"]["valid"]

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} jobs={result['attempted']}")
    for name, unit in units.items():
        note = ""
        if name in ("job_cost.p50", "job_s.p50", "job_s.p90"):
            note = f"  ({result['samples']} samples)"
        elif name == "job_cost.p90":
            note = f"  ({result['samples']} samples, {result['beyond_p90']} beyond p90)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.4f}" for s in result["setup_runs_s"]) + ")"
        print(f"  {name:<44} {fmt(metrics.get(name)):>14} {unit}{note}")
    for msg in result["failures"]:
        print(f"  FAILED {msg}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    with open(str(stem) + ".json", "w") as fh:
        json.dump(dict(result, units=units, correct=correct), fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
