"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks the self-time arithmetic on a hand-built span tree, the job-cost
arithmetic on hand-built timings and that the tracer restores the functions
it wraps, then runs every workload at minimal length, untraced and traced,
and checks that every end-to-end and per-layer metric is printed with its
unit and that the last line keeps the contract.
Takes a little over a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import LAYER_NAMES, Span, Tracer, layer_metrics, self_times  # noqa: E402


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {msg}")


def check_self_times() -> None:
    # run_benchmark [0, 10] holds fit_once [1, 4] (which holds e_step [2, 3]),
    # m_step [3, 6] overlapping it, and em_fit [8, 12] running past its end
    spans = [
        Span("cli.run_benchmark", 0, None, 0.0, 10.0),
        Span("cli.fit_once", 0, 0, 1.0, 4.0),
        Span("gmm.e_step", 0, 1, 2.0, 3.0),
        Span("gmm.m_step", 0, 0, 3.0, 6.0),
        Span("gmm.em_fit", 0, 0, 8.0, 12.0),
    ]
    got = self_times(spans)
    want = [10.0 - 5.0 - 2.0, 3.0 - 1.0, 1.0, 3.0, 4.0]
    check(all(math.isclose(g, w) for g, w in zip(got, want)), f"self times {got} != {want}")

    per_job = layer_metrics(spans + [Span("gmm.e_step", 1, None, 20.0, 21.5)], jobs=2)
    check(per_job["gmm.e_step.calls"] == 1.0, "e_step calls per job")
    check(math.isclose(per_job["gmm.e_step.s"], 1.25), "e_step seconds per job")
    check(math.isclose(per_job["cli.run_benchmark.self_s"], 1.5), "run_benchmark self time per job")
    check(per_job["gmm.init_kmeans.calls"] == 0.0, "uncalled layer reads 0")
    check(len(per_job) == 3 * len(LAYER_NAMES), "one calls/s/self_s triple per layer")


def check_job_costs() -> None:
    from worker import job_costs

    got = job_costs([1.0, 3.0], [0.1, 0.3, 0.2])
    check(all(math.isclose(g, w) for g, w in zip(got, [5.0, 12.0])) and len(got) == 2,
          f"job costs {got} != [5.0, 12.0]")


def check_tracer_restores() -> None:
    from momentgmm import gmm, moments, symtensor, waring

    original = symtensor.pow_linear
    with Tracer().installed() as tracer:
        check(waring.pow_linear is not original and moments.pow_linear is not original,
              "pow_linear wrapped where its callers look it up")
        gmm.init_moments(gmm.sample(gmm.GmmParams([0.5, 0.5], [[3.0, 0.0], [0.0, 3.0]],
                                                  [1.0, 1.0]), 200)[0], 2)
    check({s.name for s in tracer.spans} >= {"gmm.init_moments", "waring.decompose",
                                            "symtensor.pow_linear"}, "spans recorded")
    check(all(s.end >= s.start for s in tracer.spans), "every span closed")
    check(waring.pow_linear is original and symtensor.pow_linear is original,
          "originals restored")


def run(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                f"{proc.stderr[-2000:]}")
    return proc.stdout.splitlines()


def check_workloads() -> None:
    spec = json.loads((HERE / "spec.json").read_text())
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in contract["workloads"]] == list(spec["workloads"]),
          "BENCHMARK.json and spec.json name the same workloads")
    check([m["name"] for m in contract["end_to_end"]] == list(spec["end_to_end_notes"]),
          "spec.json notes every end-to-end metric of BENCHMARK.json")
    layer_metric_names = [f"{n}.{k}" for n in LAYER_NAMES for k in ("calls", "s", "self_s")]
    check([m["name"] for m in contract["per_layer"]]
          == layer_metric_names + list(spec["per_layer"]["derived"]),
          "BENCHMARK.json lists every traced layer and derived metric")
    listed = {0: contract["end_to_end"], 1: contract["per_layer"]}
    printed = {0: listed[0] + spec["report_only"], 1: listed[1]}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            lines = run(workload, trace)
            report = {ln.split()[0]: ln.split()[1:3] for ln in lines[1:-1] if ln.startswith("  ")}
            for m in printed[trace]:
                check(m["name"] in report and report[m["name"]][1] == m["unit"],
                      f"{workload} trace={trace}: {m['name']} printed with unit {m['unit']}")
            check(any(ln.startswith("env {") for ln in lines), f"{workload}: environment block")
            last = json.loads(lines[-1])
            check(set(last) == {"correct", "attempted", "failed", "metrics"}, "last-line keys")
            check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
                  f"{workload} trace={trace}: jobs correct")
            want = {m["name"]: m["unit"] for m in listed[trace]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            check(got == want, f"{workload} trace={trace}: last-line metrics and units")
            check(all(isinstance(v["value"], (int, float)) for v in last["metrics"].values()),
                  f"{workload} trace={trace}: every value is a number")
            print(f"smoke: {workload} trace={trace} ok", flush=True)


if __name__ == "__main__":
    check_self_times()
    check_job_costs()
    check_tracer_restores()
    check_workloads()
    print("smoke: ok")
