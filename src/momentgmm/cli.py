"""Command-line interface: simulate, fit, decompose, moments, pca, benchmark.

Exit codes: 0 success, 1 input error, 2 numerical failure, 3 I/O error.
The benchmark harness runs its replicates one after another; each replicate
draws its data and initializer streams from its own derived seed, so
`summary.json` is identical across reruns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import gmm, metrics
from .errors import InputError, NumericalError, json_int
from .moments import empirical_moments
from .symtensor import SymmetricTensor
from .waring import DecompositionOptions, decompose, relative_residual

BIC_TIE_TOL = 1e-9
INITIALIZERS = ("kmeans", "moments", "emem", "random")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def read_csv(path: str, header: bool = False) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if header:
        lines = lines[1:]
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=2 if header else 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise InputError(f"{path}: ragged CSV row at line {lineno}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise InputError(f"{path}: bad value at line {lineno}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: empty CSV")
    data = np.array(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise InputError(f"{path}: non-finite entries")
    return data


def write_csv(path: str, data: np.ndarray, header: list[str] | None = None) -> None:
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in np.atleast_2d(data):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_labels(path: str) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        return np.array([int(t) for t in tokens], dtype=int)
    except ValueError as exc:
        raise InputError(f"{path}: labels must be integers: {exc}") from exc


def write_labels(path: str, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(str(int(v)) for v in labels) + "\n")


def write_plot_data(path: str, data: np.ndarray, labels: np.ndarray) -> None:
    """Long-format scatterplot-matrix CSV: label, feature i, feature j, x, y."""
    m = data.shape[1]
    with open(path, "w") as fh:
        fh.write("label,feature_x,feature_y,x,y\n")
        for i in range(m):
            for j in range(i + 1, m):
                for lab, row in zip(labels, data):
                    fh.write(
                        f"{int(lab)},{i},{j},{_fmt(row[i])},{_fmt(row[j])}\n"
                    )


# ---------------------------------------------------------------------------
# Fitting machinery shared by cmd_fit and cmd_benchmark
# ---------------------------------------------------------------------------


def run_initializer(
    name: str, data: np.ndarray, r: int, seed: int
) -> tuple[gmm.GmmParams, bool]:
    """Dispatch to an initializer; returns (params, moments_fallback_flag)."""
    if name == "kmeans":
        return gmm.init_kmeans(data, r, rng_seed=seed), False
    if name == "moments":
        return gmm.init_moments(data, r, rng_seed=seed)
    if name == "emem":
        return gmm.init_emem(data, r, rng_seed=seed), False
    if name == "random":
        return gmm.init_random(data, r, rng_seed=seed), False
    raise InputError(f"unknown initializer '{name}'")


def fit_once(
    data: np.ndarray,
    r: int,
    init_name: str,
    seed: int,
    max_iter: int = 100,
    truth: np.ndarray | None = None,
) -> dict:
    """Initialize + EM + metrics; wall time covers initializer and EM."""
    n, m = data.shape
    t0 = time.perf_counter()
    init_params, fallback = run_initializer(init_name, data, r, seed)
    result = gmm.em_fit(data, r, init_params, max_iter=max_iter, rng_seed=seed)
    elapsed = time.perf_counter() - t0
    nu = metrics.nu_spherical(r, m)
    row = {
        "initializer": init_name,
        "loglik": result.loglik_trace[-1],
        "bic": metrics.bic(result.loglik_trace[-1], n, nu),
        "time_s": elapsed,
        "iterations": result.iterations,
        "converged": result.converged,
        "fallback": fallback,
        "params": result.params,
        "loglik_trace": result.loglik_trace,
        "hard_labels": result.hard_labels,
    }
    if truth is not None:
        row["ari"] = metrics.ari(result.hard_labels, truth)
        row["error_rate"] = metrics.error_rate(result.hard_labels, truth, r)
    return row


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


def run_benchmark(config: dict) -> tuple[dict, list[dict]]:
    """Run the simulate/fit/score loop; returns (summary, per-fit rows).

    Config keys: model (mixture JSON object), n, replicates, initializers,
    master_seed, max_iter, repeats (optional outer repetitions).
    """
    try:
        model_json = json.dumps(config["model"])
        n = json_int(config["n"], "n")
        replicates = json_int(config["replicates"], "replicates")
        master_seed = json_int(config.get("master_seed", 0), "master_seed")
        max_iter = json_int(config.get("max_iter", 100), "max_iter")
        repeats = json_int(config.get("repeats", 1), "repeats")
    except KeyError as exc:
        raise InputError(f"benchmark config lacks {exc}") from exc
    model = gmm.GmmParams.from_json(model_json)
    initializers = config.get("initializers", list(INITIALIZERS))
    if not isinstance(initializers, list) or not initializers:
        raise InputError("initializers must be a nonempty list of initializer names")
    for i, name in enumerate(initializers):
        if name not in INITIALIZERS:
            raise InputError(f"initializers: unknown initializer {name!r}")
        if name in initializers[:i]:
            raise InputError(f"initializers: {name!r} is listed twice")
    if replicates < 1 or repeats < 1:
        raise InputError("replicates and repeats must be >= 1")
    if master_seed < 0 or max_iter < 0:
        raise InputError("master_seed and max_iter must be >= 0")
    r = model.n_components

    def one_replicate(rep: int, idx: int) -> list[dict]:
        seed = master_seed + 100003 * rep + idx
        data, truth = gmm.sample(model, n, rng_seed=seed)
        rows = []
        for name in initializers:
            try:
                row = fit_once(data, r, name, seed, max_iter=max_iter, truth=truth)
                row["failure"] = False
            except (NumericalError, np.linalg.LinAlgError) as exc:
                row = {
                    "initializer": name,
                    "loglik": float("nan"),
                    "bic": float("nan"),
                    "ari": float("nan"),
                    "error_rate": float("nan"),
                    "time_s": float("nan"),
                    "fallback": False,
                    "failure": True,
                    "message": str(exc),
                }
            row["repeat"] = rep
            row["replicate"] = idx
            rows.append(row)
        return rows

    all_rows = [
        row
        for rep in range(repeats)
        for idx in range(replicates)
        for row in one_replicate(rep, idx)
    ]
    per_repeat = [
        _summarize(
            [r_ for r_ in all_rows if r_["repeat"] == rep], initializers, replicates
        )
        for rep in range(repeats)
    ]
    summary = {
        "replicates": replicates,
        "repeats": repeats,
        "initializers": initializers,
        "per_repeat": per_repeat,
    }
    if repeats > 1:
        agg = {}
        for name in initializers:
            agg[name] = {}
            for key in ("best_bic_pct", "best_ari_pct", "ari_ge_099_pct", "best_error_rate_pct"):
                vals = [rep_summary[name][key] for rep_summary in per_repeat]
                agg[name][key + "_mean"] = float(np.mean(vals))
                agg[name][key + "_var"] = float(np.var(vals, ddof=1))
        summary["aggregate"] = agg
    else:
        summary["shares"] = per_repeat[0]
    return summary, all_rows


def _summarize(rows: list[dict], initializers: list[str], replicates: int) -> dict:
    counts = {
        name: {"best_bic": 0, "best_ari": 0, "ari_ge_099": 0, "best_err": 0,
               "fits": 0}
        for name in initializers
    }
    for idx in range(replicates):
        group = [r_ for r_ in rows if r_["replicate"] == idx and not r_["failure"]]
        if not group:
            continue
        best_bic = max(r_["bic"] for r_ in group)
        best_ari = max(r_.get("ari", float("nan")) for r_ in group)
        best_err = min(r_.get("error_rate", float("nan")) for r_ in group)
        for r_ in group:
            c = counts[r_["initializer"]]
            c["fits"] += 1
            if r_["bic"] >= best_bic - BIC_TIE_TOL:
                c["best_bic"] += 1
            if r_.get("ari") == best_ari:
                c["best_ari"] += 1
            if r_.get("ari", 0.0) >= 0.99:
                c["ari_ge_099"] += 1
            if r_.get("error_rate") == best_err:
                c["best_err"] += 1
    out = {}
    for name in initializers:
        c = counts[name]
        out[name] = {
            "best_bic_pct": 100.0 * c["best_bic"] / replicates,
            "best_ari_pct": 100.0 * c["best_ari"] / replicates,
            "ari_ge_099_pct": 100.0 * c["ari_ge_099"] / replicates,
            "best_error_rate_pct": 100.0 * c["best_err"] / replicates,
            "fits": c["fits"],
        }
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    with open(args.model) as fh:
        model = gmm.GmmParams.from_json(fh.read())
    data, labels = gmm.sample(model, args.n, rng_seed=args.seed)
    header = [f"x{j}" for j in range(model.dim)] if args.header else None
    write_csv(args.out_data, data, header=header)
    write_labels(args.out_labels, labels)
    if args.plot_data:
        write_plot_data(args.plot_data, data, labels)
    return 0


def cmd_fit(args) -> int:
    data = read_csv(args.data, header=args.header)
    truth = read_labels(args.labels) if args.labels else None
    row = fit_once(
        data, args.r, args.init, args.seed, max_iter=args.max_iter, truth=truth
    )
    report = {
        "initializer": row["initializer"],
        "params": json.loads(row["params"].to_json()),
        "loglik": row["loglik"],
        "loglik_trace": row["loglik_trace"],
        "bic": row["bic"] if not args.flip_bic_sign else -row["bic"],
        "iterations": row["iterations"],
        "converged": row["converged"],
        "fallback": row["fallback"],
        "wall_time_s": row["time_s"],
    }
    if truth is not None:
        report["ari"] = row["ari"]
        report["error_rate"] = row["error_rate"]
    text = json.dumps(report, sort_keys=True, indent=2)
    _emit(text, args.out)
    if args.plot_data:
        write_plot_data(args.plot_data, data, row["hard_labels"])
    if row["fallback"]:
        print("warning: moment recovery failed; fell back to random init",
              file=sys.stderr)
    return 0


def cmd_decompose(args) -> int:
    with open(args.tensor) as fh:
        tensor = SymmetricTensor.from_json(fh.read())
    opts = DecompositionOptions(
        rank=args.rank,
        rank_tolerance=args.tol,
        k=args.k,
        rng_seed=args.seed,
    )
    dec = decompose(tensor, opts)
    _emit(dec.to_json(residual=relative_residual(tensor, dec)), args.out)
    return 0


def cmd_moments(args) -> int:
    data = read_csv(args.data, header=args.header)
    moments = empirical_moments(data)
    _emit(moments.to_json(), args.out)
    if moments.v_ambiguous:
        print("warning: smallest covariance eigenvalue is (near-)multiple; "
              "v is not unique", file=sys.stderr)
    return 0


def cmd_pca(args) -> int:
    data = read_csv(args.data, header=args.header)
    if not 1 <= args.q <= data.shape[1]:
        raise InputError(f"q={args.q} must lie in [1, {data.shape[1]}] (the column count)")
    centered = data - data.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    directions = vt[: args.q]
    # deterministic sign: largest-magnitude loading positive
    for row in directions:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    write_csv(args.out, centered @ directions.T)
    return 0


def cmd_benchmark(args) -> int:
    with open(args.config) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.config}: malformed JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError(f"{args.config}: the config must be a JSON object")
    if args.repeats is not None:
        config["repeats"] = args.repeats
    out_dir = args.out_dir or config.get("outputs", ".")
    summary, rows = run_benchmark(config)
    os.makedirs(out_dir, exist_ok=True)

    rows.sort(key=lambda r_: (r_["repeat"], r_["replicate"], r_["initializer"]))
    csv_path = os.path.join(out_dir, "replicates.csv")
    with open(csv_path, "w") as fh:
        fh.write("repeat,replicate,initializer,loglik,bic,ari,error_rate,"
                 "time_s,fallback,failure\n")
        for r_ in rows:
            fh.write(
                f"{r_['repeat']},{r_['replicate']},{r_['initializer']},"
                f"{_fmt(r_['loglik'])},{_fmt(r_['bic'])},"
                f"{_fmt(r_.get('ari', float('nan')))},"
                f"{_fmt(r_.get('error_rate', float('nan')))},"
                f"{_fmt(r_['time_s'])},"
                f"{int(r_['fallback'])},{int(r_['failure'])}\n"
            )
    # summary.json must be byte-identical across reruns, so wall times stay
    # out of it; they live in replicates.csv and the console table
    summary_path = os.path.join(out_dir, "summary.json")
    text = json.dumps(summary, sort_keys=True, indent=2)
    with open(summary_path, "w") as fh:
        fh.write(text + "\n")
    if not args.quiet:
        print(_summary_table(summary, rows))
    return 0


def _summary_table(summary: dict, rows: list[dict]) -> str:
    """Shares of the first repeat, with each initializer's mean fit time
    over that repeat's successful fits."""
    shares = summary.get("shares") or summary["per_repeat"][0]
    lines = [
        f"{'initializer':<12}{'bestBIC%':>10}{'bestARI%':>10}"
        f"{'ARI>=.99%':>11}{'bestErr%':>10}{'time(s)':>10}"
    ]
    for name, s in shares.items():
        times = [
            r_["time_s"] for r_ in rows
            if r_["initializer"] == name and r_["repeat"] == 0 and not r_["failure"]
        ]
        mean_time = float(np.mean(times)) if times else float("nan")
        lines.append(
            f"{name:<12}{s['best_bic_pct']:>10.2f}{s['best_ari_pct']:>10.2f}"
            f"{s['ari_ge_099_pct']:>11.2f}{s['best_error_rate_pct']:>10.2f}"
            f"{mean_time:>10.4f}"
        )
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentgmm",
        description="Spherical Gaussian mixtures via moment-tensor decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a dataset from a mixture model")
    p.add_argument("--model", required=True, help="mixture parameters JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--plot-data", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a mixture with a chosen EM initializer")
    p.add_argument("data")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--init", choices=INITIALIZERS, default="moments")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", default=None)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--header", action="store_true")
    p.add_argument("--flip-bic-sign", action="store_true",
                   help="report -2*loglik + nu*log(n) instead")
    p.add_argument("--out", default=None)
    p.add_argument("--plot-data", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("decompose", help="Waring-decompose a tensor JSON file")
    p.add_argument("tensor")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("moments", help="empirical moment set of a CSV dataset")
    p.add_argument("data")
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("pca", help="project onto the top-q principal directions")
    p.add_argument("data")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("benchmark", help="initializer comparison harness")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy rejects a negative seed, and a negative --max-iter runs no EM
        for key in ("seed", "max_iter"):
            if getattr(args, key, 0) < 0:
                raise InputError(f"--{key.replace('_', '-')} must be >= 0")
        return args.func(args)
    except (InputError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
