import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentgmm
from momentgmm import SymmetricTensor, gmm, WaringDecomposition, reconstruct
from momentgmm.cli import INITIALIZERS, main, read_csv, run_benchmark, write_csv


@pytest.fixture
def model_file(tmp_path, example2_params):
    path = tmp_path / "model.json"
    path.write_text(example2_params.to_json())
    return str(path)


@pytest.fixture
def dataset(tmp_path, model_file):
    data_path = str(tmp_path / "data.csv")
    labels_path = str(tmp_path / "labels.txt")
    rc = main([
        "simulate", "--model", model_file, "--n", "400", "--seed", "3",
        "--out-data", data_path, "--out-labels", labels_path,
    ])
    assert rc == 0
    return data_path, labels_path


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "{}", "--n", "3", "--out-data", "d", "--out-labels", "l"],
        ["decompose", "{}"],
        ["benchmark", "--config", "{}", "--quiet"],
        ["fit", "{}", "--r", "1"],
    ],
    ids=["simulate", "decompose", "benchmark", "fit"],
)
def test_non_utf8_input_file_rejected(tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    assert main([str(path) if a == "{}" else a for a in argv]) == 1


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "x.csv")
        rng = np.random.default_rng(0)
        data = rng.standard_normal((7, 3))
        write_csv(path, data)
        assert np.array_equal(read_csv(path), data)

    def test_header_skipped(self, tmp_path):
        path = str(tmp_path / "x.csv")
        write_csv(path, np.ones((2, 2)), header=["a", "b"])
        assert read_csv(path, header=True).shape == (2, 2)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        rc = main(["pca", str(path), "--q", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_missing_file_is_io_error(self, tmp_path):
        rc = main([
            "pca", str(tmp_path / "nope.csv"), "--q", "1",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 3


class TestSimulate:
    def test_outputs(self, dataset, tmp_path):
        data_path, labels_path = dataset
        data = read_csv(data_path)
        assert data.shape == (400, 5)
        labels = [int(v) for v in open(labels_path).read().split()]
        assert len(labels) == 400
        assert set(labels) <= {0, 1, 2}

    def test_deterministic(self, tmp_path, model_file):
        out = []
        for tag in ("a", "b"):
            dp = str(tmp_path / f"d{tag}.csv")
            main(["simulate", "--model", model_file, "--n", "100", "--seed", "9",
                  "--out-data", dp, "--out-labels", str(tmp_path / f"l{tag}.txt")])
            out.append(open(dp).read())
        assert out[0] == out[1]

    def test_plot_data(self, tmp_path, model_file):
        pp = str(tmp_path / "plot.csv")
        main(["simulate", "--model", model_file, "--n", "10", "--seed", "0",
              "--out-data", str(tmp_path / "d.csv"),
              "--out-labels", str(tmp_path / "l.txt"), "--plot-data", pp])
        lines = open(pp).read().splitlines()
        assert lines[0] == "label,feature_x,feature_y,x,y"
        # 10 points per unordered feature pair, C(5,2)=10 pairs
        assert len(lines) == 1 + 10 * 10

    @pytest.mark.parametrize(
        "weights, code",
        [
            # Example 1 as published: sums to 1.0001, renormalized
            ([0.2782, 0.0139, 0.3324, 0.3756], 0),
            # sums to 0.99, beyond the renormalization slack
            ([0.2782, 0.0139, 0.3324, 0.3655], 1),
        ],
    )
    def test_published_weight_slack(self, tmp_path, example1_params, weights, code):
        model = json.loads(example1_params.to_json())
        model["weights"] = weights
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        argv = ["simulate", "--model", str(path), "--n", "10",
                "--out-data", str(tmp_path / "d.csv"),
                "--out-labels", str(tmp_path / "l.txt")]
        if code == 0:
            with pytest.warns(UserWarning, match="renormalized"):
                assert main(argv) == 0
        else:
            assert main(argv) == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weights", [float("nan"), 0.5]),
            ("weights", [1.5, -0.5]),
            ("means", [[0.0, float("inf")], [1.0, 1.0]]),
            ("variances", [float("nan"), 1.0]),
        ],
    )
    def test_non_finite_or_negative_rejected(self, tmp_path, capsys, field, value):
        model = {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [1.0, 1.0]],
                 "variances": [1.0, 1.0]}
        model[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        argv = ["simulate", "--model", str(path), "--n", "10",
                "--out-data", str(tmp_path / "d.csv"),
                "--out-labels", str(tmp_path / "l.txt")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: mixture")
        assert not (tmp_path / "d.csv").exists()


    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"weights": [1.0],')
        argv = ["simulate", "--model", str(path), "--n", "10",
                "--out-data", str(tmp_path / "d.csv"),
                "--out-labels", str(tmp_path / "l.txt")]
        assert main(argv) == 1
        assert "malformed mixture JSON" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, model_file, capsys):
        argv = ["simulate", "--model", model_file, "--n", "10", "--seed", "-1",
                "--out-data", str(tmp_path / "d.csv"),
                "--out-labels", str(tmp_path / "l.txt")]
        assert main(argv) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err


class TestFit:
    @pytest.mark.parametrize("init", ["kmeans", "moments", "emem", "random"])
    def test_all_initializers(self, dataset, tmp_path, init):
        data_path, labels_path = dataset
        out = str(tmp_path / f"fit_{init}.json")
        rc = main([
            "fit", data_path, "--r", "3", "--init", init, "--seed", "1",
            "--labels", labels_path, "--out", out,
        ])
        assert rc == 0
        rep = json.loads(open(out).read())
        assert rep["initializer"] == init
        assert len(rep["params"]["weights"]) == 3
        assert 0.0 <= rep["error_rate"] <= 1.0
        assert rep["loglik_trace"][-1] >= rep["loglik_trace"][0]

    def test_flip_bic_sign(self, dataset, tmp_path):
        data_path, _ = dataset
        reports = []
        for flag in ([], ["--flip-bic-sign"]):
            out = str(tmp_path / f"fit{len(flag)}.json")
            main(["fit", data_path, "--r", "3", "--init", "kmeans",
                  "--seed", "0", "--out", out] + flag)
            reports.append(json.loads(open(out).read()))
        assert reports[0]["bic"] == -reports[1]["bic"]

    def test_moments_needs_small_r(self, dataset):
        data_path, _ = dataset
        rc = main(["fit", data_path, "--r", "6", "--init", "moments"])
        assert rc == 1

    @pytest.mark.parametrize("init", ["kmeans", "moments", "emem", "random"])
    @pytest.mark.parametrize("r", ["0", "-2"])
    def test_non_positive_r_rejected(self, dataset, capsys, init, r):
        data_path, _ = dataset
        assert main(["fit", data_path, "--r", r, "--init", init]) == 1
        assert f"r={r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--max-iter"])
    def test_negative_seed_or_max_iter_rejected(self, dataset, capsys, flag):
        data_path, _ = dataset
        assert main(["fit", data_path, "--r", "3", "--init", "moments", flag, "-1"]) == 1
        assert f"{flag} must be >= 0" in capsys.readouterr().err

    def test_non_integer_labels_rejected(self, dataset, tmp_path, capsys):
        data_path, labels_path = dataset
        bad = tmp_path / "bad_labels.txt"
        bad.write_text(open(labels_path).read().replace("2", "2.5", 1))
        rc = main(["fit", data_path, "--r", "3", "--init", "random",
                   "--labels", str(bad)])
        assert rc == 1
        assert "labels must be integers" in capsys.readouterr().err


class TestDecompose:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((3, 4))
        wts = rng.uniform(0.5, 2.0, 3)
        t = reconstruct(WaringDecomposition(weights=wts, points=pts, order=3))
        tensor_path = tmp_path / "t.json"
        tensor_path.write_text(t.to_json())
        out = str(tmp_path / "dec.json")
        rc = main(["decompose", str(tensor_path), "--rank", "3", "--k", "2",
                   "--out", out])
        assert rc == 0
        dec = json.loads(open(out).read())
        assert len(dec["weights"]) == 3
        assert dec["residual"] < 1e-10

    def test_zero_tensor_numerical_failure(self, tmp_path):
        tensor_path = tmp_path / "z.json"
        tensor_path.write_text(SymmetricTensor.zero(3, 3).to_json())
        assert main(["decompose", str(tensor_path)]) == 2

    def test_malformed_tensor_input_error(self, tmp_path):
        tensor_path = tmp_path / "bad.json"
        tensor_path.write_text('{"dim": 2}')
        assert main(["decompose", str(tensor_path)]) == 1

    def test_unparsable_tensor_input_error(self, tmp_path):
        tensor_path = tmp_path / "bad.json"
        tensor_path.write_text('{"dim": 2, "order": 3,')
        assert main(["decompose", str(tensor_path)]) == 1

    def test_negative_seed_rejected(self, tmp_path, capsys):
        tensor_path = tmp_path / "t.json"
        tensor_path.write_text(SymmetricTensor(2, 3, [1.0, 0.0, 0.0, 1.0]).to_json())
        assert main(["decompose", str(tensor_path), "--seed", "-1"]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1", "2", "nan", "inf", "-1"])
    def test_tolerance_outside_unit_interval_rejected(self, tmp_path, capsys, tol):
        # a tolerance >= 1 or NaN keeps no singular value, so no pencil
        tensor_path = tmp_path / "t.json"
        tensor_path.write_text(SymmetricTensor(2, 3, [1.0, 0.0, 0.0, 1.0]).to_json())
        assert main(["decompose", str(tensor_path), "--tol", tol]) == 1
        assert capsys.readouterr().err.startswith("error: rank_tolerance must be in [0, 1)")


class TestMoments:
    def test_reports_moment_set(self, dataset, tmp_path):
        data_path, _ = dataset
        out = str(tmp_path / "mom.json")
        assert main(["moments", data_path, "--out", out]) == 0
        obj = json.loads(open(out).read())
        assert obj["sigma_bar_sq"] > 0
        assert len(obj["m1"]) == 5
        assert len(obj["m2"]) == 5


class TestPca:
    def test_projection_shape_and_variance_order(self, dataset, tmp_path):
        data_path, _ = dataset
        out = str(tmp_path / "pca.csv")
        assert main(["pca", data_path, "--q", "2", "--out", out]) == 0
        proj = read_csv(out)
        assert proj.shape == (400, 2)
        v = proj.var(axis=0)
        assert v[0] >= v[1]

    def test_q_too_large(self, dataset, tmp_path):
        data_path, _ = dataset
        rc = main(["pca", data_path, "--q", "9", "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    @pytest.mark.parametrize("q", ["0", "-1"])
    def test_non_positive_q_rejected(self, dataset, tmp_path, q):
        data_path, _ = dataset
        out = tmp_path / "o.csv"
        assert main(["pca", data_path, "--q", q, "--out", str(out)]) == 1
        assert not out.exists()


class TestBenchmark:
    def make_config(self, example2_params, n=200, replicates=3, seed=0):
        return {
            "model": json.loads(example2_params.to_json()),
            "n": n,
            "replicates": replicates,
            "initializers": ["kmeans", "moments", "emem", "random"],
            "master_seed": seed,
        }

    def test_run_benchmark_shapes(self, example2_params):
        summary, rows = run_benchmark(self.make_config(example2_params))
        assert summary["replicates"] == 3
        assert len(rows) == 3 * 4
        shares = summary["shares"]
        for name in ("kmeans", "moments", "emem", "random"):
            assert 0.0 <= shares[name]["best_bic_pct"] <= 100.0
            assert shares[name]["fits"] == 3

    def test_cli_outputs(self, tmp_path, example2_params):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.make_config(example2_params)))
        out_dir = str(tmp_path / "results")
        rc = main(["benchmark", "--config", str(cfg), "--out-dir", out_dir,
                   "--quiet"])
        assert rc == 0
        summary = json.loads(open(os.path.join(out_dir, "summary.json")).read())
        assert "shares" in summary
        csv_lines = open(os.path.join(out_dir, "replicates.csv")).read().splitlines()
        assert len(csv_lines) == 1 + 3 * 4

    def test_summary_deterministic_across_runs_and_threads(
        self, tmp_path, example2_params, monkeypatch
    ):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.make_config(example2_params, n=150)))
        blobs = []
        for tag, threads in (("one", "1"), ("two", "1"), ("par", "4")):
            monkeypatch.setenv("MOMENTGMM_THREADS", threads)
            out_dir = str(tmp_path / tag)
            assert main(["benchmark", "--config", str(cfg), "--out-dir", out_dir,
                         "--quiet"]) == 0
            blobs.append(open(os.path.join(out_dir, "summary.json"), "rb").read())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_summary_identical_across_blas_thread_counts(self, tmp_path, example2_params):
        # a fresh process per thread count, since OpenBLAS reads
        # OPENBLAS_NUM_THREADS once, when numpy is first imported
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.make_config(example2_params, n=400)))
        src = str(Path(momentgmm.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        blobs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "momentgmm.cli", "benchmark",
                 "--config", str(cfg), "--out-dir", str(out_dir), "--quiet"],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
                check=True, timeout=300,
            )
            blobs.append((out_dir / "summary.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_repeats_aggregate(self, tmp_path, example2_params):
        cfg_dict = self.make_config(example2_params, n=150, replicates=2)
        cfg_dict["repeats"] = 2
        summary, rows = run_benchmark(cfg_dict)
        assert len(rows) == 2 * 2 * 4
        agg = summary["aggregate"]
        for name in cfg_dict["initializers"]:
            assert "best_ari_pct_mean" in agg[name]
            assert "best_ari_pct_var" in agg[name]

    def test_bad_config_rejected(self, tmp_path, example2_params):
        cfg_dict = self.make_config(example2_params, replicates=0)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_dict))
        rc = main(["benchmark", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "o"), "--quiet"])
        assert rc == 1

    def test_rejected_config_leaves_no_directory(self, tmp_path, example2_params):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.make_config(example2_params, replicates=0)))
        out_dir = tmp_path / "outbad" / "sub"
        rc = main(["benchmark", "--config", str(cfg), "--out-dir", str(out_dir), "--quiet"])
        assert rc == 1
        assert not (tmp_path / "outbad").exists()

    def test_integral_floats_accepted(self, example2_params):
        cfg = dict(self.make_config(example2_params, n=150.0, replicates=1.0),
                   initializers=["random"], max_iter=5.0)
        summary, rows = run_benchmark(cfg)
        assert summary["replicates"] == 1 and len(rows) == 1

    @pytest.mark.parametrize("text", ['{"n": 50,', "[1, 2]"])
    def test_malformed_config_file_rejected(self, tmp_path, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        rc = main(["benchmark", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "o"), "--quiet"])
        assert rc == 1

    @pytest.mark.parametrize(
        "change",
        [
            {"model": None},
            {"n": None},
            {"replicates": None},
            {"n": "abc"},
            {"replicates": [3]},
            {"max_iter": 1.5e400},
            {"master_seed": -1},
            {"max_iter": -1},
            {"repeats": 0},
            {"n": 40.9},
            {"replicates": True},
            {"repeats": 1.5},
            {"master_seed": True},
            {"max_iter": 99.5},
        ],
        ids=["no-model", "no-n", "no-replicates", "n-abc", "replicates-list",
             "max-iter-inf", "negative-master-seed", "negative-max-iter",
             "zero-repeats", "n-fraction", "replicates-bool", "repeats-fraction",
             "master-seed-bool", "max-iter-fraction"],
    )
    def test_bad_config_value_rejected(self, tmp_path, capsys, example2_params, change):
        cfg_dict = self.make_config(example2_params)
        for key, value in change.items():
            if value is None:
                del cfg_dict[key]
            else:
                cfg_dict[key] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_dict))
        rc = main(["benchmark", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "initializers, message",
        [
            (["kmeans", "kmeans"], "initializers: 'kmeans' is listed twice"),
            ("kmeans", "initializers must be a nonempty list"),
            (["random", "bogus"], "initializers: unknown initializer 'bogus'"),
            ({"kmeans": 1}, "initializers must be a nonempty list"),
            (7, "initializers must be a nonempty list"),
            ([], "initializers must be a nonempty list"),
        ],
        ids=["duplicate", "string", "unknown-name", "object", "number", "empty"],
    )
    def test_bad_initializers_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch, example2_params, initializers, message
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the initializers were checked")

        monkeypatch.setattr(gmm, "sample", no_sampling)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(self.make_config(example2_params),
                                       initializers=initializers)))
        rc = main(["benchmark", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_default_initializers(self, example2_params):
        cfg = self.make_config(example2_params, n=100, replicates=1)
        del cfg["initializers"]
        summary, rows = run_benchmark(dict(cfg, max_iter=2))
        assert summary["initializers"] == list(INITIALIZERS)
        assert [row["initializer"] for row in rows] == list(INITIALIZERS)
        for name in INITIALIZERS:
            assert summary["shares"][name]["fits"] == 1
