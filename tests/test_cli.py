import json
import os
import textwrap

import numpy as np
import pytest

from momentgmm import NumericalError, SymmetricTensor, gmm, WaringDecomposition, reconstruct
from momentgmm.cli import (
    INITIALIZERS,
    fit_once,
    main,
    read_csv,
    run_benchmark,
    write_csv,
    write_plot_data,
)
from momentgmm.moments import _frame
from conftest import run_with_blas_threads, summaries_per_blas_thread_count


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

    @pytest.mark.parametrize("init", ["kmeans", "emem"])
    def test_plot_data_independent_of_label_dtype(self, dataset, tmp_path, init):
        # the fit's compact hard labels write the file that 64-bit labels did
        data_path, _ = dataset
        plot = tmp_path / "plot.csv"
        assert main(["fit", data_path, "--r", "3", "--init", init, "--seed", "0",
                     "--out", str(tmp_path / "fit.json"), "--plot-data", str(plot)]) == 0
        data = read_csv(data_path)
        labels = fit_once(data, 3, init, 0)["hard_labels"]
        assert labels.dtype == np.int8
        want = tmp_path / "want.csv"
        write_plot_data(str(want), data, labels.astype(np.int64))
        assert plot.read_bytes() == want.read_bytes()

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
        tensor_path.write_text(SymmetricTensor(3, 3, np.zeros(10)).to_json())
        assert main(["decompose", str(tensor_path)]) == 2

    def test_malformed_tensor_input_error(self, tmp_path):
        tensor_path = tmp_path / "bad.json"
        tensor_path.write_text('{"dim": 2}')
        assert main(["decompose", str(tensor_path)]) == 1

    def test_unparsable_tensor_input_error(self, tmp_path):
        tensor_path = tmp_path / "bad.json"
        tensor_path.write_text('{"dim": 2, "order": 3,')
        assert main(["decompose", str(tensor_path)]) == 1

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_coefficient_rejected(self, tmp_path, capsys, value):
        # such a coefficient would reach the Hankel SVD, which does not converge on it
        tensor_path = tmp_path / "t.json"
        tensor_path.write_text(f'{{"dim": 2, "order": 3, "coeffs": [1.0, {value}, 0.5, 2.0]}}')
        assert main(["decompose", str(tensor_path)]) == 1
        assert capsys.readouterr().err == "error: tensor coefficients must be finite\n"

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

    def test_q_above_row_count(self, tmp_path):
        # 2 rows, 3 columns: the SVD has only 2 directions
        path = tmp_path / "d.csv"
        write_csv(str(path), np.arange(6.0).reshape(2, 3) ** 2)
        out = tmp_path / "o.csv"
        assert main(["pca", str(path), "--q", "3", "--out", str(out)]) == 1
        assert not out.exists()
        assert main(["pca", str(path), "--q", "2", "--out", str(out)]) == 0
        assert read_csv(str(out)).shape == (2, 2)

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

    def test_summary_deterministic_across_runs_and_threads(self, tmp_path, example2_params):
        # three runs in one process; the BLAS thread count is varied by
        # test_summary_identical_across_blas_thread_counts
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.make_config(example2_params, n=150)))
        blobs = []
        for tag in ("one", "two", "three"):
            out_dir = str(tmp_path / tag)
            assert main(["benchmark", "--config", str(cfg), "--out-dir", out_dir,
                         "--quiet"]) == 0
            blobs.append(open(os.path.join(out_dir, "summary.json"), "rb").read())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_summary_identical_across_blas_thread_counts(self, tmp_path, example2_params):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.make_config(example2_params, n=400)))
        blobs = summaries_per_blas_thread_count(cfg, tmp_path)
        assert blobs[0] == blobs[1]

    def test_large_n_fit_rows_identical_across_blas_thread_counts(self):
        # at n = 1e5 the E step's products and the M step's, whose inner
        # dimension is n, are large enough for OpenBLAS to split them over
        # threads; each fit_once row's results hash the same on 1 and 2
        code = textwrap.dedent("""
            import hashlib
            import numpy as np
            from momentgmm import GmmParams, sample
            from momentgmm.cli import fit_once
            rng = np.random.default_rng(7)
            params = GmmParams(np.full(3, 1 / 3), 4.0 * rng.standard_normal((3, 10)), np.ones(3))
            data, truth = sample(params, 100_000, rng_seed=1)
            for init in ("kmeans", "emem", "random"):
                row = fit_once(data, 3, init, 3, truth=truth)
                p = row["params"]
                parts = [np.asarray(row[k]) for k in ("loglik_trace", "hard_labels", "iterations")]
                parts += [np.asarray(row["converged"]), p.weights, p.means, p.variances]
                print(init, hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest())
        """)
        one, two = (run_with_blas_threads(["-c", code], threads) for threads in ("1", "2"))
        assert len(one.splitlines()) == 3 and one == two

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
            {"outputs": 5},
            {"outputs": ["a"]},
            {"outputs": ""},
        ],
        ids=["no-model", "no-n", "no-replicates", "n-abc", "replicates-list",
             "max-iter-inf", "negative-master-seed", "negative-max-iter",
             "zero-repeats", "n-fraction", "replicates-bool", "repeats-fraction",
             "master-seed-bool", "max-iter-fraction", "outputs-number", "outputs-list",
             "outputs-empty"],
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

    def test_bad_outputs_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch, example2_params
    ):
        # without --out-dir, the config's outputs names the directory
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before outputs was checked")

        monkeypatch.setattr(gmm, "sample", no_sampling)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(self.make_config(example2_params), outputs=5)))
        rc = main(["benchmark", "--config", str(cfg), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: outputs must be a nonempty directory")

    @staticmethod
    def assert_same_row(got, want):
        """Every key but time_s equal, NaN to NaN; params and hard labels
        bit for bit."""
        assert set(got) == set(want)
        for key in set(got) - {"time_s", "params", "hard_labels"}:
            assert got[key] == want[key] or got[key] != got[key] and want[key] != want[key], key
        if got["failure"]:
            return
        for name in ("weights", "means", "variances"):
            assert getattr(got["params"], name).tobytes() == getattr(want["params"], name).tobytes()
        assert got["hard_labels"].dtype == want["hard_labels"].dtype
        assert np.array_equal(got["hard_labels"], want["hard_labels"])

    @pytest.mark.parametrize("example", ["example1_params", "example2_params"])
    def test_rows_equal_fit_once_rows(self, request, example):
        # the replicate's starts are fitted as one EM stack; each row is the
        # row fit_once gives for its initializer alone
        model = request.getfixturevalue(example)
        for master_seed in (0, 11):
            cfg = self.make_config(model, n=1000, replicates=2, seed=master_seed)
            _, rows = run_benchmark(cfg)
            assert len(rows) == 2 * len(INITIALIZERS)
            for row in rows:
                seed = master_seed + row["replicate"]
                data, truth = gmm.sample(model, 1000, rng_seed=seed)
                want = fit_once(data, model.n_components, row["initializer"], seed, truth=truth)
                want.update(failure=False, repeat=0, replicate=row["replicate"])
                self.assert_same_row(row, want)

    @pytest.mark.parametrize("init", INITIALIZERS)
    def test_fit_once_on_a_frame(self, example1_params, init):
        data, truth = gmm.sample(example1_params, 800, rng_seed=5)
        want = fit_once(data, 4, init, 5, truth=truth)
        got = fit_once(_frame(data), 4, init, 5, truth=truth)
        self.assert_same_row(dict(got, failure=False), dict(want, failure=False))

    def test_failed_initializer_leaves_the_stack(self, monkeypatch, example2_params):
        cfg = self.make_config(example2_params, n=300, replicates=2)
        _, whole = run_benchmark(cfg)

        def failing(*args, **kwargs):
            raise NumericalError("no start")

        monkeypatch.setattr(gmm, "init_emem", failing)
        _, rows = run_benchmark(cfg)
        assert [row["initializer"] for row in rows] == [row["initializer"] for row in whole]
        for row, want in zip(rows, whole):
            if row["initializer"] == "emem":
                nan = float("nan")
                want = {
                    "initializer": "emem", "loglik": nan, "bic": nan, "ari": nan,
                    "error_rate": nan, "time_s": nan, "fallback": False, "failure": True,
                    "message": "no start", "repeat": 0, "replicate": want["replicate"],
                }
                assert row["time_s"] != row["time_s"]
            self.assert_same_row(row, want)

    def test_default_initializers(self, example2_params):
        cfg = self.make_config(example2_params, n=100, replicates=1)
        del cfg["initializers"]
        summary, rows = run_benchmark(dict(cfg, max_iter=2))
        assert summary["initializers"] == list(INITIALIZERS)
        assert [row["initializer"] for row in rows] == list(INITIALIZERS)
        for name in INITIALIZERS:
            assert summary["shares"][name]["fits"] == 1
