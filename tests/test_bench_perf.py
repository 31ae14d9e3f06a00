"""`compare` of bench/perf.py on synthetic reports: a stage is listed as
slower or faster by its time over the host reference, not by its raw time,
and a changed quality list is reported, once for the stages that carry it
alike. `timings` on a stage whose clock is simulated: a short stage is
repeated until one repeat lasts REPEAT_S. The k-means stages are init_kmeans
split in two, and the workload fit stages M3 in W, decompose and the scale
and variance solves are the moments start's own; the decompose split wraps
every call of its parts, and its solve count is refine's."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from momentgmm import em_fit, init_kmeans, init_moments, m_step, moments, sample, waring

PERF = Path(__file__).resolve().parents[1] / "bench" / "perf.py"


@pytest.fixture(scope="module")
def perf():
    """bench/perf.py as a module; loading it pins the BLAS thread variables
    and extends sys.path, both restored here."""
    environ, path = dict(os.environ), list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_perf", PERF)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    return module


def report(seconds: float, ref_seconds: float, loglik=(-10.0, -12.0)) -> dict:
    """One stage timed at `seconds` between two reference runs of `ref_seconds`."""
    stage = {"median_s": seconds, "min_s": seconds, "repeats": 5,
             "ref_s": [ref_seconds, ref_seconds], "median_ref": seconds / ref_seconds}
    return {"examples": {"example1": {"initializers": {"kmeans": stage | {"loglik": list(loglik)}}}}}


def test_host_slowdown_is_not_flagged(perf):
    assert perf.compare(report(0.013, 0.065), report(0.010, 0.050)) == []


def test_slower_over_the_reference_is_flagged(perf):
    lines = perf.compare(report(0.013, 0.050), report(0.010, 0.050))
    assert len(lines) == 1
    assert lines[0].startswith("slower /examples/example1/initializers/kmeans: 0.2 -> 0.26 ref")
    assert "median 0.01 -> 0.013 s" in lines[0]


def test_host_speedup_is_not_listed(perf):
    assert perf.compare(report(0.010, 0.050), report(0.013, 0.065)) == []


def test_faster_over_the_reference_is_listed(perf):
    lines = perf.compare(report(0.010, 0.050), report(0.013, 0.050))
    assert len(lines) == 1
    assert lines[0].startswith("faster /examples/example1/initializers/kmeans: 0.26 -> 0.2 ref")
    assert "median 0.013 -> 0.01 s" in lines[0]


def test_within_the_band_is_not_listed(perf):
    # a factor of 1.2 or less either way is noise on a shared host
    assert perf.compare(report(0.0119, 0.050), report(0.010, 0.050)) == []
    assert perf.compare(report(0.010, 0.050), report(0.0119, 0.050)) == []


def test_changed_quality_is_reported(perf):
    lines = perf.compare(report(0.010, 0.050, (-10.0, -12.5)), report(0.010, 0.050))
    assert lines == ["quality /examples/example1/initializers/kmeans/loglik: [1] -12.0 -> -12.5"]


def test_changed_recovery_error_is_reported(perf):
    def fit(errors):
        return {"recover_hidim_fit": {"stages": {"decompose": {"recovery_error": errors}}}}

    lines = perf.compare(fit([0.1, 0.3]), fit([0.1, 0.2]))
    assert lines == ["quality /recover_hidim_fit/stages/decompose/recovery_error: [1] 0.2 -> 0.3"]


def test_quality_change_of_every_stage_is_reported_once(perf):
    # every stage of a workload carries its fits' quality, so one changed fit
    # is one line with the count of stages; a change in one stage keeps its name
    def fit(loglik, solves):
        stages = {name: {"loglik": loglik} for name in ("fit_once", "frame", "labels")}
        stages["decompose"] = {"loglik": loglik, "refine_solves": solves}
        return {"recover_hidim_fit": {"stages": stages},
                "large_n_fit": {"stages": {"frame": {"loglik": [-1.0]}}}}

    lines = perf.compare(fit([-10.0, -12.5], [10, 11]), fit([-10.0, -12.0], [10, 12]))
    assert lines == [
        "quality /recover_hidim_fit/stages/*/loglik in 4 stages: [1] -12.0 -> -12.5",
        "quality /recover_hidim_fit/stages/decompose/refine_solves: [1] 12 -> 11",
    ]


def test_file_without_reference_times_compares_raw(perf):
    old = report(0.010, 0.050)
    del old["examples"]["example1"]["initializers"]["kmeans"]["median_ref"]
    lines = perf.compare(report(0.013, 0.065), old)
    assert lines == ["slower /examples/example1/initializers/kmeans, raw, no reference times: "
                     "median 0.01 -> 0.013 s"]


def test_file_without_reference_times_lists_faster_raw(perf):
    old = report(0.013, 0.050)
    del old["examples"]["example1"]["initializers"]["kmeans"]["median_ref"]
    lines = perf.compare(report(0.010, 0.050), old)
    assert lines == ["faster /examples/example1/initializers/kmeans, raw, no reference times: "
                     "median 0.013 -> 0.01 s"]


def test_hidim_counts_are_reported(perf):
    def row(one_point):
        return {"recover_hidim_32": {"one_point": [False, one_point],
                                     "row": {"one_point": int(one_point), "iterations": 90}}}

    assert perf.compare(row(True), row(False)) == [
        "quality /recover_hidim_32/one_point: [1] False -> True",
        "quality /recover_hidim_32/row/one_point: [0] 0 -> 1",
    ]


def test_hidim_quality_is_the_moments_fit_of_each_sample(perf):
    # the stage on one workload seed: its row is read off its lists, and its
    # first sample is init_moments then em_fit with seed 0
    got = perf.hidim_quality(seeds=(1,))
    errors, row = got["recovery_error"], got["row"]
    assert got["workload_seeds"] == [1] and len(errors) == 8
    assert row["recovery_error_median"] == np.median(errors)
    assert row["recovery_error_under_0_1"] == sum(e < 0.1 for e in errors)
    assert row["reaches_truth"] == sum(got["reaches_truth"]) >= 4
    assert row["one_point"] == sum(got["one_point"]) <= 4
    assert row["refine_solves_per_fit"] == np.mean(got["refine_solves"]) >= 1
    assert row["iterations"] == sum(got["iterations"])
    work = perf.workloads.make("recover-hidim", 1)
    data, _ = work.samples[0]
    start, _ = init_moments(data, work.r, rng_seed=0)
    assert errors[0] == perf.workloads.recovery_error(start.means, work.model.means)
    assert got["iterations"][0] == em_fit(data, work.r, start, rng_seed=0).iterations


class SimulatedStage:
    """A stage that takes `seconds` on a clock that only it advances, with a
    reference computation that takes 50 ms on the same clock."""

    def __init__(self, seconds: float):
        self.seconds, self.now, self.calls = seconds, 0.0, 0

    def perf_counter(self) -> float:
        return self.now

    def __call__(self) -> float:
        self.calls += 1
        self.now += self.seconds
        return self.seconds

    def time(self) -> float:
        self.now += 0.05
        return 0.05


@pytest.mark.parametrize("seconds", [1e-4, 3e-3, 0.05])
def test_short_stage_repeats_until_a_repeat_lasts_repeat_s(perf, monkeypatch, seconds):
    stage = SimulatedStage(seconds)
    monkeypatch.setattr(perf, "time", stage)
    entry = perf.timings(stage, 3, stage)
    calls = entry["calls"]
    # the fewest back-to-back calls that last REPEAT_S, one when a call does
    assert calls * seconds >= perf.REPEAT_S
    assert calls == 1 or (calls - 1) * seconds < perf.REPEAT_S
    assert (calls > 1) == (seconds < perf.REPEAT_S)
    assert stage.calls == 1 + 3 * calls
    assert entry["median_s"] == pytest.approx(seconds)
    assert entry["median_ref"] == pytest.approx(seconds / 0.05)


def test_kmeans_stages_make_the_init_kmeans_start(perf, example2_params):
    # seeding then Lloyd, with the least WCSS's labels through m_step, is the
    # start init_kmeans returns for the sample's seed
    samples = [sample(example2_params, 300, rng_seed=seed) for seed in perf.SEEDS[:2]]
    stages = perf.kmeans_stages(samples, 3)
    thunks = zip(samples, stages["seeding"], stages["lloyd"])
    for seed, ((data, _), seeding, lloyd) in enumerate(thunks):
        centers = seeding()
        assert centers.shape == (perf.KMEANS_RUNS, 3, 5)
        labels, got, wcss = lloyd()
        assert got.shape == centers.shape
        want = init_kmeans(data, 3, rng_seed=seed)
        start = m_step(data, np.eye(3)[labels[np.argmin(wcss)]])
        assert all(np.array_equal(getattr(start, k), getattr(want, k))
                   for k in ("weights", "means", "variances"))


def test_fit_stages_make_the_moments_start(perf, monkeypatch, example2_params):
    # M3 in W is the tensor init_moments decomposes, and the decompose stage
    # returns the decomposition init_moments gets, bit for bit
    samples = [sample(example2_params, 1000, rng_seed=seed) for seed in range(2)]
    stages = perf.fit_stages(3, samples, [5, 6])
    made, inner = [], moments.decompose

    def recording(t, **kwargs):
        made.append((t, inner(t, **kwargs)))
        return made[-1][1]

    monkeypatch.setattr(moments, "decompose", recording)
    for (data, _), m3_in_w, decompose in zip(samples, stages["m3_in_w"], stages["decompose"]):
        made.clear()
        init_moments(data, 3)
        [(tensor, want)] = made
        assert np.array_equal(m3_in_w(), tensor.coeffs)
        got = decompose()
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.points, want.points)


@pytest.fixture(scope="module")
def fit_stages(perf, example2_params):
    samples = [sample(example2_params, 1000, rng_seed=seed) for seed in range(2)]
    return samples, perf.fit_stages(3, samples, [5, 6])


def test_recover_solves_are_the_moments_starts(fit_stages, monkeypatch):
    # the stage's two solve_weights calls, for the M2 scales and the M1
    # variances, return what they return inside init_moments, bit for bit
    samples, stages = fit_stages
    made, inner = [], moments.solve_weights

    def recording(t, rows):
        made.append(inner(t, rows))
        return made[-1]

    monkeypatch.setattr(moments, "solve_weights", recording)
    for (data, _), solves in zip(samples, stages["recover_solves"]):
        made.clear()
        init_moments(data, 3)
        got = solves()
        assert len(got) == len(made) == 2
        for (x, rel), (want_x, want_rel) in zip(got, made):
            assert np.array_equal(x, want_x) and rel == want_rel


class Clock:
    """A clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


def test_decompose_split_wraps_every_call(perf, fit_stages, monkeypatch):
    # with one second per clock reading, each wrapped call adds one second,
    # so a part's seconds per decompose call count the calls it wrapped
    calls = fit_stages[1]["decompose"]
    counts = perf.decompose_counts(calls)
    monkeypatch.setattr(perf, "time", Clock())
    draws = perf.part_seconds(calls, ("simultaneous_diagonalize",)) * len(calls)
    assert draws == sum(counts["pencil_draws"]) >= len(calls)
    assert perf.part_seconds(calls, perf.DECOMPOSE_PARTS["svd_basis"]) == 1.0
    # the empirical tensors are not fitted to 1e-14, so each call refines once
    assert perf.part_seconds(calls, perf.DECOMPOSE_PARTS["refine"]) == 1.0
    assert all(n >= 1 for n in counts["refine_solves"])


def test_decompose_solves_are_refines(perf, fit_stages, monkeypatch):
    monkeypatch.setattr(waring, "refine", lambda t, w, iters: w)
    counts = perf.decompose_counts(fit_stages[1]["decompose"])
    assert counts["refine_solves"] == [0, 0]
