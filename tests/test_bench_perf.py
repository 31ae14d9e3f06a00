"""`compare` of bench/perf.py on synthetic reports: a stage is listed as
slower or faster by its time over the host reference, not by its raw time,
and a changed quality list is reported, once for the stages that carry it
alike. `timings` on a stage whose clock is simulated: a short stage is
repeated until one repeat lasts REPEAT_S. Each stage of KMEANS_STAGES and
FIT_STAGES names functions that resolve, that real init_kmeans and fit_once
calls enter, and whose wrapping leaves those calls' results bit for bit; on a
clock that ticks once per reading, a stage's seconds count its calls."""

import importlib.util
import itertools
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from momentgmm import GmmParams, cli, em_fit, init_kmeans, init_moments, sample, waring

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


def same(a, b) -> bool:
    """Fit rows, but for their wall time, or mixtures equal bit for bit."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a if k != "time_s")
    if isinstance(a, GmmParams):
        return same(vars(a), vars(b))
    return np.array_equal(a, b)


def test_stage_functions_resolve(perf):
    # a renamed kernel fails here in seconds, not in a run of the perf script
    tables = (perf.FIT_STAGES, perf.KMEANS_STAGES)
    pairs = [pair for table in tables for names in table.values() for pair in names]
    assert all(callable(getattr(module, name)) for module, name in pairs)


def test_kmeans_stages_make_the_init_kmeans_start(perf, example2_params):
    # each stage wraps its functions inside real init_kmeans calls, which
    # return the start they return unwrapped and enter them every call
    samples = [sample(example2_params, 300, rng_seed=seed) for seed in perf.SEEDS[:2]]
    for names in perf.KMEANS_STAGES.values():
        for seed, (data, _) in enumerate(samples):
            got = []
            _, entered = perf.inside([lambda: got.append(init_kmeans(data, 3, rng_seed=seed))], names)
            assert entered >= 1
            assert same(got[0], init_kmeans(data, 3, rng_seed=seed))


@pytest.fixture(scope="module")
def fits(example2_params):
    """fit_once with the moments start on two samples, as thunks, and their rows."""
    samples = [sample(example2_params, 1000, rng_seed=seed) for seed in range(2)]
    calls = [lambda d=d, s=s, t=t: cli.fit_once(d, 3, "moments", s, truth=t)
             for s, (d, t) in zip((5, 6), samples)]
    return calls, [call() for call in calls]


def test_fit_stages_make_the_moments_start(perf, fits):
    # each stage wraps its functions inside real fits, which return the rows
    # they return unwrapped, bit for bit, and enter them every fit
    for stage, names in perf.FIT_STAGES.items():
        for call, row in zip(*fits):
            got = []
            _, entered = perf.inside([lambda: got.append(call())], names)
            assert entered >= 1, stage
            assert same(got[0], row), stage


def test_recover_solves_are_the_moments_starts(perf, fits):
    # the M2 scale solve and the M1 variance solve, not decompose's weight solves
    calls, _ = fits
    assert [perf.inside([call], perf.FIT_STAGES["recover_solves"])[1] for call in calls] == [2, 2]


def test_decompose_split_wraps_every_call(perf, fits, monkeypatch):
    # with one second per clock reading, each wrapped call adds one second,
    # so a stage's seconds per fit count the calls it wrapped
    calls, _ = fits
    monkeypatch.setattr(perf, "time", SimpleNamespace(perf_counter=itertools.count().__next__))
    parts = {stage: perf.inside(calls, names) for stage, names in perf.FIT_STAGES.items()
             if stage.startswith("decompose")}
    assert all(seconds == entered for seconds, entered in parts.values())
    # the empirical tensors are not fitted to 1e-14, so each fit refines once
    assert parts["decompose"] == parts["decompose_svd_basis"] == parts["decompose_refine"] == (1, 1)
    draws, _ = perf.inside(calls, ((waring, "simultaneous_diagonalize"),))
    assert parts["decompose_pencil_draws"][0] > draws >= 1
    assert all(perf.inside([call], ((waring, "cho_factor"),))[1] >= 1 for call in calls)


def test_decompose_solves_are_refines(perf, fits, monkeypatch):
    monkeypatch.setattr(waring, "refine", lambda t, w, iters: w)
    assert perf.inside(fits[0], ((waring, "cho_factor"),)) == (0, 0)
