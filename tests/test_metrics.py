import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from momentgmm import InputError, ari, bic, error_rate, nu_spherical


def brute_force_ari(a, b):
    """Pair-counting oracle: iterate over all unordered point pairs."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i, j in itertools.combinations(range(n), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        if same_a and same_b:
            n11 += 1
        elif same_a:
            n10 += 1
        elif same_b:
            n01 += 1
        else:
            n00 += 1
    total = n11 + n10 + n01 + n00
    expected = (n11 + n10) * (n11 + n01) / total
    max_index = 0.5 * ((n11 + n10) + (n11 + n01))
    if max_index == expected:
        return 1.0
    return (n11 - expected) / (max_index - expected)


def brute_force_error_rate(pred, truth, r):
    """Exhaustive minimum over all r! relabelings."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    best = len(pred)
    for perm in itertools.permutations(range(r)):
        relabeled = np.array([perm[p] for p in pred])
        best = min(best, int(np.sum(relabeled != truth)))
    return best / len(pred)


class TestNu:
    def test_formula(self):
        assert nu_spherical(4, 6) == 3 + 24 + 4
        assert nu_spherical(1, 1) == 0 + 1 + 1
        assert nu_spherical(3, 5) == 2 + 15 + 3


class TestBic:
    def test_hand_value(self):
        assert bic(-100.0, 100, 10) == pytest.approx(-200.0 - 10 * math.log(100))

    def test_larger_loglik_is_better(self):
        assert bic(-10.0, 50, 3) > bic(-20.0, 50, 3)

    def test_more_parameters_penalized(self):
        assert bic(-10.0, 50, 3) > bic(-10.0, 50, 8)

    def test_validation(self):
        with pytest.raises(InputError):
            bic(0.0, 0, 1)
        with pytest.raises(InputError):
            bic(0.0, 10, 0)


class TestAri:
    def test_identical_partitions(self):
        assert ari([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == pytest.approx(1.0)

    def test_label_permutation_invariant(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, 3000)
        b = rng.integers(0, 3, 3000)
        assert abs(ari(a, b)) < 0.02

    def test_hand_case(self):
        # a = {1,2},{3,4}; b = {1},{2,3,4}: n11=1, sum_a=2, sum_b=3, total=6
        a = [0, 0, 1, 1]
        b = [0, 1, 1, 1]
        expected = (1 - 2 * 3 / 6) / (0.5 * (2 + 3) - 2 * 3 / 6)
        assert ari(a, b) == pytest.approx(expected)

    def test_can_be_negative(self):
        assert ari([0, 1, 0, 1], [0, 0, 1, 1]) < 0

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a = rng.integers(0, 3, n)
            b = rng.integers(0, 3, n)
            assert ari(a, b) == pytest.approx(brute_force_ari(a, b), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            ari([0, 1], [0, 1, 2])


class TestErrorRate:
    def test_perfect_after_relabeling(self):
        assert error_rate([1, 1, 0, 0], [0, 0, 1, 1], 2) == 0.0

    def test_hand_case(self):
        # best relabeling of pred still misses one point
        assert error_rate([0, 0, 1, 1], [0, 1, 1, 1], 2) == pytest.approx(0.25)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            r = int(rng.integers(2, 4))
            n = int(rng.integers(r, 9))
            pred = rng.integers(0, r, n)
            truth = rng.integers(0, r, n)
            assert error_rate(pred, truth, r) == pytest.approx(
                brute_force_error_rate(pred, truth, r), abs=1e-12
            )

    def test_label_range_check(self):
        with pytest.raises(InputError):
            error_rate([0, 2], [0, 1], 2)
        with pytest.raises(InputError):
            error_rate([0, -1], [0, 1], 2)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            error_rate([0], [0, 1], 2)


def unique_contingency(a, b):
    """The contingency table by sorting: ranks of each label vector among its
    distinct values, counted with np.add.at."""
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    return table


def sorting_ari(a, b):
    """ARI from unique_contingency, by the pair-count formula ari uses."""
    table = unique_contingency(a, b)
    n = int(table.sum())
    if n < 2:
        return 1.0
    sum_ij = int(np.sum(table * (table - 1) // 2))
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    sum_a, sum_b = int(np.sum(rows * (rows - 1) // 2)), int(np.sum(cols * (cols - 1) // 2))
    expected = sum_a * sum_b / (n * (n - 1) // 2)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def add_at_error_rate(pred, truth, r):
    """error_rate with its r x r table counted by np.add.at."""
    confusion = np.zeros((r, r), dtype=np.int64)
    np.add.at(confusion, (pred, truth), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    return float((len(pred) - int(confusion[rows, cols].sum())) / len(pred))


def label_pairs():
    rng = np.random.default_rng(41)
    n = 500
    base = rng.integers(0, 4, n)
    yield "int64", base, rng.integers(0, 5, n)
    yield "int8", base.astype(np.int8), rng.integers(0, 3, n).astype(np.int8)
    yield "negative", base - 7, rng.integers(-3, 2, n)
    yield "non-contiguous", base * 10 + 3, rng.choice([-50, 2, 999], n)
    yield "sparse-range", base * 10**9, rng.integers(0, 2, n)
    yield "single-cluster", np.zeros(n, dtype=np.int8), base
    yield "strided", rng.integers(0, 4, 2 * n)[::2], base
    yield "float", base + 0.5, rng.integers(0, 3, n).astype(float)
    yield "string", np.array(["a", "b", "c", "d"])[base], base


@pytest.mark.parametrize("a, b", [pytest.param(a, b, id=kind) for kind, a, b in label_pairs()])
def test_ari_matches_sorting_count(a, b):
    assert ari(a, b) == sorting_ari(a, b)
    assert ari(b, a) == sorting_ari(b, a)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
@pytest.mark.parametrize("r", [1, 2, 5])
def test_error_rate_matches_add_at_count(dtype, r):
    rng = np.random.default_rng(r)
    pred = rng.integers(0, r, 300).astype(dtype)
    truth = rng.integers(0, r, 300).astype(dtype)
    assert error_rate(pred, truth, r) == add_at_error_rate(pred, truth, r)
    # a strided view and a single cluster
    assert error_rate(pred[::3], truth[::3], r) == add_at_error_rate(pred[::3], truth[::3], r)
    ones = np.zeros_like(pred)
    assert error_rate(ones, truth, r) == add_at_error_rate(ones, truth, r)
