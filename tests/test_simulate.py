import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from steppursuit.simulate import (
    PRESETS,
    _ar,
    _iid_normal,
    _regime,
    kmeans_1d,
    mse,
    run_preset,
)

# a two-state chain: (means, variance, transitions)
TWO_STATE = ((0.0, 1.0), 0.04, ((0.9, 0.1), (0.2, 0.8)))


def test_regime_output_shape_and_states():
    out = _regime(*TWO_STATE, 300, seed=5)
    assert len(out.values) == len(out.states) == len(out.true_means) == 300
    assert set(np.unique(out.states)) <= {1, 2}
    # the mean path is the state's mean at every step
    means = np.asarray(TWO_STATE[0])
    assert np.array_equal(out.true_means, means[out.states - 1])


def test_regime_reproducible():
    a = _regime(*TWO_STATE, 200, seed=9)
    b = _regime(*TWO_STATE, 200, seed=9)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.states, b.states)
    c = _regime(*TWO_STATE, 200, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_identity_transitions_freeze_the_state():
    out = _regime(
        means=(-1.0, 0.0, 1.0),
        variance=0.0,
        transitions=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        T=100,
        seed=3,
    )
    assert len(set(out.states.tolist())) == 1
    assert np.all(out.values == out.true_means)


def test_single_state_zero_variance_is_constant():
    out = _regime(means=(0.7,), variance=0.0, transitions=((1.0,),), T=50, seed=0)
    assert np.all(out.values == 0.7)
    assert np.all(out.states == 1)


def test_empirical_transition_frequencies():
    out = _regime(*TWO_STATE, 50_000, seed=2)
    s = out.states
    P = np.zeros((2, 2))
    for i in range(2):
        here = s[:-1] == i + 1
        total = here.sum()
        for j in range(2):
            P[i, j] = np.sum(here & (s[1:] == j + 1)) / total
    assert np.max(np.abs(P - np.asarray(TWO_STATE[2]))) <= 0.02


def test_noise_sample_variance():
    out = _regime(*TWO_STATE, 50_000, seed=8)
    noise = out.values - out.true_means
    assert np.var(noise) == pytest.approx(0.04, rel=0.10)


def test_ar_conditional_means():
    out = _ar((0.5, -0.25), 1.0, 64, seed=1)
    assert out.states.size == 0
    y, mu = out.values, out.true_means
    assert mu[0] == 0.0
    assert mu[1] == pytest.approx(0.5 * y[0])
    for t in range(2, 64):
        assert mu[t] == pytest.approx(0.5 * y[t - 1] - 0.25 * y[t - 2], rel=1e-12)


def test_ar_zero_coefficient_is_iid():
    out = _ar((0.0,), 2.0, 1000, seed=4)
    assert np.all(out.true_means == 0.0)
    assert np.std(out.values) == pytest.approx(2.0, rel=0.10)


def test_iid_normal():
    out = _iid_normal(3.0, 0.0, 25, seed=0)
    assert np.all(out.values == 3.0)
    assert np.all(out.true_means == 3.0)
    big = _iid_normal(-1.0, 4.0, 50_000, seed=6)
    assert np.var(big.values) == pytest.approx(4.0, rel=0.10)
    assert np.mean(big.values) == pytest.approx(-1.0, abs=0.05)


def test_kmeans_two_well_separated_clusters():
    centers, assign = kmeans_1d([0.0, 0.0, 10.0, 10.0], 2)
    assert sorted(centers.tolist()) == [0.0, 10.0]
    assert assign[0] == assign[1] and assign[2] == assign[3]
    assert assign[0] != assign[2]


def test_kmeans_k1_is_mean():
    centers, assign = kmeans_1d([1.0, 2.0, 6.0], 1)
    assert centers.tolist() == [3.0]
    assert assign.tolist() == [0, 0, 0]


def test_kmeans_rejects_k_larger_than_n():
    with pytest.raises(ValueError):
        kmeans_1d([1.0, 2.0], 3)


def test_kmeans_fixed_point():
    rng = np.random.default_rng(14)
    for trial in range(10):
        data = np.concatenate(
            [rng.normal(-1, 0.3, 40), rng.normal(0.5, 0.2, 40), rng.normal(2, 0.4, 20)]
        )
        centers, assign = kmeans_1d(data, 3)
        for i in range(3):
            sel = data[assign == i]
            if sel.size:
                assert centers[i] == pytest.approx(sel.mean(), abs=1e-12)
        nearest = np.argmin(np.abs(data[:, None] - centers[None, :]), axis=1)
        assert np.array_equal(nearest, assign)


def _argmin_nearest(a, centers):
    return np.argmin(np.abs(a[:, None] - centers[None, :]), axis=1)


def test_kmeans_assignments_on_ties_are_argmin():
    # midpoints between centers, repeated values and -0.0 beside 0.0
    data = np.array([0.0, -0.0, 1.0, 2.0, 2.0, 1.0, 3.0, 4.0, 4.0, 2.0, -0.0])
    for k in (2, 3, 4):
        centers, assign = kmeans_1d(data, k)
        assert np.array_equal(assign, _argmin_nearest(data, centers))


def test_kmeans_constant_data():
    # more clusters than distinct values: equal values split at the smallest cut
    centers, assign = kmeans_1d([5.0, 5.0, 5.0], 2)
    assert centers.tolist() == [5.0, 5.0]
    assert assign.tolist() == [0, 1, 1]


def test_kmeans_ties_go_to_the_smallest_cut():
    # {0} | {1, 2} and {0, 1} | {2} both have SSE 1/2
    centers, assign = kmeans_1d([0.0, 1.0, 2.0], 2)
    assert centers.tolist() == [0.0, 1.5]
    assert assign.tolist() == [0, 1, 1]
    # the cut is taken in sorted order and mapped back to the input's
    centers, assign = kmeans_1d([2.0, 0.0, 1.0], 2)
    assert centers.tolist() == [0.0, 1.5]
    assert assign.tolist() == [1, 0, 1]


def _exact_sse(clusters):
    """Within-cluster sum of squares in rationals, so a constant cluster
    scores exactly 0."""
    total = Fraction(0)
    for c in clusters:
        q = [Fraction(v) for v in c]
        m = sum(q) / len(q)
        total += sum((v - m) ** 2 for v in q)
    return total


def test_kmeans_is_optimal_over_all_cut_sets():
    # ties from integers and a 0.01 grid, and a 1e6 offset with and without
    # them; every clustering into k runs of the sorted values is scored
    rng = np.random.default_rng(27)
    for trial in range(300):
        N = int(rng.integers(1, 13))
        if trial % 4 == 0:
            data = rng.integers(-3, 4, N) * 1.0
        elif trial % 4 == 1:
            data = np.round(rng.normal(0.0, 1.0, N), 2)
        elif trial % 4 == 2:
            data = 1e6 + rng.integers(0, 5, N) * 0.01
        else:
            data = 1e6 + rng.normal(0.0, 1.0, N)
        k = int(rng.integers(1, min(N, 5) + 1))
        centers, assign = kmeans_1d(data, k)
        assert np.all(np.diff(centers) >= 0.0)
        got = _exact_sse([data[assign == i].tolist() for i in range(k)])
        x = np.sort(data).tolist()
        seg = {(s, e): _exact_sse([x[s:e]]) for s in range(N) for e in range(s + 1, N + 1)}
        best = min(
            sum(seg[s, e] for s, e in zip((0, *cuts), (*cuts, N)))
            for cuts in itertools.combinations(range(1, N), k - 1)
        )
        assert got <= best * (1 + Fraction(1, 10**9)), (data, k)


def test_kmeans_beats_lloyd_on_the_two_state_preset():
    # Lloyd from a k-means++ seed stopped at SSE 4.584493 here; the least SSE
    # over every cut of the sorted values is 4.584425
    values = run_preset("kmeans-2state", 500, 4).values
    x = np.sort(values)

    def fsum_sse(parts):
        return math.fsum(math.fsum((p - math.fsum(p) / p.size) ** 2) for p in parts)

    best = min(fsum_sse((x[:c], x[c:])) for c in range(1, x.size))
    centers, assign = kmeans_1d(values, 2)
    got = fsum_sse([values[assign == i] for i in range(2)])
    assert got <= best * (1 + 1e-12)
    assert got == pytest.approx(4.584425, abs=1e-6)


def test_kmeans_overflowing_squares():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="squared values overflow"):
            kmeans_1d([1e200, -1e200, 3.0], 2)


def test_mse():
    assert mse([0, 0], [1, 1]) == 1.0
    assert mse([1.5], [1.5]) == 0.0
    with pytest.raises(ValueError, match="length"):
        mse([1, 2], [1])
    assert mse([1.3e154, 0.0], [0.0, 0.0]) == pytest.approx(1.3e154 ** 2 / 2, rel=1e-15)
    # an overflowing difference or sum of squares is an error, with no
    # RuntimeWarning on the way (pytest turns one into a failure)
    with pytest.raises(ValueError, match="squared values overflow"):
        mse([1e308], [-1e308])
    with pytest.raises(ValueError, match="squared values overflow"):
        mse([1e155], [0.0])


def test_presets_exist_with_expected_defaults():
    assert set(PRESETS) == {
        "sim1-3state",
        "sim2-4state",
        "normal-mean2",
        "normal-std",
        "ar2",
        "kmeans-2state",
    }
    out = run_preset("sim1-3state", seed=1)
    assert len(out.values) == 250
    assert set(np.unique(out.states)) <= {1, 2, 3}
    out = run_preset("sim2-4state", seed=1)
    assert len(out.values) == 600
    assert set(np.unique(out.states)) <= {1, 2, 3, 4}
    out = run_preset("normal-mean2", seed=1)
    assert len(out.values) == 500
    assert np.all(out.true_means == 2.0)
    out = run_preset("ar2", seed=1)
    assert len(out.values) == 100
    out = run_preset("kmeans-2state", seed=1)
    assert len(out.values) == 500
    assert set(np.round(np.unique(out.true_means), 6)) <= {-0.2, 0.2}
    with pytest.raises(ValueError, match="preset"):
        run_preset("nope")


def test_preset_t_override():
    out = run_preset("normal-std", T=33, seed=0)
    assert len(out.values) == 33
    with pytest.raises(ValueError):
        run_preset("normal-std", T=0, seed=0)
