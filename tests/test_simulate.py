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
    centers, assign = kmeans_1d([0.0, 0.0, 10.0, 10.0], 2, seed=0)
    assert sorted(centers.tolist()) == [0.0, 10.0]
    assert assign[0] == assign[1] and assign[2] == assign[3]
    assert assign[0] != assign[2]


def test_kmeans_k1_is_mean():
    centers, assign = kmeans_1d([1.0, 2.0, 6.0], 1, seed=0)
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
        centers, assign = kmeans_1d(data, 3, seed=trial)
        for i in range(3):
            sel = data[assign == i]
            if sel.size:
                assert centers[i] == pytest.approx(sel.mean(), abs=1e-12)
        nearest = np.argmin(np.abs(data[:, None] - centers[None, :]), axis=1)
        assert np.array_equal(nearest, assign)


def test_kmeans_constant_data():
    centers, assign = kmeans_1d([5.0, 5.0, 5.0], 2, seed=0)
    assert np.all(centers == 5.0)


def test_mse():
    assert mse([0, 0], [1, 1]) == 1.0
    assert mse([1.5], [1.5]) == 0.0
    with pytest.raises(ValueError, match="length"):
        mse([1, 2], [1])


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
