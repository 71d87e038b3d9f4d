"""Synthetic sequences for exercising the pursuit: regime-switching Gaussians,
autoregressions, iid noise, plus a small 1-D k-means used as a comparison
baseline. Every generator is deterministic given its seed and reports the
conditional mean path alongside the values, so approximation error can be
measured against the truth rather than the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import as_values, sum_of_squares

__all__ = ["SimulationOutput", "kmeans_1d", "mse", "PRESETS", "run_preset"]


@dataclass(frozen=True, eq=False)
class SimulationOutput:
    """values: the observed sequence; states: 1-based hidden states (empty when
    the model has none); true_means: the conditional mean at each step."""

    values: np.ndarray
    states: np.ndarray
    true_means: np.ndarray


def _regime(means, variance, transitions, T, seed) -> SimulationOutput:
    """Hidden-state chain with per-state Normal(mean, variance) observations.

    The initial state is uniform, and row s of `transitions` gives the
    probabilities of the next state from state s.
    """
    rng = np.random.default_rng(seed)
    K = len(means)
    cum = np.cumsum(np.asarray(transitions, dtype=float), axis=1)
    u = rng.random(T)
    states = np.empty(T, dtype=int)
    s = min(int(u[0] * K), K - 1)
    states[0] = s
    for t in range(1, T):
        s = min(int(np.searchsorted(cum[s], u[t], side="right")), K - 1)
        states[t] = s
    mean_path = np.asarray(means, dtype=float)[states]
    values = mean_path + rng.standard_normal(T) * math.sqrt(variance)
    return SimulationOutput(values, states + 1, mean_path.copy())


def _ar(coefficients, noise_sd, T, seed) -> SimulationOutput:
    """Autoregression y_t = sum_p c_p y_{t-p} + eps_t, eps iid N(0, noise_sd^2).

    It starts from an all-zero history, so the first len(coefficients) steps
    condition on that padding; they are kept, not dropped.
    """
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(T) * noise_sd
    y = np.zeros(T)
    mu = np.zeros(T)
    for t in range(T):
        m = 0.0
        for p, c in enumerate(coefficients, start=1):
            if t - p >= 0:
                m += c * y[t - p]
        mu[t] = m
        y[t] = m + eps[t]
    return SimulationOutput(y, np.empty(0, dtype=int), mu)


def _iid_normal(mean, variance, T, seed) -> SimulationOutput:
    """Independent Normal(mean, variance) draws; the true mean path is constant."""
    rng = np.random.default_rng(seed)
    values = mean + rng.standard_normal(T) * math.sqrt(variance)
    return SimulationOutput(values, np.empty(0, dtype=int), np.full(T, float(mean)))


def _nearest(a: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The index of each point's nearest center.

    This is `np.argmin(np.abs(a[:, None] - centers), axis=1)` bit for bit,
    the first index on ties included, from a running minimum over the
    centers, so nothing is N×k.
    """
    best = np.abs(a - centers[0])
    assign = np.zeros(a.size, dtype=np.intp)
    d = np.empty_like(best)
    for i in range(1, centers.size):
        np.abs(np.subtract(a, centers[i], out=d), out=d)
        np.copyto(assign, i, where=d < best)  # strict: a tie keeps the earlier center
        np.minimum(best, d, out=best)
    return assign


def kmeans_1d(values, k: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm on scalars with k-means++ seeding.

    Returns (centers, assignments). An emptied cluster is reseeded to the
    point farthest from its current center. Converges to a fixed point:
    centers are the means of their assigned points and each point is assigned
    to its nearest center.
    """
    a = as_values(values)
    N = a.size
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > N:
        raise ValueError("more clusters than points")
    rng = np.random.default_rng(seed)

    centers = np.empty(k)
    centers[0] = a[rng.integers(N)]
    d2 = np.full(N, np.inf)  # squared distance to the nearest center so far
    for i in range(1, k):
        np.minimum(d2, (a - centers[i - 1]) ** 2, out=d2)
        total = d2.sum()
        if total == 0.0:
            centers[i:] = centers[0]
            break
        centers[i] = a[rng.choice(N, p=d2 / total)]

    for _ in range(300):
        assign = _nearest(a, centers)
        new = centers.copy()
        for i in range(k):
            sel = a[assign == i]
            if sel.size:
                new[i] = sel.mean()
            else:
                new[i] = a[np.argmax(np.abs(a - centers[assign]))]
        if np.array_equal(new, centers):
            break
        centers = new
    else:  # the cap was hit: assign to the last centers
        assign = _nearest(a, centers)
    return centers, assign


def mse(x, y) -> float:
    """Mean squared difference of two equal-length sequences."""
    xv = as_values(x)
    yv = as_values(y)
    if xv.size != yv.size:
        raise ValueError("length mismatch")
    with np.errstate(over="ignore"):  # an inf difference fails the sum's check
        d = xv - yv
    return sum_of_squares(d) / d.size


# name -> (generator with its parameters bound, default T)
PRESETS = {
    "sim1-3state": (
        partial(
            _regime,
            means=(-0.5, 0.1, 0.5),
            variance=0.01,
            transitions=((0.98, 0.02, 0.0), (0.005, 0.98, 0.015), (0.02, 0.08, 0.90)),
        ),
        250,
    ),
    "sim2-4state": (
        partial(
            _regime,
            means=(-0.4, -0.1, 0.1, 0.4),
            variance=0.01,
            transitions=(
                (0.98, 0.02, 0.0, 0.0),
                (0.02, 0.95, 0.03, 0.0),
                (0.0, 0.02, 0.97, 0.01),
                (0.01, 0.0, 0.02, 0.97),
            ),
        ),
        600,
    ),
    "normal-mean2": (partial(_iid_normal, mean=2.0, variance=1.0), 500),
    "normal-std": (partial(_iid_normal, mean=0.0, variance=1.0), 500),
    "ar2": (partial(_ar, coefficients=(0.3, 0.3), noise_sd=1.0), 100),
    "kmeans-2state": (
        partial(
            _regime,
            means=(0.2, -0.2),
            variance=0.01,
            transitions=((0.97, 0.03), (0.03, 0.97)),
        ),
        500,
    ),
}


def run_preset(name: str, T: int | None = None, seed: int = 0) -> SimulationOutput:
    """Generate one of the named scenario presets; T defaults per preset."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    generate, default_T = PRESETS[name]
    T = default_T if T is None else T
    if T < 1:
        raise ValueError("T must be >= 1")
    return generate(T=T, seed=seed)
