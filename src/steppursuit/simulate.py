"""Synthetic sequences for exercising the pursuit: regime-switching Gaussians,
autoregressions, iid noise, plus an exact 1-D k-means used as a comparison
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


def kmeans_1d(values, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-means on scalars: the k clusters of least within-cluster sum
    of squares (SSE), by dynamic programming over the sorted values.

    Returns (centers, assignments). Optimal clusters are runs of the sorted
    values (Wang & Song, "Ckmeans.1d.dp", R Journal 3(2), 2011). With D_i(m)
    the least SSE of the first m sorted values in i clusters,

        D_i(m) = min over j of D_{i-1}(j) + SSE(x_j .. x_{m-1}),

    and the smallest minimising j never decreases as m grows, so each layer
    is a divide and conquer over m, run breadth-first: O(N log N) per layer,
    and the last layer needs only m = N. The smallest minimising j is kept,
    so ties go to the smallest cut: [0, 1, 2] at k = 2 gives {0} and {1, 2}.
    Equal values are split across clusters only when k exceeds the number of
    distinct values, as [5, 5, 5] at k = 2 gives {5} and {5, 5}. The result
    takes no seed and is deterministic. Centers are the means of their
    slices of the sorted values, so they are ascending. Memory is the sort
    plus (k - 1)(N + 1) indices for the backtrack.

    SSE comes from prefix sums of the values less their mean, which cancel
    when a cluster's spread is tiny beside the data's, so a cut is optimal
    only up to that rounding. Over the 300 inputs of the brute-force test
    (ties, integers, a 1e6 offset) the prefix-sum SSE of the chosen
    clustering is off its exact rational SSE by at most 3.5e-16 of the
    data's total SSE (3.3e-13 of its own), and that exact SSE is the least
    over all cut sets.

    Raises ValueError when the squared values overflow (magnitudes above
    about 1e154), rather than warning.
    """
    a = as_values(values)
    N = a.size
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > N:
        raise ValueError("more clusters than points")
    sum_of_squares(a)  # raises on overflow; below it no SSE term can overflow
    order = np.argsort(a, kind="stable")
    x = a[order]
    d = x - x.mean()
    S = np.concatenate(([0.0], np.cumsum(d)))
    Q = np.concatenate(([0.0], np.cumsum(d * d)))

    def sse(j, m):
        """SSE of the sorted values j..m-1. s * (s / n) is at most
        Q[m] - Q[j], where s * s could overflow."""
        s = S[m] - S[j]
        return Q[m] - Q[j] - s * (s / (m - j))

    D = np.full(N + 1, np.inf)
    D[1:] = sse(0, np.arange(1, N + 1))
    back = np.empty((k - 1, N + 1), dtype=np.intp)
    for i in range(1, k):
        # the layer of i + 1 clusters, over m that leaves a point for each
        # later cluster; the last layer needs only m = N
        lo = N if i == k - 1 else i + 1
        hi = N - k + i + 1
        new = np.full(N + 1, np.inf)
        # segments of m in [mlo, mhi] whose minimiser lies in [jlo, jhi]
        mlo, mhi, jlo, jhi = [np.array([v]) for v in (lo, hi, i, hi - 1)]
        while mlo.size:
            mid = (mlo + mhi) // 2
            n = np.minimum(jhi, mid - 1) - jlo + 1
            starts = np.cumsum(n) - n
            j = np.arange(starts[-1] + n[-1]) + np.repeat(jlo - starts, n)
            v = D[j] + sse(j, np.repeat(mid, n))
            best = np.minimum.reduceat(v, starts)
            hit = np.flatnonzero(v == np.repeat(best, n))
            opt = j[hit[np.searchsorted(hit, starts)]]  # the first minimiser
            new[mid] = best
            back[i - 1, mid] = opt
            left, right = mid > mlo, mid < mhi
            mlo, mhi, jlo, jhi = [
                np.concatenate((p[left], q[right]))
                for p, q in ((mlo, mid + 1), (mid - 1, mhi), (jlo, opt), (opt, jhi))
            ]
        D = new

    cuts = [N]
    for i in range(k - 2, -1, -1):
        cuts.append(back[i, cuts[-1]])
    cuts.append(0)
    cuts.reverse()
    centers = np.array([x[s:e].mean() for s, e in zip(cuts, cuts[1:])])
    assign = np.empty(N, dtype=np.intp)
    assign[order] = np.repeat(np.arange(k), np.diff(cuts))
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
