"""Pursuit vs 1-D k-means on a two-state series.

k-means clusters values with no notion of time, so it nails the two levels
but reassigns every noisy excursion. Pursuit fits levels over contiguous
stretches. Both are scored against the true mean path.
"""

from steppursuit import (
    PursuitConfig,
    kmeans_1d,
    mse,
    reconstruct,
    run_preset,
    run_pursuit,
)

out = run_preset("kmeans-2state", T=500, seed=4)

centers, assign = kmeans_1d(out.values, 2, seed=4)
km_path = centers[assign]
print(f"k-means centers: {sorted(round(c, 4) for c in centers.tolist())}  (true levels -0.2, +0.2)")
print(f"k-means piecewise-mean MSE: {mse(km_path, out.true_means):.5f}")

expansion = run_pursuit(out.values, PursuitConfig(max_iterations=21))
rec = reconstruct(expansion)
print(f"pursuit reconstruction MSE: {mse(rec, out.true_means):.5f}")
print(f"raw series MSE:             {mse(out.values, out.true_means):.5f}")

flips = int((assign[1:] != assign[:-1]).sum())
print(f"\nk-means label changes along the series: {flips}")
print(f"pursuit terms used: {len(expansion.terms)}")
