"""A noisy rectangular block, recovered term by term.

Builds a signal that is zero except for one raised block, adds a little
noise, and walks through what greedy pursuit selects at each iteration:
the block first (it dominates every other window score), then noise
crumbs with rapidly shrinking coefficients.
"""

import numpy as np

from steppursuit import (
    PursuitConfig,
    breakpoints,
    energy_ledger,
    mse,
    reconstruct,
    run_pursuit,
)

rng = np.random.default_rng(42)
N = 120
signal = np.zeros(N)
signal[30:70] = 1.5
noisy = signal + rng.normal(0.0, 0.1, N)

expansion = run_pursuit(noisy, PursuitConfig(max_iterations=6))

print("selected windows (start, length, coefficient):")
for term in expansion.terms:
    print(
        f"  iter {term.iteration}: start={term.atom.start:3d} "
        f"length={term.atom.length:3d} coef={term.coefficient:+.4f}"
    )

print("\nenergy ledger (coef^2, residual norm^2):")
for row in energy_ledger(expansion):
    print(f"  {row[0]:10.4f}  {row[1]:10.4f}")

rec = reconstruct(expansion)
print(f"\nMSE of raw noisy signal vs truth: {mse(noisy, signal):.5f}")
print(f"MSE of reconstruction vs truth:   {mse(rec, signal):.5f}")
print(f"breakpoints above 0.5 jump: {breakpoints(expansion, threshold=0.5)}")
print("(the true block edges sit after cells 30 and 70)")
