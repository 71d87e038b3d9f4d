"""Step-fitting a regime-switching series.

The 3-state preset wanders between means -0.5, 0.1 and 0.5 with small
observation noise. Eleven greedy terms are enough to track the mean path
far better than the raw series does.
"""

import numpy as np

from steppursuit import PursuitConfig, mse, reconstruct, run_preset, run_pursuit

out = run_preset("sim1-3state", T=250, seed=1)
expansion = run_pursuit(out.values, PursuitConfig(max_iterations=11))
rec = reconstruct(expansion)

print(f"observed states: {sorted(set(out.states.tolist()))}")
print(f"raw MSE against the true mean path:            {mse(out.values, out.true_means):.5f}")
print(f"reconstruction MSE against the true mean path: {mse(rec, out.true_means):.5f}")

# crude segment printout: where the reconstruction changes level
prev = rec[0]
start = 1
print("\nfitted levels:")
for j in range(1, len(rec)):
    if rec[j] != prev:
        print(f"  cells {start:3d}..{j:3d}  level {prev:+.3f}")
        prev = rec[j]
        start = j + 1
print(f"  cells {start:3d}..{len(rec):3d}  level {prev:+.3f}")
