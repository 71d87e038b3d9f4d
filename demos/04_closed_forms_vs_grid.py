"""The closed-form maximizer against a brute numerical search.

Draws a short random sequence, scans a dense grid of window scales and
centres (plus modulation frequencies for the single-signed case), and shows
the grid never beats the closed-form best window. Also prints the
alternating two-cell curiosity: a sign flip that is invisible to every
unmodulated window but lights up under modulation.
"""

import numpy as np

from steppursuit import (
    WaveformAtom,
    alternating_pair_modulus,
    best_window,
    best_window_single_signed,
    inner_product,
)
from steppursuit.verify import grid_max_modulated, grid_max_unmodulated

rng = np.random.default_rng(7)

a = rng.uniform(-1.0, 1.0, 9)
scored = best_window(a)
step = 0.02
t_grid = np.arange(1, int(10 / step) + 1) * step
u_grid = np.arange(0, int(10 / step) + 1) * step
gmax = grid_max_unmodulated(a, t_grid, u_grid)
print("mixed-sign sequence, unmodulated dictionary:")
print(f"  closed-form best window: start={scored.atom.start} length={scored.atom.length} value={scored.value:.8f}")
print(f"  dense grid maximum:      {gmax:.8f}  (never larger)")

b = rng.uniform(0.0, 1.0, 7)
scored_b = best_window_single_signed(b)
xi_grid = np.arange(-40, 41) * 0.05
t_grid = np.arange(1, int(8 / step) + 1) * step
u_grid = np.arange(0, int(8 / step) + 1) * step
gmax_b = grid_max_modulated(b, t_grid, u_grid, xi_grid)
print("\nsingle-signed sequence, full modulated dictionary:")
print(f"  closed-form value:  {scored_b.value:.8f}")
print(f"  grid over (t, u, xi): {gmax_b:.8f}")

print("\nalternating pair -1, +1 with the full-coverage window:")
f = [-1.0, 1.0]
for xi in (0.0, 0.25, 0.5):
    direct = abs(inner_product(f, WaveformAtom(2.0, xi, 1.5)))
    closed = alternating_pair_modulus(1.0, 2.0, 0.5, xi)
    print(f"  xi = {xi:4.2f}: |<f, G>| = {direct:.8f}, closed form {closed:.8f}")
