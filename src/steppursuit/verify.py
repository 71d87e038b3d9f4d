"""Numerical verification sweeps.

Each sweep pits a closed-form claim against a dense grid search over the
continuous atom parameters (scale t, centre u, frequency xi) for batches of
random sequences, and reports the worst violation seen. The grid inner
products are computed by one vectorised engine, shared by the modulated and
unmodulated sweeps, not by the per-atom code in `dictionary`, so the two
routes check each other. It takes each window's inner product as the
difference of the cumulative integral of f(x) exp(-2 pi i xi x) at the
window's ends u -/+ t/2. Since f is real, the integral at -xi is the exact
conjugate of the one at xi, so only the distinct |xi| are swept; the
frequency grid k * xi_step, |k * xi_step| <= 2, is exactly symmetric about 0
and holds it, so that fold halves it. With one |xi| (as in the unmodulated
sweep) the integral is evaluated at every end directly; with more, once per
distinct end and per |xi|, and the differences are gathered by index into
buffers reused across the frequencies.

Sweeps:
  theorem2   grid max over unmodulated atoms is attained at the best
             cell-aligned window
  theorem1   same over the modulated dictionary, for single-signed sequences
  lemma1     for scales t <= 1 the grid max equals max |a_j|, attained at
             scale 1, frequency 0, centred on that cell
  lemma2     the partial-coverage window profile on its triangular domain is
             maximised at a vertex
  remark     the alternating two-cell closed form agrees with the generic
             inner product
  energy     pursuit's per-step energy bookkeeping is exact
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .core import as_values
from .dictionary import (
    WaveformAtom,
    alternating_pair_modulus,
    inner_product,
    partial_window_modulus,
)
from .maximizer import best_window, best_window_single_signed
from .pursuit import PursuitConfig, energy_ledger, run_pursuit

__all__ = ["SUITES", "run_suite", "grid_max_unmodulated", "grid_max_modulated"]

_LEMMA2_KS = (1, 2, 3, 4)
_LEMMA2_GRID_N = 200
_ENERGY_ITERATIONS = 20


def _cumulative(a: np.ndarray, xi: float, y: np.ndarray) -> np.ndarray:
    """Integral of f(x) exp(-2 pi i xi x) from -inf to each y, exact per cell."""
    N = a.size
    b = np.arange(N + 1) + 0.5  # cell j spans [j - 1/2, j + 1/2]
    if xi == 0.0:
        # piecewise linear between the boundaries, flat outside the support
        return np.interp(y, b, np.concatenate(([0.0], np.cumsum(a))))
    g = math.pi * xi
    # full-cell integrals share the width-1 sinc; phases vary per cell
    full = np.exp(-2j * g * np.arange(1, N + 1)) * (math.sin(g) / g)
    cum = np.concatenate(([0.0], np.cumsum(a * full)))
    # an end left of the support integrates nothing of cell 1, one right of it
    # all of cell N
    y = np.clip(y, b[0], b[-1])
    i = np.clip(np.searchsorted(b, y, side="left"), 1, N)  # cell index, 1-based
    lo = b[i - 1]
    w = y - lo
    # sin(g w) / g, as w (1 - (g w)^2 / 6) for tiny g as in dictionary._sin_over:
    # dividing by a subnormal g loses every digit
    part = w * (1.0 - (g * w) ** 2 / 6.0) if abs(g) < 1e-4 else np.sin(g * w) / g
    seg = np.exp(-1j * g * (lo + y)) * part
    return cum[i - 1] + a[i - 1] * seg


def _grid_max(a: np.ndarray, t_grid, u_grid, xi_grid) -> float:
    """Max of |<f, G_{t,xi,u}>| over the (t, u, xi) grid.

    The inner product over the window [u - t/2, u + t/2] is a difference of
    the cumulative integral at its two ends. For real f the integral at -xi
    is the exact complex conjugate of the one at xi (every factor of
    `_cumulative` is odd or even in xi), so the moduli are bitwise equal and
    only the distinct |xi| are swept. With one |xi| left, the integral is
    evaluated at both ends of every window where they stand. With more,
    grid windows share few distinct ends, so for each |xi| the integral is
    evaluated once per distinct end and the differences are gathered by
    index into buffers allocated once per call: the sort pays for
    itself over the frequencies.
    """
    t = np.asarray(t_grid, dtype=float)[:, None]
    u = np.asarray(u_grid, dtype=float)[None, :]
    xis = np.unique(np.abs(np.asarray(xi_grid, dtype=float)))
    root = np.sqrt(t)
    if xis.size == 1:
        vals = _cumulative(a, xis[0], u + t / 2.0)
        vals -= _cumulative(a, xis[0], u - t / 2.0)
        vals = np.abs(vals)
        vals /= root
        return float(vals.max())
    los = u - t / 2.0
    his = u + t / 2.0
    ends = np.unique(np.concatenate((los.ravel(), his.ravel())))
    ilo = np.searchsorted(ends, los)
    ihi = np.searchsorted(ends, his)
    del los, his  # freed before the buffers, to keep peak memory down
    z = np.empty(ihi.shape, dtype=complex)
    w = np.empty_like(z)
    m = np.empty(ihi.shape)
    best = 0.0
    for xi in xis:
        # the xi = 0 integral is real; as complex its modulus is unchanged,
        # since hypot(x, 0) == |x|
        c = _cumulative(a, xi, ends).astype(complex, copy=False)
        # every index is in range (searchsorted finds each end in `ends`,
        # which holds them all), so "clip" never clips; it only spares the
        # buffered copy that take makes under the default "raise"
        np.take(c, ihi, out=z, mode="clip")
        np.take(c, ilo, out=w, mode="clip")
        z -= w
        np.abs(z, out=m)
        m /= root
        best = max(best, float(m.max()))
    return best


def grid_max_unmodulated(values, t_grid, u_grid) -> float:
    """Max of |<f, G_{t,0,u}>| over the (t, u) grid."""
    return _grid_max(as_values(values), t_grid, u_grid, [0.0])


def grid_max_modulated(values, t_grid, u_grid, xi_grid) -> float:
    """Max of |<f, G_{t,xi,u}>| over the (t, u, xi) grid."""
    return _grid_max(as_values(values), t_grid, u_grid, xi_grid)


def _steps(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, .. up to hi. A step count less than a relative 1e-9
    below a whole number is rounded up to it, so that grids whose step
    divides the range end on hi despite the rounding of the division; the
    last point can then pass hi by the rounding of lo + step * n."""
    n = (hi - lo) / step * (1.0 + 1e-9)
    if not math.isfinite(n):
        raise ValueError(f"grid step {step:g} is too small: the grid's point count overflows")
    n = math.floor(n)
    if n < 0:
        raise ValueError(f"grid step {step:g} is larger than the swept range up to {hi:g}")
    return lo + step * np.arange(n + 1)


def _xi_grid(step: float) -> np.ndarray:
    """k * step for every whole k with |k * step| <= 2 (up to 2 as `_steps`
    rounds it): exactly symmetric about 0, which it always holds."""
    half = _steps(0.0, 2.0, step)  # 0, step, .., K * step
    return np.concatenate((-half[:0:-1], half))


def _report(suite, trials, seed, tolerance, max_violation, extras=None):
    rep = {
        "suite": suite,
        "trials": int(trials),
        "seed": int(seed),
        "tolerance": float(tolerance),
        "max_violation": float(max_violation),
        "passed": bool(max_violation <= tolerance),
    }
    if extras:
        rep.update(extras)
    return rep


def sweep_theorem2(trials=50, n_max=12, grid_step=0.02, seed=0):
    """Grid max over unmodulated atoms vs best_window, random mixed-sign input.

    Violation is the larger of (grid max - closed form) and the gap between
    the closed form and the actual inner product at the winning cell-aligned
    window (the attainment check, which must hold to near round-off).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    attain = 0.0
    for _ in range(trials):
        N = int(rng.integers(1, n_max + 1))
        a = rng.uniform(-1.0, 1.0, N)
        scored = best_window(a)
        t_grid = _steps(grid_step, N + 1, grid_step)
        u_grid = _steps(0.0, N + 1, grid_step)
        gmax = grid_max_unmodulated(a, t_grid, u_grid)
        worst = max(worst, gmax - scored.value)
        L, start = scored.atom.length, scored.atom.start
        ip = inner_product(a, WaveformAtom(float(L), 0.0, start + (L - 1) / 2.0))
        attain = max(attain, abs(abs(ip) - scored.value))
    return _report(
        "theorem2", trials, seed, 1e-6, max(worst, attain),
        {"max_excess": worst, "max_attainment_gap": attain},
    )


def sweep_theorem1(trials=50, n_max=10, grid_step=0.02, xi_step=0.05, seed=0):
    """Grid max over the full modulated dictionary vs the single-signed closed form."""
    rng = np.random.default_rng(seed)
    xi_grid = _xi_grid(xi_step)
    worst = 0.0
    for _ in range(trials):
        N = int(rng.integers(1, n_max + 1))
        a = rng.uniform(0.0, 1.0, N)
        scored = best_window_single_signed(a)
        t_grid = _steps(grid_step, N + 1, grid_step)
        u_grid = _steps(0.0, N + 1, grid_step)
        gmax = grid_max_modulated(a, t_grid, u_grid, xi_grid)
        worst = max(worst, gmax - scored.value)
    return _report("theorem1", trials, seed, 1e-6, worst, {"max_excess": worst})


def sweep_lemma1(trials=50, n_max=12, grid_step=0.02, xi_step=0.05, seed=0):
    """Scales t <= 1 only: the dictionary max must equal max |a_j|, attained
    by the unit window centred on the largest cell."""
    rng = np.random.default_rng(seed)
    xi_grid = _xi_grid(xi_step)
    worst = 0.0
    for _ in range(trials):
        N = int(rng.integers(1, n_max + 1))
        a = rng.uniform(-1.0, 1.0, N)
        n0 = int(np.argmax(np.abs(a)))
        amax = float(abs(a[n0]))
        t_grid = _steps(grid_step, 1.0, grid_step)
        u_grid = _steps(0.0, N + 1, grid_step)
        gmax = grid_max_modulated(a, t_grid, u_grid, xi_grid)
        ip = inner_product(a, WaveformAtom(1.0, 0.0, n0 + 1))
        worst = max(worst, abs(gmax - amax), abs(abs(ip) - amax))
    return _report("lemma1", trials, seed, 1e-6, worst)


def sweep_lemma2(trials=100, seed=0):
    """Partial-coverage profile psi on the triangle k <= t <= k + 1,
    0 <= s <= t - k, k in _LEMMA2_KS: max over a dense grid must not exceed the
    best of the corner values (s, t) in {(0, k), (0, k + 1), (1, k + 1)}.

    Also spot-checks that the scalar operation matches the vectorised grid
    formula, routing a handful of points through partial_window_modulus on a
    sequence that realises the same (left, middle, right) triple.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    agree = 0.0
    for k in _LEMMA2_KS:
        for _ in range(trials):
            left, middle, right = rng.uniform(-2.0, 2.0, 3)
            tt = k + np.linspace(0.0, 1.0, _LEMMA2_GRID_N)[None, :]
            lam = np.linspace(0.0, 1.0, _LEMMA2_GRID_N)[:, None]
            ss = lam * (tt - k)
            vals = np.abs(left * ss + middle + right * (tt - ss - k)) / np.sqrt(tt)
            corners = max(
                abs(middle) / math.sqrt(k),
                abs(middle + right) / math.sqrt(k + 1),
                abs(left + middle) / math.sqrt(k + 1),
            )
            worst = max(worst, float(vals.max()) - corners)
            # sequence [left, middle, 0 x (k-1), right] with n = 2 realises psi
            seq = [left, middle] + [0.0] * (k - 1) + [right]
            for _ in range(5):
                i = int(rng.integers(_LEMMA2_GRID_N))
                j = int(rng.integers(_LEMMA2_GRID_N))
                op = partial_window_modulus(ss[i, j], tt[0, j], 2, k, seq)
                agree = max(agree, abs(op - float(vals[i, j])))
    return _report(
        "lemma2", trials, seed, 1e-9, max(worst, agree),
        {"max_excess": worst, "max_operation_gap": agree},
    )


def sweep_remark(trials=1000, seed=0):
    """Alternating two-cell closed form vs the generic inner product.

    Random amplitudes, scales on both sides of 1, centre offsets across the
    admissible range and frequencies in [-2, 2] (with some exact zeros).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        amp = rng.uniform(0.2, 2.0)
        t = rng.uniform(0.05, 1.0) if i % 2 == 0 else rng.uniform(1.0, 4.0)
        delta = rng.uniform(-(t + 1.0) / 2.0, (t + 1.0) / 2.0)
        xi = 0.0 if i % 10 == 9 else rng.uniform(-2.0, 2.0)
        closed = alternating_pair_modulus(amp, t, delta, xi)
        ip = inner_product([-amp, amp], WaveformAtom(t, xi, 1.0 + delta))
        worst = max(worst, abs(closed - abs(ip)))
    return _report("remark", trials, seed, 1e-10, worst)


def sweep_energy(trials=100, n=256, seed=0):
    """Greedy pursuit energy identity: at every step m of _ENERGY_ITERATIONS,

        ||input||^2 = sum_{i <= m} coef_i^2 + ||residual_m||^2

    to 1e-9 relative, with the residual norms nonincreasing."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a = rng.uniform(-1.0, 1.0, n)
        exp = run_pursuit(a, PursuitConfig(max_iterations=_ENERGY_ITERATIONS))
        total = exp.norm_history[0] ** 2
        spent = 0.0
        for coef_sq, res_sq in energy_ledger(exp):
            spent += coef_sq
            worst = max(worst, abs(total - (spent + res_sq)) / total)
        drops = np.diff(exp.norm_history)
        if drops.size and float(drops.max()) > 0.0:
            worst = max(worst, float(drops.max()))
    return _report("energy", trials, seed, 1e-9, worst)


SUITES = {
    "theorem2": sweep_theorem2,
    "theorem1": sweep_theorem1,
    "lemma1": sweep_lemma1,
    "lemma2": sweep_lemma2,
    "remark": sweep_remark,
    "energy": sweep_energy,
}


def run_suite(name: str, **params) -> dict:
    """Dispatch a sweep by name, forwarding only the parameters it accepts.
    One that only other sweeps accept is dropped, as the CLI passes every flag
    to every suite; one that no sweep accepts is a ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    accepted = {n: inspect.signature(fn).parameters for n, fn in SUITES.items()}
    unknown = params.keys() - {p for names in accepted.values() for p in names}
    if unknown:
        raise ValueError(f"no suite takes the parameter(s) {', '.join(sorted(unknown))}")
    kwargs = {k: v for k, v in params.items() if v is not None and k in accepted[name]}
    return SUITES[name](**kwargs)
