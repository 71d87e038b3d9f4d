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
distinct end and per |xi|, and the differences are gathered by index. The
grid is swept a block of scales at a time, so its memory grows with the
grid's side, not with its point count. A ceiling per scale (see
`_grid_max`) leaves only the scales that can hold the max to the sweep, and
a ceiling per scale and |xi|, from an integration by parts over the cells,
only the frequencies that can.

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
# (t, u) points per block of the grid sweep, and the most points it sweeps
_BLOCK = 1 << 14
_MAX_POINTS = 1 << 31
# slack of the kink and frequency ceilings on a row peak, relative to sum |a_j|
_SLACK = 1e-9


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


def _row_peaks(a: np.ndarray, t: np.ndarray, u: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Max of |<f, G_{t,xi,u}>| sqrt(t) over u and the |xi| in `xis`, per scale:
    the sweep of the scales that `_grid_max`'s ceiling leaves.

    The t grid is walked a block of about `_BLOCK` (t, u) points at a time,
    so memory grows with the distinct window ends (linear in the grid's side
    on a lattice), not with the point count. With one |xi|, the integral is
    evaluated at both ends of every window where they stand. With more, grid
    windows share few distinct ends, so the integral is evaluated once per
    distinct end and per |xi|, and each block gathers its window differences
    by index: the sort pays for itself over the frequencies.
    """
    rows = min(t.size, max(1, _BLOCK // u.size))
    blocks = [slice(i, i + rows) for i in range(0, t.size, rows)]

    def window_ends(block):
        half = t[block, None] / 2.0
        return u - half, u + half

    peaks = np.zeros(t.size)
    if xis.size == 1:
        for block in blocks:
            lo, hi = window_ends(block)
            z = _cumulative(a, xis[0], hi)
            z -= _cumulative(a, xis[0], lo)
            peaks[block] = np.abs(z).max(axis=1)
        return peaks
    ends = np.unique(np.concatenate([np.unique(window_ends(b)) for b in blocks]))
    # the xi = 0 integral is real; as complex its modulus is unchanged,
    # since hypot(x, 0) == |x|
    cums = np.empty((xis.size, ends.size), dtype=complex)
    for c, xi in zip(cums, xis):
        c[:] = _cumulative(a, xi, ends)
    for block in blocks:
        ilo, ihi = (np.searchsorted(ends, y) for y in window_ends(block))
        z = np.empty(ihi.shape, dtype=complex)
        w = np.empty_like(z)
        m = np.empty(ihi.shape)
        peak = peaks[block]
        for c in cums:
            # every index is in range (searchsorted finds each end in
            # `ends`, which holds them all), so "clip" never clips; it
            # only spares the buffered copy that take makes under the
            # default "raise"
            np.take(c, ihi, out=z, mode="clip")
            np.take(c, ilo, out=w, mode="clip")
            z -= w
            np.abs(z, out=m)
            np.maximum(peak, m.max(axis=1), out=peak)
    return peaks


def _kink_peaks(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Max over every real u of |F(u + t/2) - F(u - t/2)|, per scale, where
    F = `_cumulative(c, 0, .)`.

    F integrates a step function, so at a fixed t the difference is piecewise
    linear in u, with a kink where an end meets a cell boundary b_j: at the
    windows [b_j - t, b_j] and [b_j, b_j + t]. Its largest modulus is at one
    of those 2(N + 1) windows. The scales are walked a block of about
    `_BLOCK` windows at a time.
    """
    b = np.arange(c.size + 1) + 0.5
    f = _cumulative(c, 0.0, b)
    rows = min(t.size, max(1, _BLOCK // (2 * b.size)))
    peaks = np.empty(t.size)
    for i in range(0, t.size, rows):
        s = t[i : i + rows, None]
        left = np.abs(f - _cumulative(c, 0.0, b - s)).max(axis=1)
        right = np.abs(_cumulative(c, 0.0, b + s) - f).max(axis=1)
        peaks[i : i + rows] = np.maximum(left, right)
    return peaks


def _grid_max(a: np.ndarray, t_grid, u_grid, xi_grid) -> float:
    """Max of |<f, G_{t,xi,u}>| over the (t, u, xi) grid.

    The inner product over the window [u - t/2, u + t/2] is a difference of
    the cumulative integral at its two ends. For real f the integral at -xi
    is the exact complex conjugate of the one at xi (every factor of
    `_cumulative` is odd or even in xi), so the moduli are bitwise equal and
    only the distinct |xi| are swept. Each scale keeps the max of
    |<f, G>| sqrt(t) over u and xi (`_row_peaks`), and is divided by sqrt(t)
    once at the end: correctly rounded division by a positive number is
    monotone, so that max is bitwise the max of the quotients.

    Scales that cannot hold the max are not swept. A scale's ceiling is the
    max of its window integral over every real centre, which `_kink_peaks`
    finds at the windows with an end on a cell boundary: of f itself when
    every |xi| is 0, and of |f| otherwise, since |int_window f exp(-2 pi i
    xi x)| <= int_window |f| for every xi. That is elementary geometry, not
    Theorem 1 or 2, which the sweep tests. The computed peaks can pass
    the computed bound by rounding (by at most 4.2e-16 sum|a_j| over 600
    random inputs), so a slack of `_SLACK` sum|a_j| is added before the
    division by sqrt(t).

    Frequencies that cannot hold the max are not swept either. Extend f by 0
    and take xi != 0 and a window (alpha, beta). With E(x) = exp(-2 pi i xi
    x) / (-2 pi i xi), the integral over each constant piece c of f is
    c (E(right end) - E(left end)); summed over the pieces (Abel summation)
    it is f(beta-) E(beta) - f(alpha+) E(alpha) minus the jump of f times E
    at each cell boundary inside the window. |E| = 1 / (2 pi |xi|), so

        |int_window f exp(-2 pi i xi x)| <= (|f(alpha+)| + |f(beta-)|
                                             + sum of the |jumps| inside)
                                            / (2 pi |xi|).

    The jumps are d_0 = |a_1|, d_j = |a_{j+1} - a_j| and d_N = |a_N|, and an
    open window of length t holds at most ceil(t) of the N + 1 boundaries,
    all consecutive. So a scale's row at xi has the ceiling

        C(t, xi) = ((2 max|a_j| + J(t)) / (2 pi |xi|) + _SLACK sum|a_j|)
                   / sqrt(t),

    with J(t) the largest sum of min(ceil(t), N + 1) consecutive d_j (a
    difference of their cumulative sum). The computed ends u -/+ t/2 can
    lie a few ulps wider apart than t, and take in one boundary more; the
    sliver past it is a few ulps of the end wide, so it moves the integral
    by at most max|a_j| times that, far inside the slack. Over 1,800 random
    inputs (single-signed, alternating, offset by 1e6, N up to 300, window
    ends on the cell boundaries or off them) the computed peaks never
    passed the bound itself: the closest came 5.4e-7 sum|a_j| below it.
    The row at xi = 0 has no such ceiling.

    The sweep runs in this order. The scale with the top kink ceiling is
    swept at xi = 0, when the grid holds 0; that is a grid value, so a lower
    bound on the answer. Then the same scale is swept at the |xi| whose C
    reaches the best value so far. Then the scales whose kink ceiling
    reaches it are swept together, at xi = 0 and at the |xi| whose C, taken
    with their largest ceil(t) and smallest sqrt(t), reaches it. A pruned
    (scale, |xi|) row's quotients are at most its ceiling, which is below a
    swept grid value, so the result is bitwise that of the full sweep. The
    ceiling is taken on every grid, coarse ones too, where its 2(N + 1) kink
    windows per scale can outnumber the centres times |xi| it spares.

    Raises ValueError when 2 sum|a_j| overflows: window integrals and their
    differences could then overflow to inf or nan.
    """
    t = np.asarray(t_grid, dtype=float)
    u = np.asarray(u_grid, dtype=float)
    xis = np.unique(np.abs(np.asarray(xi_grid, dtype=float)))
    if not (t.size and u.size and xis.size):
        raise ValueError("the scale, centre and frequency grids must not be empty")
    if t.size * u.size > _MAX_POINTS:
        raise ValueError(
            f"a grid of {t.size} scales by {u.size} centres is too large to sweep"
        )
    with np.errstate(over="ignore"):
        mass = float(np.abs(a).sum())
    if not math.isfinite(2.0 * mass):
        raise ValueError("window sums overflow")
    root = np.sqrt(t)
    ceiling = (_kink_peaks(a if xis[-1] == 0.0 else np.abs(a), t) + _SLACK * mass) / root
    zero = xis[: int(xis[0] == 0.0)]
    nonzero = xis[zero.size :]

    def sweep(keep, xs, best):
        """Best of `best` and the grid values of the scales t[keep] at the
        |xi| of `xs`, and at the nonzero |xi| whose frequency ceiling
        reaches `best`."""
        if nonzero.size:
            k = min(math.ceil(t[keep].max()), a.size + 1)
            # |a_1|, |a_2 - a_1|, .., |a_N|: the jumps of f at the boundaries,
            # each at most sum|a_j|, so their sums stay finite
            jumps = np.abs(np.diff(a, prepend=0.0, append=0.0))
            sums = np.concatenate(([0.0], np.cumsum(jumps)))
            jump = float((sums[k:] - sums[:-k]).max())
            with np.errstate(over="ignore"):
                # a subnormal |xi|, or a scale below 1 under a huge lift,
                # overflows the ceiling to inf: its row is swept
                lift = (2.0 * float(np.abs(a).max()) + jump) / (2.0 * math.pi * nonzero)
                freq = (lift + _SLACK * mass) / root[keep].min()
            xs = np.concatenate((xs, nonzero[freq >= best]))
        if xs.size:
            best = max(best, float((_row_peaks(a, t[keep], u, xs) / root[keep]).max()))
        return best

    top = int(np.argmax(ceiling))
    best = float(_row_peaks(a, t[top : top + 1], u, zero)[0] / root[top]) if zero.size else 0.0
    best = sweep(slice(top, top + 1), nonzero[:0], best)
    keep = ceiling >= best
    keep[top] = False
    return sweep(keep, zero, best) if keep.any() else best


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
