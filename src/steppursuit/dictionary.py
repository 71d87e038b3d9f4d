"""Rectangular-window waveform atoms and their inner products with step functions.

An atom with scale t > 0, frequency xi and centre u is

    G(x) = (1 / sqrt t) rect((x - u) / t) exp(2 pi i xi x),

a unit-norm window of width t. Because step functions are constant on unit
cells, <f, G> reduces to a finite sum of closed-form integrals: one per cell
that overlaps the window. Two special cases also have closed forms of their
own, which the verification sweeps check: the partial-coverage window profile
and the alternating two-cell case.

All inner products are taken against the conjugate of G, so the xi-dependent
phase enters as exp(-2 pi i xi x); moduli are unaffected.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

from .core import as_values

__all__ = [
    "WaveformAtom",
    "inner_product",
    "partial_window_modulus",
    "alternating_pair_modulus",
]


@dataclass(frozen=True)
class WaveformAtom:
    """Window parameters (scale, frequency, centre). Scale must be positive."""

    t: float
    xi: float
    u: float

    def __post_init__(self):
        for name in ("t", "xi", "u"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise ValueError(f"non-finite atom parameter {name}")
        if self.t <= 0:
            raise ValueError("atom scale t must be positive")


def _sin_over(g: float, w: float) -> float:
    # sin(g w) / g as w * sinc(g w): dividing by g directly loses every digit
    # once g is subnormal, and the series keeps full precision for tiny g w
    x = g * w
    if abs(x) < 1e-4:
        return w * (1.0 - x * x / 6.0)
    return w * (math.sin(x) / x)


def _segment_integral(lo: float, hi: float, xi: float) -> complex:
    # integral of exp(-2 pi i xi x) over [lo, hi], written as a phase times a
    # sinc so that nothing cancels as xi -> 0 or as hi -> lo
    if hi <= lo:
        return 0.0
    if xi == 0.0:
        return hi - lo
    g = math.pi * xi
    return cmath.exp(-1j * g * (lo + hi)) * _sin_over(g, hi - lo)


def inner_product(seq, atom: WaveformAtom) -> complex:
    """<f, G> = (1 / sqrt t) sum_j a_j * integral of exp(-2 pi i xi x) over
    cell j's overlap with the window [u - t/2, u + t/2], cells 1..N."""
    a = as_values(seq)
    half = atom.t / 2.0
    wlo, whi = atom.u - half, atom.u + half
    first = max(1, math.ceil(wlo - 0.5))
    last = min(a.size, math.floor(whi + 0.5))
    acc = 0.0 + 0.0j
    for j in range(first, last + 1):
        c = a[j - 1]
        if c != 0.0:
            acc += c * _segment_integral(max(j - 0.5, wlo), min(j + 0.5, whi), atom.xi)
    return acc / math.sqrt(atom.t)


def partial_window_modulus(s: float, t: float, n: int, k: int, seq) -> float:
    """Unmodulated window profile at scale t, k <= t <= k + 1, anchored at cell n.

    The window covers the last s units of cell n - 1, all of cells
    n .. n + k - 1, and the first t - s - k units of cell n + k, so

        psi(s, t) = |a_{n-1} s + (a_n + .. + a_{n+k-1}) + a_{n+k} (t - s - k)| / sqrt t.

    The admissible region is the closed triangle 0 <= s <= t - k,
    k <= t <= k + 1 (t > 0). Indices falling outside the sequence contribute 0.
    """
    a = as_values(seq)
    n = int(n)
    k = int(k)
    if k < 0:
        raise ValueError("negative cell count k")
    if t <= 0.0 or not (k <= t <= k + 1):
        raise ValueError("scale t outside [k, k + 1]")
    if not (0.0 <= s <= t - k):
        raise ValueError("offset s outside [0, t - k]")
    N = a.size

    def cell(j: int) -> float:
        return float(a[j - 1]) if 1 <= j <= N else 0.0

    lo = max(n, 1)
    hi = min(n + k - 1, N)
    middle = float(a[lo - 1 : hi].sum()) if lo <= hi else 0.0
    total = cell(n - 1) * s + middle + cell(n + k) * (t - s - k)
    return abs(total) / math.sqrt(t)


def alternating_pair_modulus(a: float, t: float, delta: float, xi: float) -> float:
    """|<f, G>| for the two-cell sign flip f = -a on [1/2, 3/2], +a on [3/2, 5/2].

    The window is [u - t/2, u + t/2] with u = 1 + delta, so delta measures the
    centre's offset from the left cell's midpoint. Valid while the window
    still meets the support, i.e. |delta| <= (t + 1) / 2. Exact for every
    scale t > 0: each cell contributes a sinc-type term, combined with the
    phase between the two overlap midpoints.
    """
    t = float(t)
    delta = float(delta)
    if not (math.isfinite(a) and math.isfinite(t) and math.isfinite(delta) and math.isfinite(xi)):
        raise ValueError("non-finite input")
    if t <= 0.0:
        raise ValueError("scale t must be positive")
    if abs(delta) > (t + 1.0) / 2.0:
        raise ValueError("window offset outside the covered range")
    wlo = 1.0 + delta - t / 2.0
    whi = 1.0 + delta + t / 2.0
    # per-cell overlap widths and midpoints; cells are [0.5, 1.5] and [1.5, 2.5]
    lo1, hi1 = max(wlo, 0.5), min(whi, 1.5)
    lo2, hi2 = max(wlo, 1.5), min(whi, 2.5)
    w1 = max(hi1 - lo1, 0.0)
    w2 = max(hi2 - lo2, 0.0)
    if xi == 0.0:
        return abs(a) * abs(w2 - w1) / math.sqrt(t)
    g = math.pi * xi
    s1 = _sin_over(g, w1)
    s2 = _sin_over(g, w2)
    gap = (lo2 + hi2 - lo1 - hi1) / 2.0  # distance between overlap midpoints
    mod2 = s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * math.cos(2.0 * g * gap)
    return abs(a) * math.sqrt(max(mod2, 0.0)) / math.sqrt(t)
