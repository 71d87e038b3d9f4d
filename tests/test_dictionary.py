"""Closed-form inner products checked against direct numerical integration.

The quadrature oracle below integrates f(x) * conj(G(x)) with
scipy.integrate.quad, splitting at every cell boundary and window edge so
the integrand is smooth on each piece. Everything closed-form in the package
must agree with it to near round-off.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from steppursuit.core import l2_norm
from steppursuit.dictionary import (
    WaveformAtom,
    alternating_pair_modulus,
    inner_product,
    partial_window_modulus,
)


def window(atom):
    """The atom's support [u - t/2, u + t/2]."""
    return atom.u - atom.t / 2.0, atom.u + atom.t / 2.0


def cell_integral(j, atom):
    """Integral of exp(-2 pi i xi x) over cell j's overlap with the window,
    read off the inner product with the unit vector e_j: sqrt(t) <e_j, G>."""
    e = np.zeros(j)
    e[j - 1] = 1.0
    return math.sqrt(atom.t) * inner_product(e, atom)


def overlap(j, atom):
    """Cell j's overlap with the window, or None when it is empty or a point."""
    lo, hi = window(atom)
    lo, hi = max(j - 0.5, lo), min(j + 0.5, hi)
    return (lo, hi) if lo < hi else None


def quad_inner_product(coeffs, atom):
    """<f, G> by adaptive quadrature, split at cell and window boundaries."""

    def integrand_re(x):
        return (evaluate_f(x) * cmath.exp(-2j * math.pi * atom.xi * x)).real

    def integrand_im(x):
        return (evaluate_f(x) * cmath.exp(-2j * math.pi * atom.xi * x)).imag

    def evaluate_f(x):
        j = int(math.floor(x + 0.5))
        if 1 <= j <= len(coeffs):
            return coeffs[j - 1]
        return 0.0

    lo, hi = window(atom)
    cuts = sorted(
        {lo, hi} | {j + 0.5 for j in range(0, len(coeffs) + 1) if lo < j + 0.5 < hi}
    )
    re = im = 0.0
    for a, b in zip(cuts, cuts[1:]):
        re += quad(integrand_re, a, b, limit=200)[0]
        im += quad(integrand_im, a, b, limit=200)[0]
    return complex(re, im) / math.sqrt(atom.t)


def atom_value(atom, x):
    """G(x) itself, for the unit-norm quadrature check."""
    lo, hi = window(atom)
    if x < lo or x > hi:
        return 0.0
    return cmath.exp(2j * math.pi * atom.xi * x) / math.sqrt(atom.t)


def test_atom_has_unit_norm():
    for t, xi, u in [(1.0, 0.0, 1.0), (0.3, 2.0, -1.5), (7.0, -0.4, 3.25)]:
        atom = WaveformAtom(t, xi, u)
        lo, hi = window(atom)
        val, _ = quad(lambda x: abs(atom_value(atom, x)) ** 2, lo, hi, limit=200)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_atom_rejects_bad_scale():
    with pytest.raises(ValueError):
        WaveformAtom(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        WaveformAtom(-2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        WaveformAtom(float("inf"), 0.0, 1.0)
    with pytest.raises(ValueError):
        WaveformAtom(2.0, float("nan"), 1.0)
    with pytest.raises(ValueError):
        WaveformAtom("2", 0.0, 1.0)
    # any finite real is a valid parameter, numpy integers included
    atom = WaveformAtom(np.int64(2), np.int32(0), np.int64(2))
    seq = [0.5, -1.0, 3.0]
    assert inner_product(seq, atom) == inner_product(seq, WaveformAtom(2.0, 0.0, 2.0))


def test_overlap_interval():
    atom = WaveformAtom(1.0, 0.0, 1.0)  # window [0.5, 1.5]
    assert cell_integral(1, atom) == 1.0
    assert cell_integral(2, atom) == 0.0  # touching only
    assert cell_integral(5, atom) == 0.0
    assert cell_integral(2, WaveformAtom(1.0, 0.7, 1.0)) == 0.0  # touching, modulated
    assert cell_integral(2, WaveformAtom(1.0, 0.3, 3.0)) == 0.0  # touching from the right
    wide = WaveformAtom(3.0, 0.0, 2.0)  # window [0.5, 3.5]
    assert cell_integral(2, wide) == pytest.approx(1.0, rel=1e-15)
    assert cell_integral(3, wide) == pytest.approx(1.0, rel=1e-15)


def test_cell_overlap_integral_examples():
    assert cell_integral(1, WaveformAtom(1, 0, 1)) == 1.0
    assert abs(cell_integral(1, WaveformAtom(1, 1, 1))) <= 1e-12
    assert cell_integral(1, WaveformAtom(0.5, 0, 1)) == pytest.approx(0.5, rel=1e-15)


def test_cell_overlap_integral_matches_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(40):
        t = float(rng.uniform(0.05, 5.0))
        xi = float(rng.uniform(-3.0, 3.0)) if rng.random() > 0.2 else 0.0
        u = float(rng.uniform(-1.0, 4.0))
        atom = WaveformAtom(t, xi, u)
        got = cell_integral(2, atom)
        seg = overlap(2, atom)
        if seg is None:
            assert got == 0.0
            continue
        want_re = quad(lambda x: math.cos(2 * math.pi * xi * x), seg[0], seg[1])[0]
        want_im = quad(lambda x: -math.sin(2 * math.pi * xi * x), seg[0], seg[1])[0]
        assert got == pytest.approx(complex(want_re, want_im), abs=1e-10)


def test_inner_product_examples():
    assert inner_product([7.0], WaveformAtom(1, 0, 1)) == 7.0
    assert inner_product([-2.0, 2.0], WaveformAtom(2, 0, 1.5)) == 0.0
    got = abs(inner_product([-1.0, 1.0], WaveformAtom(2, 0.25, 1.5)))
    assert got == pytest.approx(0.9003163161571062, abs=1e-10)


def test_inner_product_matches_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        coeffs = rng.uniform(-2.0, 2.0, n).tolist()
        t = float(rng.uniform(0.1, n + 2.0))
        xi = float(rng.uniform(-2.0, 2.0)) if rng.random() > 0.25 else 0.0
        u = float(rng.uniform(-0.5, n + 1.5))
        atom = WaveformAtom(t, xi, u)
        got = inner_product(coeffs, atom)
        want = quad_inner_product(coeffs, atom)
        assert got == pytest.approx(want, abs=1e-9)


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=16),
    st.floats(min_value=0.01, max_value=20),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-5, max_value=25),
)
@settings(max_examples=300)
def test_cauchy_schwarz(coeffs, t, xi, u):
    ip = inner_product(coeffs, WaveformAtom(t, xi, u))
    assert abs(ip) <= l2_norm(coeffs) * (1 + 1e-12) + 1e-12


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.01, max_value=10),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-5, max_value=10),
)
@example(j=7, t=5.0, xi=5e-324, u=4.5)  # subnormal frequency
@settings(max_examples=300)
def test_overlap_integral_bounded_by_overlap_length(j, t, xi, u):
    atom = WaveformAtom(t, xi, u)
    seg = overlap(j, atom)
    length = 0.0 if seg is None else seg[1] - seg[0]
    assert abs(cell_integral(j, atom)) <= length + 1e-12


@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=12))
@settings(max_examples=200)
def test_cell_aligned_inner_product_is_scaled_window_sum(coeffs):
    # a window covering cells n..n+L-1 exactly has <f, G> = sum / sqrt(L)
    N = len(coeffs)
    for n in range(1, N + 1):
        for L in range(1, N - n + 2):
            atom = WaveformAtom(float(L), 0.0, n + (L - 1) / 2.0)
            got = inner_product(coeffs, atom)
            want = math.fsum(coeffs[n - 1 : n - 1 + L]) / math.sqrt(L)
            assert got.imag == 0.0
            assert got.real == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_partial_window_examples():
    seq = [1.0, 2.0, 3.0]
    assert partial_window_modulus(0, 1, 2, 1, seq) == 2.0
    assert partial_window_modulus(0, 2, 2, 1, seq) == pytest.approx(
        5 / math.sqrt(2), rel=1e-15
    )
    assert partial_window_modulus(1, 2, 2, 1, seq) == pytest.approx(
        3 / math.sqrt(2), rel=1e-15
    )


def test_partial_window_region_errors():
    seq = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        partial_window_modulus(0.0, 2.5, 2, 1, seq)  # t > k + 1
    with pytest.raises(ValueError):
        partial_window_modulus(0.8, 1.5, 2, 1, seq)  # s > t - k
    with pytest.raises(ValueError):
        partial_window_modulus(-0.1, 1.5, 2, 1, seq)
    with pytest.raises(ValueError):
        partial_window_modulus(0.0, 0.0, 2, 0, seq)  # t must be positive


def test_partial_window_out_of_range_cells_are_zero():
    # anchored so that both neighbours fall outside the sequence
    assert partial_window_modulus(0.5, 1.5, 1, 1, [4.0]) == pytest.approx(
        4.0 / math.sqrt(1.5), rel=1e-15
    )


def test_partial_window_agrees_with_inner_product():
    # unmodulated window [1.5 - s, 1.5 - s + t] anchored at cell n = 2
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        seq = rng.uniform(-2.0, 2.0, k + 2).tolist()
        t = float(rng.uniform(k, k + 1))
        s = float(rng.uniform(0.0, t - k))
        got = partial_window_modulus(s, t, 2, k, seq)
        atom = WaveformAtom(t, 0.0, 1.5 - s + t / 2.0)
        want = abs(inner_product(seq, atom))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_alternating_examples():
    assert alternating_pair_modulus(1.0, 2.0, 0.5, 0.0) == 0.0
    assert alternating_pair_modulus(1.0, 2.0, 0.5, 0.5) == pytest.approx(
        2 * math.sqrt(2) / math.pi, abs=1e-12
    )
    assert alternating_pair_modulus(1.0, 1e-9, 0.0, 0.3) == pytest.approx(0.0, abs=1e-4)


def test_alternating_rejects_far_window():
    with pytest.raises(ValueError, match="offset"):
        alternating_pair_modulus(1.0, 2.0, 1.6, 0.5)


def test_alternating_agrees_with_inner_product():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        amp = float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(0.05, 4.0))
        delta = float(rng.uniform(-(t + 1) / 2, (t + 1) / 2))
        xi = float(rng.uniform(-2.0, 2.0)) if rng.random() > 0.1 else 0.0
        got = alternating_pair_modulus(amp, t, delta, xi)
        want = abs(inner_product([-amp, amp], WaveformAtom(t, xi, 1.0 + delta)))
        assert got == pytest.approx(want, abs=1e-10)
