import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steppursuit.maximizer import (
    ScoredAtom,
    WindowAtom,
    best_window,
    best_window_single_signed,
    brute_force_best,
    three_term_max,
)

seq_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
sequences = st.lists(seq_floats, min_size=1, max_size=48)


def dense_best_window(seq) -> ScoredAtom:
    """The plain per-length scan over every window, kept as the reference the
    rectangle search in best_window must match bit for bit."""
    a = np.asarray(seq, dtype=float)
    N = a.size
    p = np.concatenate(([0.0], np.cumsum(a)))
    best_val = -1.0
    best_len = 0
    for L in range(1, N + 1):
        sums = p[L:] - p[: N - L + 1]
        mag = max(sums.max(), -sums.min())
        val = mag / math.sqrt(L)
        if val > best_val:
            best_val = val
            best_len = L
    sums = p[best_len:] - p[: N - best_len + 1]
    i = int(np.abs(sums).argmax())
    signed = float(sums[i])
    return ScoredAtom(
        WindowAtom(i + 1, best_len), abs(signed) / math.sqrt(best_len), signed
    )


def test_window_atom_validation():
    with pytest.raises(ValueError):
        WindowAtom(0, 1)
    with pytest.raises(ValueError):
        WindowAtom(1, 0)


def test_best_window_examples():
    got = best_window([2, 5, -1])
    assert (got.atom.start, got.atom.length, got.value) == (2, 1, 5.0)
    got = best_window([0, 0, 0])
    assert (got.atom.start, got.atom.length, got.value) == (1, 1, 0.0)
    got = best_window([-1, -2, -3])
    assert (got.atom.start, got.atom.length) == (2, 2)
    assert got.value == pytest.approx(5 / math.sqrt(2), rel=1e-15)
    assert got.signed_sum == -5.0


def test_best_window_tie_breaks():
    # {1, -1}: the two singletons tie at 1 and the pair cancels; the
    # earlier singleton wins
    got = best_window([1.0, -1.0])
    assert (got.atom.start, got.atom.length, got.signed_sum) == (1, 1, 1.0)
    # all windows of {0,0} score 0; shortest then earliest wins
    got = best_window([0.0, 0.0])
    assert (got.atom.start, got.atom.length) == (1, 1)
    # 16 fives and 25 fours both score exactly 20, both lengths left to the
    # rectangle search; the shorter window wins on either side
    a = np.concatenate((np.full(16, 5.0), np.zeros(50), np.full(25, 4.0)))
    for seq, start in ((a, 1), (a[::-1], 76)):
        got = best_window(seq)
        assert (got.atom.start, got.atom.length, got.value) == (start, 16, 20.0)
        assert got == brute_force_best(seq)
    # n values of v score v sqrt(n), so k^2 values k + 1 and (k + 1)^2
    # values k tie at k(k + 1): 6, 12 and 30 below. 4 threes against 9 twos
    # puts the tie across the short passes and the search; the others tie
    # inside the search. Each pair is tried in both orders and mirrored; the
    # gap of zeros keeps any window that spans both blocks below the tie,
    # and the shorter block always wins. The leading zero puts one block at
    # an odd prefix index, where a rectangle's bound can equal its score
    # exactly: a search that dropped rectangles whose bound only ties the
    # incumbent would lose the shorter window there.
    for (n, v), (m, w) in (
        ((4, 3.0), (9, 2.0)),
        ((9, 4.0), (16, 3.0)),
        ((25, 6.0), (36, 5.0)),
    ):
        gap = np.zeros(2 * (n + m))
        for first, second in (((n, v), (m, w)), ((m, w), (n, v))):
            a = np.concatenate(([0.0], np.full(*first), gap, np.full(*second)))
            for seq in (a, a[::-1]):
                got = best_window(seq)
                window = seq[got.atom.start - 1 : got.atom.start - 1 + got.atom.length]
                assert got.atom.length == n and (window == v).all()
                assert got.value == v * math.sqrt(n)
                assert got == brute_force_best(seq)
    # a singleton and four twos both score 4; the singleton, found by the
    # length-1 pass, keeps the tie on either side
    a = [4.0, -4.0, 2.0, 2.0, 2.0, 2.0]
    for seq, expected in ((a, (1, 1, 4.0)), (a[::-1], (5, 1, -4.0))):
        got = best_window(seq)
        assert (got.atom.start, got.atom.length, got.signed_sum) == expected
        assert got == brute_force_best(seq)


@pytest.mark.parametrize(
    "edge, x, expected",
    [
        (0, 0.9, (2, 499)),
        (-1, 0.9, (1, 499)),
        (0, 1.1, (1, 500)),
        (-1, 1.1, (1, 500)),
    ],
)
def test_best_window_trims_low_edge_cell(edge, x, expected):
    # On a constant level of 2 with one edge cell x, the full window scores
    # (998 + x)/sqrt(500) and the trimmed one 998/sqrt(499); the trim wins
    # when x < 998(sqrt(500/499) - 1) ~ 0.9995. Each x sits 0.1 from it.
    a = np.full(500, 2.0)
    a[edge] = x
    got = best_window(a)
    assert (got.atom.start, got.atom.length) == expected
    assert got == brute_force_best(a)


@pytest.mark.parametrize(
    "seq", [np.full(10, 1e308), [-1.5e308, 1.5e308, 1.5e308]]
)
def test_best_window_rejects_overflowing_sums(seq):
    # every value is finite but some window sums are not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="window sums overflow"):
            best_window(seq)


@pytest.mark.parametrize(
    "N", sorted({2**k + d for k in range(10) for d in (-1, 0, 1)} - {0}) + [3000]
)
def test_best_window_block_edges(N):
    # sizes N = 2^k - 1, 2^k, 2^k + 1: N + 1 prefix entries fill a power of
    # two exactly or just overflow one, the edges of the pyramid's padding,
    # and N = 7, 8, 9 straddle the length at which the rectangle search
    # starts. On noise the best window is short
    # and most rectangles drop near the top; on a level plus noise it spans
    # nearly everything. The other inputs have exact window sums, so the
    # whole atom must also match brute_force_best where N keeps it cheap:
    # seven regimes of equal length with a slow dyadic drift, whose prefix
    # sum falls and rises again near the best window; a constant run and a
    # repeating arithmetic run, whose many equal window sums leave bounds
    # that tie the incumbent; and 1..N, whose convex prefix sum gives every
    # rectangle a bound near the best.
    rng = np.random.default_rng(N)
    noise = rng.normal(size=N)
    x = np.arange(N)
    levels = np.array([0.0, -1.0, -2.0, 0.0, -3.0, 2.0, 0.0])[x * 7 // N]
    exact = (levels + x / 1024.0, np.full(N, 2.0), x % 5 - 2.0, x + 1.0)
    for a in (noise, 2.0 + 0.1 * noise) + exact:
        assert best_window(a) == dense_best_window(a)
    if N <= 130:
        for a in exact:
            assert best_window(a) == brute_force_best(a)


def test_single_signed_examples():
    got = best_window_single_signed([1, 1, 1, 1])
    assert (got.atom.start, got.atom.length, got.value) == (1, 4, 2.0)
    got = best_window_single_signed([0, 7, 0])
    assert (got.atom.start, got.atom.length, got.value) == (2, 1, 7.0)
    got = best_window_single_signed([-3, -1])
    assert (got.atom.start, got.atom.length, got.signed_sum) == (1, 1, -3.0)
    with pytest.raises(ValueError, match="mixed-sign"):
        best_window_single_signed([3, -2])


def test_brute_force_single_cell():
    got = brute_force_best([-4.5])
    assert (got.atom.start, got.atom.length, got.value) == (1, 1, 4.5)


def test_three_term_examples():
    assert three_term_max([2, 5, -1]) == 5.0
    assert three_term_max([0.0]) == 0.0
    assert three_term_max([1, 1]) == pytest.approx(math.sqrt(2), rel=1e-15)


@given(sequences)
@settings(max_examples=300, deadline=None)
def test_best_window_matches_brute_force_value(seq):
    fast = best_window(seq)
    slow = brute_force_best(seq)
    scale = max(fast.value, slow.value, 1e-300)
    assert abs(fast.value - slow.value) <= 1e-12 * scale
    # sanity on the reported pieces
    assert fast.value == abs(fast.signed_sum) / math.sqrt(fast.atom.length)
    window = seq[fast.atom.start - 1 : fast.atom.start - 1 + fast.atom.length]
    assert fast.signed_sum == pytest.approx(math.fsum(window), rel=1e-9, abs=1e-9)


# runs v, v + s, .., v + (n - 1)s: constant runs (s = 0) put prefix sums on a
# line, so many windows tie exactly and bounds meet the incumbent
arithmetic_runs = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-1, max_value=1),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=1,
    max_size=8,
).map(lambda runs: [v + s * k for v, s, n in runs for k in range(n)])


@given(
    st.one_of(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=80),
        arithmetic_runs,
    )
)
@settings(max_examples=300, deadline=None)
def test_best_window_matches_brute_force_on_integer_ties(seq):
    # integer sums are exact and ties are frequent, so the whole atom,
    # tie-break included, must agree
    assert best_window(seq) == brute_force_best(seq)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=-8, max_value=8)
        ).map(lambda t: t[0] * 10.0 ** t[1]),
        min_size=1,
        max_size=200,
    ),
    st.one_of(st.just(0.0), st.floats(min_value=-1e9, max_value=1e9)),
)
@settings(max_examples=300, deadline=None)
def test_best_window_matches_dense_scan_with_offsets(xs, offset):
    # large offsets make prefix-sum differences lose digits; the rectangle
    # search must still pick exactly what the per-length scan picks
    seq = [offset + x for x in xs]
    assert best_window(seq) == dense_best_window(seq)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_best_window_convex_prefix_is_fast(sign):
    # the prefix sum of 1..N is convex, so every start has a window scoring
    # near the best, and a scan that bounds one start at a time goes
    # quadratic; the rectangle search must stay well under a second. The
    # best window of each length L is the last one, scoring
    # sqrt(L)(2N + 1 - L)/2, which peaks at L = (2N + 1)/3.
    N = 100_000
    a = sign * np.arange(1.0, N + 1.0)
    t0 = time.perf_counter()
    got = best_window(a)
    elapsed = time.perf_counter() - t0
    L = (2 * N + 1) // 3
    assert got.atom == WindowAtom(N - L + 1, L)
    assert got.signed_sum == sign * L * (2 * N + 1 - L) / 2
    assert elapsed < 1.0


@given(sequences)
@settings(max_examples=300, deadline=None)
def test_three_term_matches_best_window(seq):
    a = three_term_max(seq)
    b = best_window(seq).value
    assert abs(a - b) <= 1e-12 * max(a, b, 1e-300)


@given(sequences, st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_scale_equivariance(seq, c):
    base = best_window(seq)
    scaled = best_window([c * x for x in seq])
    assert scaled.value == pytest.approx(abs(c) * base.value, rel=1e-9, abs=1e-9)


@given(sequences)
@settings(max_examples=200, deadline=None)
def test_value_dominates_every_window(seq):
    best = best_window(seq)
    N = len(seq)
    for n in range(N):
        for L in range(1, N - n + 1):
            v = abs(math.fsum(seq[n : n + L])) / math.sqrt(L)
            assert v <= best.value * (1 + 1e-12) + 1e-12


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=32))
@settings(max_examples=200)
def test_single_signed_agrees_on_nonnegative(seq):
    assert best_window_single_signed(seq) == best_window(seq)
