"""Best cell-aligned window of a sequence.

Over all contiguous windows of a length-N sequence, find the one maximising
|a_n + .. + a_{n+L-1}| / sqrt(L). This is the exact argmax of |<f, G>| over
the whole unmodulated dictionary restricted to (and in fact attained at)
windows that start and end on cell boundaries, which is what makes greedy
pursuit over step functions cheap: no continuous search is needed.

`best_window` is the production routine. It scans window lengths in
geometric blocks [w, 2w) and bounds, from range maxima and minima of the
prefix sums, the best score each start can reach in a block; only starts
whose bound beats the incumbent are evaluated. Where that bound leaves many
starts, as on a level stretch whose prefix sum is close to a line, chord
tests on the prefix sum (the hull lemma below) drop one sign of a start's
bound, or both. On noise, and on a level plus noise, that costs O(N log N)
plus the surviving windows. A convex (or concave) prefix sum, such as that of
1..N, keeps every start on its hull; every block then gathers the windows of
every start, so the worst case stays O(N^2). The result is the exact argmax,
tie-break included, bit for bit. `brute_force_best` recomputes every window
sum independently with compensated summation and exists only to cross-check
it. `three_term_max` evaluates a third formulation, a pointwise maximum of
three window families indexed by (n, k), that must agree with both.

Hull lemma (the prefix-hull argument for maximum-density segments: Chung &
Lu, SIAM J. Comput. 2004; Goldwasser, Kao & Lu, JCSS 2005). Let P be the
prefix sum, P_0 = 0, so cells k + 1 .. j sum to P_j - P_k. Fix an end j and
a start i whose window has a positive sum, scoring c = (P_j - P_i)/sqrt(j - i).
Suppose P_i lies a height delta > 0 above the chord from (A, P_A) to
(B, P_B), with A < i < B <= j. Then A or B is a start scoring at least
c + delta/sqrt(N) for the same end. Proof: g(k) = P_j - c sqrt(j - k) is
convex on k <= j and g(i) = P_i, and a start k beats c with a positive sum
exactly when P_k < g(k). At i the chord of g lies on or above g(i) = P_i,
and the chord of P lies delta below P_i, so the chord of g - P is at least
delta there. It is a weighted mean of g(A) - P_A and g(B) - P_B, so one of
them is at least delta; it is not B = j, where g - P is 0. That start k has
P_j - P_k >= c sqrt(j - k) + delta, a score of at least
c + delta/sqrt(j - k) >= c + delta/sqrt(N). Hence the best positive-sum start
for end j lies on the lower convex hull of {(k, P_k) : k < j}. Mirrored, a
start below a chord is never the best negative-sum start: the upper hull.
Collinear points (delta = 0) must be kept: the lemma then only says that A
or B scores at least c, and if A ties, dropping i would hand the tie to the
longer window A .. j against the tie-break. (Strict convexity of g puts A or
B strictly ahead, but by a margin that rounding can erase; see tol in
`best_window`.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_values

__all__ = [
    "WindowAtom",
    "ScoredAtom",
    "best_window",
    "best_window_single_signed",
    "brute_force_best",
    "three_term_max",
]


@dataclass(frozen=True)
class WindowAtom:
    """Cell-aligned window: cells start .. start + length - 1, 1-based."""

    start: int
    length: int

    def __post_init__(self):
        if self.start < 1:
            raise ValueError("window start must be >= 1")
        if self.length < 1:
            raise ValueError("window length must be >= 1")


@dataclass(frozen=True)
class ScoredAtom:
    """A window with its score |signed_sum| / sqrt(length)."""

    atom: WindowAtom
    value: float
    signed_sum: float


def _prefix(a: np.ndarray) -> np.ndarray:
    p = np.empty(a.size + 1)
    p[0] = 0.0
    np.cumsum(a, out=p[1:])
    return p


def best_window(seq) -> ScoredAtom:
    """Globally best window, ties broken toward smaller length then smaller start.

    Lengths are visited in blocks [w, 2w), w = 1, 2, 4, ... With P the
    prefix sum, a start i reaches the window sums P[j] - P[i] for ends j in
    [i + w, i + 2w), clipped at N. hi[i] and lo[i] hold the max and min of
    P[i .. i + w - 1] and are doubled in place after each block, so

        bound_i = max(hi[i + w] - P[i], P[i] - lo[i + w]) / sqrt(w)

    is at least every score |P[j] - P[i]| / sqrt(L) of the start in the
    block. That holds for the computed floats too: IEEE rounding is
    monotone, so a larger operand never rounds to a smaller difference or
    quotient. A start with bound_i <= the incumbent is dropped; its windows
    could at best tie, and a tie goes to the incumbent's shorter length.
    The incumbent starts at block w = 1's answer, max |P[i + 1] - P[i]|;
    that block's bounds are the same differences, so it drops every start.

    Where many starts survive (survivors * w > N, so the block's gather
    alone would cost more than a pass over the input), blocks with w >= 2
    run chord tests on their survivors, at d = 1, 2, 4, .., w/2:

        above_i  if  P[i] > (P[i - d] + P[i + d]) / 2 + tol
        below_i  if  P[i] < (P[i - d] + P[i + d]) / 2 - tol

    Every end of the block has j >= i + w >= i + 2d, so the chord ends at
    B = i + d < j, inside the prefix the lemma (module docstring) needs;
    d = w would still give B <= j. So no positive-sum window of an "above"
    start in this block can be the argmax, and the start drops the hi side
    of its bound; a "below" start drops the lo side. The start survives if
    what is left of its bound beats the incumbent, and all its windows in
    the block are evaluated. The tests cost about log2(w) operations per
    survivor against the gather's w; on noise the range bound leaves few
    survivors and they do not run.

    tol keeps this exact in floating point. With M = max |P[k]|, u = eps/2
    and tiny the smallest normal float, each sum, difference and quotient
    rounds with relative error u, and halving and division lose at most
    u * tiny more to underflow. A computed score therefore lies within
    3.01u s + u tiny of its real value s <= 2M, and the lemma's gap
    delta/sqrt(N) puts the dominating window's computed score strictly
    above the pruned one's once delta > sqrt(N) eps (6.02M + tiny). The
    midpoint, formed from halves of P so that it cannot overflow, and the
    sum with tol are off by at most u (2M + 2 tiny + tol), so a start that
    passes the test lies delta > tol (1 - u) - eps (M + tiny) above the real
    chord. tol = 8 eps (M + tiny) sqrt(N) makes that at least
    6.99 sqrt(N) eps (M + tiny), which clears the bound for every N >= 1.
    So a pruned window always has a window whose computed score is strictly
    higher: it is never the dense scan's argmax, whatever the tie-break.

    The surviving starts are evaluated exactly: their window sums are
    gathered in chunks of about N elements and reduced to a maximum per
    length. Within a block the first (shortest) maximising length is
    taken, and only a strictly larger value displaces the incumbent, which
    realises the tie-break ordering; the start is the first maximiser at
    the chosen length.

    Raises ValueError when window sums overflow to a non-finite value.
    """
    a = as_values(seq)
    N = a.size
    with np.errstate(over="ignore"):
        p = _prefix(a)
    pmax, pmin = float(p.max()), float(p.min())
    if not math.isfinite(pmax - pmin):
        raise ValueError("window sums overflow")
    # ends[i, L] = p[min(i + L, N)]. A window running past cell N reads the
    # sum of a shorter window with the same start in the same block, which
    # scores at least as high at a smaller length, so it never wins a block.
    ends = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((p, np.full(N, p[N]))), N + 1
    )
    hi = p.copy()
    lo = p.copy()
    fi = np.finfo(float)
    tol = 8.0 * fi.eps * (max(pmax, -pmin) + fi.tiny) * math.sqrt(N)
    best_val = float(np.abs(p[1:] - p[:-1]).max())
    best_len = 1
    w = 1
    while w <= N:
        lengths = np.arange(w, min(2 * w, N + 1))
        n = N - w + 1  # starts with a window in this block
        bound = hi[w:] - p[:n]
        np.maximum(bound, p[:n] - lo[w:], out=bound)
        bound /= math.sqrt(w)
        starts = np.flatnonzero(bound > best_val)
        if w > 1 and starts.size * w > N:
            # chord tests on the survivors (see the docstring): an "above"
            # start loses the hi side of its bound, a "below" start the lo side
            ps = p[starts]
            above = np.zeros(starts.size, dtype=bool)
            below = np.zeros(starts.size, dtype=bool)
            d = 1
            while d < w:
                k = int(np.searchsorted(starts, d))  # starts are sorted
                # halves first, so that the midpoint cannot overflow
                mid = 0.5 * p[starts[k:] - d] + 0.5 * p[starts[k:] + d]
                above[k:] |= ps[k:] > mid + tol
                below[k:] |= ps[k:] < mid - tol
                d *= 2
            up = np.where(above, -np.inf, hi[starts + w] - ps)
            down = np.where(below, -np.inf, ps - lo[starts + w])
            np.maximum(up, down, out=up)
            up /= math.sqrt(w)
            starts = starts[up > best_val]
        mags = np.zeros(lengths.size)
        chunk = max(1, N // lengths.size)
        for c in range(0, starts.size, chunk):
            s = starts[c : c + chunk]
            d = ends[s, w : w + lengths.size]
            d -= p[s, None]
            np.abs(d, out=d)
            np.maximum(mags, d.max(axis=0), out=mags)
        vals = mags / np.sqrt(lengths)
        k = int(vals.argmax())
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_len = int(lengths[k])
        np.maximum(hi[:n], hi[w:], out=hi[:n])
        np.minimum(lo[:n], lo[w:], out=lo[:n])
        w *= 2
    sums = p[best_len:] - p[: N - best_len + 1]
    i = int(np.abs(sums).argmax())  # argmax returns the first index on ties
    signed = float(sums[i])
    return ScoredAtom(
        WindowAtom(i + 1, best_len), abs(signed) / math.sqrt(best_len), signed
    )


def best_window_single_signed(seq) -> ScoredAtom:
    """best_window for sequences with no sign change.

    When all values share a sign the window score over the full modulated
    dictionary is maximised at xi = 0 on a cell-aligned window, so the search
    below is exhaustive for that case. Mixed signs are rejected.
    """
    a = as_values(seq)
    if not (np.all(a >= 0.0) or np.all(a <= 0.0)):
        raise ValueError(
            "mixed-sign input: requires all values non-negative or all non-positive"
        )
    return best_window(a)


def brute_force_best(seq) -> ScoredAtom:
    """Reference implementation: every window summed from scratch with fsum.

    No prefix sums, so rounding errors do not correlate with best_window's.
    Quadratic in a stronger sense (O(N^3) additions); intended for N up to a
    few hundred.
    """
    a = as_values(seq)
    N = a.size
    vals = a.tolist()
    best_val = -1.0
    best = None
    for L in range(1, N + 1):
        root = math.sqrt(L)
        for n in range(1, N - L + 2):
            ssum = math.fsum(vals[n - 1 : n - 1 + L])
            v = abs(ssum) / root
            if v > best_val:
                best_val = v
                best = (n, L, ssum)
    n, L, ssum = best
    return ScoredAtom(WindowAtom(n, L), best_val, ssum)


def three_term_max(seq) -> float:
    """Max over n and k >= 0 of three window families:

        |a_n + .. + a_{n+k}|     / sqrt(k + 1)
        |a_n + .. + a_{n+k-1}|   / sqrt(k)          (k >= 1 only)
        |a_{n-1} + .. + a_{n+k-1}| / sqrt(k + 1)

    with 1 <= n <= N - k and out-of-range indices contributing zero terms.
    Every contiguous window appears in the first family, so this equals
    best_window(seq).value; the redundant families re-derive the same optimum
    from windows anchored one cell off.
    """
    a = as_values(seq)
    N = a.size
    p = _prefix(a)
    best = 0.0
    for k in range(N):
        n = np.arange(1, N - k + 1)
        r1 = np.abs(p[n + k] - p[n - 1]) / math.sqrt(k + 1)
        best = max(best, float(r1.max()))
        if k >= 1:
            r2 = np.abs(p[n + k - 1] - p[n - 1]) / math.sqrt(k)
            best = max(best, float(r2.max()))
        # third family: indices n-1 .. n+k-1, empty after clipping when
        # n == 1 and k == 0
        lo = np.maximum(n - 1, 1)
        hi = n + k - 1
        s3 = np.where(lo > hi, 0.0, p[hi] - p[lo - 1])
        r3 = np.abs(s3) / math.sqrt(k + 1)
        best = max(best, float(r3.max()))
    return best
