"""Best cell-aligned window of a sequence.

Over all contiguous windows of a length-N sequence, find the one maximising
|a_n + .. + a_{n+L-1}| / sqrt(L). This is the exact argmax of |<f, G>| over
the whole unmodulated dictionary restricted to (and in fact attained at)
windows that start and end on cell boundaries, which is what makes greedy
pursuit over step functions cheap: no continuous search is needed.

`best_window` is the production routine. With P the prefix sum, a window is
a pair of prefix indices i < j and sums to P[j] - P[i]. Each length below a
small constant gets one exact pass; every longer window is found by a branch
and bound over rectangles of (start, end) pairs (Neill & Moore, "Rapid
detection of significant spatial clusters", KDD 2004, in one dimension): a
rectangle whose bound, from the range maxima and minima of P over its start
and end blocks, cannot beat the best window so far is dropped with all its
windows. The result is the exact argmax, tie-break included, bit for bit.
`brute_force_best` recomputes every window sum independently with
compensated summation and exists only to cross-check it. `three_term_max`
evaluates a third formulation, a pointwise maximum of three window families
indexed by (n, k), that must agree with both.
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


# Window lengths below this get one exact pass each; the rectangle search
# takes every longer window.
_SHORT = 8


def best_window(seq) -> ScoredAtom:
    """Globally best window, ties broken toward smaller length then smaller start.

    Lengths L < _SHORT get one pass each, max |P[i + L] - P[i]| / sqrt(L).
    Every window of length >= _SHORT is left to a search over rectangles.
    P is padded with P[N] to 2^K >= N + 1 entries, and level k of a pyramid
    holds the max hi_k and min lo_k of P over each aligned block of 2^k
    indices. A node (S, E) at level k stands for the windows that start in
    block S and end in block E, so their lengths are at least
    (E - S - 1) 2^k + 1, and

        bound = max(hi_k[E] - lo_k[S], hi_k[S] - lo_k[E])
                / sqrt(max(_SHORT, (E - S - 1) 2^k + 1))

    is at least the score of each of its windows of length >= _SHORT. That
    holds for the computed floats too: IEEE rounding is monotone, so a larger
    operand never rounds to a smaller difference or quotient, and no
    tolerance is needed.

    The search starts from the one node (0, 0) at level K and goes down a
    level at a time. Each node first scores the window from index S 2^k to
    E 2^k, exactly as the passes do. Any real window is a valid candidate;
    this one costs two reads of P, where the windows between a block's
    extreme indices would need index levels in the pyramid, and it raises
    the incumbent nearly as fast. The incumbent moves on a larger value, or
    on an equal value at a shorter length. A node is kept when its bound
    beats the incumbent, or ties it while its shortest length is below the
    incumbent's: a node dropped on a tie could only offer a tie at a length
    no shorter, which the tie-break refuses. A kept node splits into its
    four children, less those whose start block lies after their end block
    and those whose end block starts past index N. At level 0 each node is
    one window, scored exactly, so every window of length >= _SHORT is
    scored or dropped, and the incumbent ends at the largest score with its
    shortest length. The start is then the first maximiser at that length.

    Raises ValueError when window sums overflow to a non-finite value.
    """
    a = as_values(seq)
    N = a.size
    with np.errstate(over="ignore"):
        p = _prefix(a)
    if not math.isfinite(float(p.max()) - float(p.min())):
        raise ValueError("window sums overflow")
    best_val, best_len = -1.0, 0
    buf = np.empty(N)  # the short passes' window sums, one length at a time
    for L in range(1, min(_SHORT, N + 1)):
        d = np.subtract(p[L:], p[:-L], out=buf[: N + 1 - L])
        val = float(np.abs(d, out=d).max()) / math.sqrt(L)
        if val > best_val:
            best_val, best_len = val, L
    if N >= _SHORT:
        K = N.bit_length()  # the smallest K with 2^K >= N + 1
        hi = [np.pad(p, (0, (1 << K) - N - 1), "edge")]
        lo = hi[:]
        for k in range(K):
            hi.append(np.maximum(hi[k][::2], hi[k][1::2]))
            lo.append(np.minimum(lo[k][::2], lo[k][1::2]))
        S = E = np.zeros(1, dtype=np.intp)
        for k in range(K, -1, -1):
            if not S.size:
                break
            s, e = S << k, E << k
            # where s == e the window is empty and scores 0 at length 1; the
            # incumbent already holds a value >= 0, at length 1 if it is 0
            length = np.maximum(e - s, 1)
            vals = np.abs(p[e] - p[s]) / np.sqrt(length)
            val = float(vals.max())
            if val >= best_val:
                L = int(length[vals == val].min())
                if val > best_val or L < best_len:
                    best_val, best_len = val, L
            if k == 0:
                break
            shortest = np.maximum((E - S - 1) << k, _SHORT - 1) + 1
            bound = np.maximum(hi[k][E] - lo[k][S], hi[k][S] - lo[k][E])
            bound /= np.sqrt(shortest)
            keep = (bound > best_val) | ((bound == best_val) & (shortest < best_len))
            S = (2 * S[keep, None] + (0, 0, 1, 1)).ravel()
            E = (2 * E[keep, None] + (0, 1, 0, 1)).ravel()
            live = (S <= E) & (E << (k - 1) <= N)
            S, E = S[live], E[live]
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
