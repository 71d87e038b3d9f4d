"""Greedy expansion of a sequence into weighted cell-aligned windows.

Each iteration picks the best window of the current residual, records the
atom with coefficient <R, G> = signed_sum / sqrt(L), and subtracts the
projection, which lowers the squared residual norm by exactly the squared
coefficient. Stopping is governed by an iteration cap, a residual-norm
floor and a coefficient floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import as_values, l2_norm
from .maximizer import WindowAtom, best_window

__all__ = [
    "ExpansionTerm",
    "GreedyExpansion",
    "PursuitConfig",
    "pursuit_step",
    "run_pursuit",
    "reconstruct",
    "energy_ledger",
    "breakpoints",
]


@dataclass(frozen=True)
class ExpansionTerm:
    """One selected window. coefficient / sqrt(length) is the height added
    on the window's cells by the reconstruction."""

    atom: WindowAtom
    coefficient: float
    iteration: int


@dataclass(frozen=True, eq=False)
class GreedyExpansion:
    """Result of a pursuit run.

    norm_history[0] is the norm of the (shifted) input; one entry is appended
    after each accepted term, so its length is len(terms) + 1 and it never
    increases. shift is whatever constant was added before the run (0.0
    when none), needed to undo it at reconstruction time.
    """

    terms: tuple[ExpansionTerm, ...]
    residual: np.ndarray
    norm_history: tuple[float, ...]
    shift: float = 0.0


@dataclass(frozen=True)
class PursuitConfig:
    max_iterations: int
    residual_epsilon: float = 0.0
    coefficient_epsilon: float = 0.0
    pre_shift: float | None = None

    def __post_init__(self):
        if not (isinstance(self.max_iterations, int) and self.max_iterations >= 1):
            raise ValueError("max_iterations must be a positive integer")
        if not (math.isfinite(self.residual_epsilon) and self.residual_epsilon >= 0):
            raise ValueError("residual_epsilon must be finite and >= 0")
        if not (math.isfinite(self.coefficient_epsilon) and self.coefficient_epsilon >= 0):
            raise ValueError("coefficient_epsilon must be finite and >= 0")
        if self.pre_shift is not None and not math.isfinite(self.pre_shift):
            raise ValueError("pre_shift must be finite")


def pursuit_step(residual) -> tuple[ExpansionTerm, np.ndarray]:
    """One greedy step: select the best window and subtract its projection.

    The projection is constant on the selected window, signed_sum / L per
    cell, and zero elsewhere. Returns the term (iteration field 0; the
    driver renumbers) and the new residual as a fresh array.
    """
    r = as_values(residual)
    scored = best_window(r)
    n, L = scored.atom.start, scored.atom.length
    coef = scored.signed_sum / math.sqrt(L)
    out = r.copy()
    out[n - 1 : n - 1 + L] -= scored.signed_sum / L
    return ExpansionTerm(scored.atom, coef, 0), out


def run_pursuit(seq, config: PursuitConfig) -> GreedyExpansion:
    """Run greedy pursuit on seq (after the optional pre-shift).

    Stops at max_iterations, when the residual norm has dropped to
    residual_epsilon, or when the next coefficient's magnitude would be at or
    below coefficient_epsilon (that term is then discarded). With the default
    zero floors this still halts early on an exactly-zero residual or
    selection, since a zero coefficient can never reduce the residual.

    The first window is scanned before the first norm is taken, so input
    whose window sums overflow (its squares then overflow too) raises
    "window sums overflow" rather than l2_norm's "squared values overflow".
    That first scan always runs, even when the input norm is already at or
    below residual_epsilon and no term is kept.
    """
    shift = 0.0 if config.pre_shift is None else float(config.pre_shift)
    r = as_values(seq) + shift
    first = pursuit_step(r)
    norms = [l2_norm(r)]
    terms: list[ExpansionTerm] = []
    for m in range(config.max_iterations):
        if norms[-1] <= config.residual_epsilon:
            break
        term, nxt = first if m == 0 else pursuit_step(r)
        if abs(term.coefficient) <= config.coefficient_epsilon:
            break
        terms.append(replace(term, iteration=m))
        r = nxt
        norms.append(l2_norm(r))
    return GreedyExpansion(tuple(terms), r, tuple(norms), shift)


def reconstruct(expansion: GreedyExpansion) -> np.ndarray:
    """Cell values of the sum of the expansion's window terms, with any
    pre-shift removed.

    Cellwise this equals (shifted input - residual) - shift, i.e. the
    approximation of the original sequence.
    """
    rec = np.zeros(expansion.residual.size)
    for term in expansion.terms:
        n, L = term.atom.start, term.atom.length
        rec[n - 1 : n - 1 + L] += term.coefficient / math.sqrt(L)
    rec -= expansion.shift
    return rec


def energy_ledger(expansion: GreedyExpansion) -> list[tuple[float, float]]:
    """Per-iteration rows (coefficient^2, residual_norm^2 after the step).

    Summing the first column and adding the final second column recovers the
    squared norm of the input, one term at a time.
    """
    return [
        (t.coefficient ** 2, expansion.norm_history[m + 1] ** 2)
        for m, t in enumerate(expansion.terms)
    ]


def breakpoints(expansion: GreedyExpansion, threshold: float = 0.0) -> list[int]:
    """Cell boundaries where the reconstruction jumps by more than threshold.

    Returns the indices j (1-based, boundary between cells j and j + 1) with
    |rec[j + 1] - rec[j]| strictly above the threshold.
    """
    rec = reconstruct(expansion)
    d = np.abs(np.diff(rec))
    return [int(i) + 1 for i in np.nonzero(d > threshold)[0]]
