"""Step-function representation of scalar sequences.

A sequence a_1..a_N is identified with the piecewise-constant function
f(x) = sum_j a_j rect(x - j), where rect is the indicator of [-1/2, 1/2].
Cell j therefore occupies [j - 1/2, j + 1/2] and has unit width, so the
squared L2 norm of f is simply the sum of squared coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepFunction",
    "ShiftRecord",
    "as_values",
    "make_step_function",
    "l2_norm",
    "evaluate",
    "shift_mean",
]


def as_values(seq) -> np.ndarray:
    """Coerce a scalar sequence to a 1-D float array, validating it."""
    a = np.asarray(seq, dtype=float)
    if a.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    if a.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite input")
    return a


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Unit-cell step function: coefficient j sits on [j - 1/2, j + 1/2]."""

    coefficients: np.ndarray
    origin: int = 1


@dataclass(frozen=True)
class ShiftRecord:
    """Constant added uniformly to a sequence, kept so it can be removed later."""

    shift: float


def make_step_function(seq, origin: int = 1) -> StepFunction:
    """Build the step function whose cell values are the given sequence."""
    return StepFunction(as_values(seq).copy(), int(origin))


def l2_norm(f) -> float:
    """L2 norm, sqrt(sum a_j^2). Accepts a StepFunction or a raw sequence.

    Raises ValueError when the sum of squares overflows (finite values of
    magnitude above about 1e154), rather than returning inf.
    """
    a = f.coefficients if isinstance(f, StepFunction) else as_values(f)
    with np.errstate(over="ignore"):
        sq = np.dot(a, a)
    if not np.isfinite(sq):
        raise ValueError("squared values overflow")
    return float(np.sqrt(sq))


def evaluate(f: StepFunction, x: float) -> float:
    """Pointwise value of f.

    Cells are half-open [j - 1/2, j + 1/2) so the value is single-valued at
    interior boundaries; the final cell is closed on the right. Outside the
    support the value is 0.
    """
    a = f.coefficients
    lo = f.origin - 0.5
    hi = lo + a.size
    if x < lo or x > hi:
        return 0.0
    # min() guards the closed right edge (and any rounding of x - lo up to size)
    return float(a[min(int(np.floor(x - lo)), a.size - 1)])


def shift_mean(seq, c: float) -> tuple[np.ndarray, ShiftRecord]:
    """Add the constant c to every value, returning the shifted copy and a record."""
    c = float(c)
    if not np.isfinite(c):
        raise ValueError("non-finite shift")
    return as_values(seq) + c, ShiftRecord(c)
