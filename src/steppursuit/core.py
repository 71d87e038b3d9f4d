"""Step-function representation of scalar sequences.

A sequence a_1..a_N is identified with the piecewise-constant function
f(x) = sum_j a_j rect(x - j), where rect is the indicator of [-1/2, 1/2].
Cell j therefore occupies [j - 1/2, j + 1/2] and has unit width, so the
squared L2 norm of f is simply the sum of squared coefficients. The value
array itself is the step function; every layer passes it as-is.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["as_values", "l2_norm", "sum_of_squares"]


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


def sum_of_squares(a: np.ndarray) -> float:
    """sum a_j^2 of a float array, by numpy's pairwise summation.

    Every sum of squares in the package comes here, so no result depends on
    a BLAS library or its thread count. Raises ValueError when the sum
    overflows (finite values of magnitude above about 1e154), rather than
    returning inf.
    """
    with np.errstate(over="ignore"):
        sq = np.add.reduce(a * a)
    if not np.isfinite(sq):
        raise ValueError("squared values overflow")
    return float(sq)


def l2_norm(seq) -> float:
    """L2 norm, sqrt(sum a_j^2); see sum_of_squares for overflow."""
    return math.sqrt(sum_of_squares(as_values(seq)))
