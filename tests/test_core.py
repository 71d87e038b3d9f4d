import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steppursuit.core import l2_norm, sum_of_squares
from steppursuit.dictionary import WaveformAtom, inner_product

finite_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
sequences = st.lists(finite_values, min_size=1, max_size=64)


def test_l2_norm_and_inner_product_reject_empty():
    with pytest.raises(ValueError, match="empty input"):
        l2_norm([])
    with pytest.raises(ValueError, match="empty input"):
        inner_product([], WaveformAtom(1.0, 0.0, 1.0))


def test_l2_norm_and_inner_product_reject_non_finite():
    with pytest.raises(ValueError, match="non-finite input"):
        l2_norm([1.0, float("nan")])
    with pytest.raises(ValueError, match="non-finite input"):
        inner_product([1.0, float("inf")], WaveformAtom(1.0, 0.0, 1.0))


def test_l2_norm_examples():
    assert l2_norm([3, 4]) == 5.0
    assert l2_norm([0, 0, 0]) == 0.0
    assert l2_norm([1, 1, 1, 1]) == 2.0
    # the overflow edge is sqrt(max float), about 1.34e154
    assert l2_norm([1.3e154]) == pytest.approx(1.3e154, rel=1e-15)
    with pytest.raises(ValueError, match="squared values overflow"):
        l2_norm([1e155])
    with pytest.raises(ValueError, match="squared values overflow"):
        l2_norm([1.3e154, 1.3e154])  # each square fits, their sum does not


def test_sum_of_squares_is_within_a_few_ulps_of_fsum():
    # pairwise summation of the rounded squares against their exactly
    # rounded sum, at lengths from 1 to 2e5
    rng = np.random.default_rng(0)
    for n in np.unique(np.geomspace(1, 200_000, 200).astype(int)):
        a = rng.standard_normal(n)
        exact = math.fsum((a * a).tolist())
        assert abs(sum_of_squares(a) - exact) <= 4 * math.ulp(exact), n


@given(sequences)
def test_norm_squared_is_sum_of_squares(seq):
    lhs = l2_norm(seq) ** 2
    rhs = math.fsum(x * x for x in seq)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)
