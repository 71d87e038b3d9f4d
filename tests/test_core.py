import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steppursuit.core import l2_norm
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


@given(sequences)
def test_norm_squared_is_sum_of_squares(seq):
    lhs = l2_norm(seq) ** 2
    rhs = math.fsum(x * x for x in seq)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)
