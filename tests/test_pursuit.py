import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steppursuit import (
    PursuitConfig,
    breakpoints,
    energy_ledger,
    l2_norm,
    pursuit_step,
    reconstruct,
    run_pursuit,
)

sequences = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=40
)


def test_config_validation():
    with pytest.raises(ValueError):
        PursuitConfig(max_iterations=0)
    with pytest.raises(ValueError):
        PursuitConfig(max_iterations=3, residual_epsilon=-1.0)
    with pytest.raises(ValueError):
        PursuitConfig(max_iterations=3, coefficient_epsilon=-0.5)
    with pytest.raises(ValueError):
        PursuitConfig(max_iterations=3, pre_shift=float("inf"))
    cfg = PursuitConfig(max_iterations=1)
    assert cfg.residual_epsilon == 0.0 and cfg.pre_shift is None


def test_step_on_plateau():
    term, res = pursuit_step([0, 3, 3, 3, 0])
    assert (term.atom.start, term.atom.length) == (2, 3)
    assert term.coefficient == pytest.approx(3 * math.sqrt(3), rel=1e-15)
    assert np.all(res == 0.0)


def test_step_single_cell():
    term, res = pursuit_step([8.5])
    assert (term.atom.start, term.atom.length, term.coefficient) == (1, 1, 8.5)
    assert res.tolist() == [0.0]


def test_step_on_zeros_leaves_residual():
    term, res = pursuit_step([0.0, 0.0])
    assert term.coefficient == 0.0
    assert res.tolist() == [0.0, 0.0]


def test_step_does_not_mutate_input():
    x = np.array([1.0, 5.0])
    pursuit_step(x)
    assert x.tolist() == [1.0, 5.0]


def test_constant_sequence_one_term():
    exp = run_pursuit(
        np.full(500, 2.0),
        PursuitConfig(max_iterations=5, residual_epsilon=1e-12),
    )
    assert len(exp.terms) == 1
    t = exp.terms[0]
    assert (t.atom.start, t.atom.length) == (1, 500)
    assert t.coefficient == pytest.approx(2 * math.sqrt(500), rel=1e-14)
    assert l2_norm(exp.residual) == 0.0


def test_zero_selection_stops_without_term():
    exp = run_pursuit([0.0, 0.0, 0.0], PursuitConfig(max_iterations=4))
    assert exp.terms == ()
    assert exp.norm_history == (0.0,)


def test_norm_history_shape_and_monotone():
    exp = run_pursuit([4.0, -1.0, 2.0, 2.0], PursuitConfig(max_iterations=3))
    assert len(exp.norm_history) == len(exp.terms) + 1
    assert all(b <= a for a, b in zip(exp.norm_history, exp.norm_history[1:]))


def test_energy_ledger_plateau():
    exp = run_pursuit([0, 3, 3, 3, 0], PursuitConfig(max_iterations=5))
    assert energy_ledger(exp) == [(27.0, 0.0)]


def test_breakpoints_plateau():
    exp = run_pursuit([0, 3, 3, 3, 0], PursuitConfig(max_iterations=5))
    assert breakpoints(exp) == [1, 4]
    assert breakpoints(exp, threshold=5.0) == []


def test_shift_round_trip():
    seq = [1.0, 2.0, 3.0, 2.0]
    exp = run_pursuit(seq, PursuitConfig(max_iterations=6, pre_shift=10.0))
    assert exp.shift == 10.0
    rec = reconstruct(exp)
    back = rec + exp.residual
    assert np.max(np.abs(back - np.asarray(seq))) <= 1e-12 * 13
    # an integer pre-shift is stored as a float, so a report writes 10.0, not 10
    exp = run_pursuit(seq, PursuitConfig(max_iterations=6, pre_shift=10))
    assert type(exp.shift) is float and exp.shift == 10.0
    assert json.dumps(exp.shift) == "10.0"


def test_single_block_recovered_in_one_iteration():
    seq = np.zeros(30)
    seq[7:15] = -2.5
    exp = run_pursuit(seq, PursuitConfig(max_iterations=1))
    assert len(exp.terms) == 1
    t = exp.terms[0]
    assert (t.atom.start, t.atom.length) == (8, 8)
    assert l2_norm(exp.residual) <= 1e-12 * 2.5


@given(sequences)
@settings(max_examples=200, deadline=None)
def test_reconstruction_plus_residual_is_input(seq):
    exp = run_pursuit(seq, PursuitConfig(max_iterations=8))
    back = reconstruct(exp) + exp.residual
    scale = max(1.0, max(abs(x) for x in seq))
    assert np.max(np.abs(back - np.asarray(seq))) <= 1e-12 * scale


@given(sequences, st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_pre_shift_does_not_change_residual_frame(seq, c):
    # pursuit of (seq + c) leaves the same residual identity: terms - c + residual = seq
    exp = run_pursuit(seq, PursuitConfig(max_iterations=6, pre_shift=c))
    back = reconstruct(exp) + exp.residual
    scale = max(1.0, max(abs(x) for x in seq), abs(c))
    assert np.max(np.abs(back - np.asarray(seq))) <= 1e-11 * scale


@given(sequences)
@settings(max_examples=150, deadline=None)
def test_energy_identity(seq):
    exp = run_pursuit(seq, PursuitConfig(max_iterations=10))
    total = exp.norm_history[0] ** 2
    if total == 0.0:
        assert exp.terms == ()
        return
    spent = 0.0
    for coef_sq, res_sq in energy_ledger(exp):
        spent += coef_sq
        assert abs(total - (spent + res_sq)) <= 1e-9 * total


def test_determinism():
    rng = np.random.default_rng(123)
    seq = rng.uniform(-1, 1, 200)
    a = run_pursuit(seq, PursuitConfig(max_iterations=12))
    b = run_pursuit(seq, PursuitConfig(max_iterations=12))
    assert a.norm_history == b.norm_history
    assert a.terms == b.terms
    assert np.array_equal(a.residual, b.residual)
