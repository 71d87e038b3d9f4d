"""The sweep engines themselves get cross-checked here at small sizes; the
full-size runs live in the acceptance suite."""

import numpy as np
import pytest

from steppursuit import WaveformAtom, inner_product, run_suite
from steppursuit.verify import (
    _cumulative,
    _grid_max,
    _steps,
    _xi_grid,
    grid_max_modulated,
    grid_max_unmodulated,
)


def sorted_grid_max(a, t_grid, u_grid, xi_grid) -> float:
    """Reference engine: every xi of the grid, the cumulative integral once
    per distinct window end (found by a sort), window differences gathered
    by index. `_grid_max` folds +/-xi and skips the sort for one |xi|, and
    must agree with this bit for bit."""
    t = np.asarray(t_grid, dtype=float)[:, None]
    u = np.asarray(u_grid, dtype=float)[None, :]
    los = u - t / 2.0
    his = u + t / 2.0
    ends = np.unique(np.concatenate((los.ravel(), his.ravel())))
    ilo = np.searchsorted(ends, los)
    ihi = np.searchsorted(ends, his)
    root = np.sqrt(t)
    best = 0.0
    for xi in np.asarray(xi_grid, dtype=float):
        c = _cumulative(a, xi, ends)
        best = max(best, float((np.abs(c[ihi] - c[ilo]) / root).max()))
    return best


def test_grid_engine_agrees_with_per_atom_inner_product():
    # the cumulative-integral engine and the per-cell closed form are
    # independent code paths; spot-check them against each other, at
    # subnormal xi too, where sin(g w) / g must not divide by a subnormal g
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = rng.uniform(-1.0, 1.0, n)
        t = float(rng.uniform(0.1, n + 1.0))
        u = float(rng.uniform(0.0, n + 1.0))
        for xi in (0.0, float(rng.uniform(-2.0, 2.0)), 5e-324, 1e-310):
            grid = grid_max_modulated(a, [t], [u], [xi])
            direct = abs(inner_product(a, WaveformAtom(t, xi, u)))
            assert grid == pytest.approx(direct, abs=1e-12)


def test_grid_engine_max_over_multi_point_grids():
    # multi-point grids exercise the gather from the distinct window ends:
    # lattices whose ends repeat and centres outside the support, and random
    # grids; the engine's max must equal the max of inner_product over every
    # (t, u, xi) of the grid
    rng = np.random.default_rng(22)
    for k in range(20):
        n = int(rng.integers(1, 8))
        a = rng.uniform(-1.0, 1.0, n)
        if k % 2 == 0:
            step = float(rng.choice([0.25, 0.5]))
            t_grid = np.arange(1, int((n + 1) / step) + 1) * step
            u_grid = np.arange(-4, int((n + 2) / step) + 1) * step
        else:
            t_grid = rng.uniform(0.1, n + 1.0, 5)
            u_grid = rng.uniform(-1.0, n + 2.0, 6)
        xi_grid = [0.0, 1.0, float(rng.uniform(-2.0, 2.0))]
        direct = max(
            abs(inner_product(a, WaveformAtom(float(t), float(xi), float(u))))
            for t in t_grid
            for u in u_grid
            for xi in xi_grid
        )
        assert grid_max_modulated(a, t_grid, u_grid, xi_grid) == pytest.approx(
            direct, abs=1e-12
        )
        unmod = max(
            abs(inner_product(a, WaveformAtom(float(t), 0.0, float(u))))
            for t in t_grid
            for u in u_grid
        )
        assert grid_max_unmodulated(a, t_grid, u_grid) == pytest.approx(unmod, abs=1e-12)


def test_grid_engine_matches_sorted_reference_bitwise():
    rng = np.random.default_rng(23)
    for k in range(40):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 4 < 2:  # alternating signs: the max sits at |xi| = 1/2, not 0
            a = np.abs(a) * (-1.0) ** np.arange(n)
        if k % 2 == 0:  # lattice: many windows share an end
            step = float(rng.choice([0.05, 0.1, 0.25]))
            t_grid = _steps(step, n + 1, step)
            u_grid = _steps(0.0, n + 1, step)
        else:
            t_grid = rng.uniform(0.05, n + 1.0, 7)
            u_grid = rng.uniform(-1.0, n + 2.0, 9)
        xi = float(rng.uniform(0.01, 3.0))
        for xi_grid in (
            [0.0],
            [xi],
            [-xi],
            [-xi, xi],
            [-0.0, 0.0],
            [-0.5, 0.0],
            [xi, xi, 0.0, -xi, 0.0],
            _steps(-2.0, 2.0, 0.05),
            _xi_grid(0.05),
            _xi_grid(0.3),
            _xi_grid(2.0),
            rng.uniform(-3.0, 3.0, 4),
        ):
            assert _grid_max(a, t_grid, u_grid, xi_grid) == sorted_grid_max(
                a, t_grid, u_grid, xi_grid
            )


def test_cumulative_at_minus_xi_is_the_conjugate():
    # the premise of the +/-xi fold: for real f every factor of the integral
    # is odd or even in xi, so the conjugate is exact, not merely close
    rng = np.random.default_rng(24)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
        xi = float(rng.uniform(-4.0, 4.0)) or 1.0
        y = rng.uniform(-1.0, n + 2.0, (6, 7))
        plus = _cumulative(a, xi, y)
        minus = _cumulative(a, -xi, y)
        assert np.array_equal(minus.real, plus.real)
        assert np.array_equal(minus.imag, -plus.imag)
        t_grid = rng.uniform(0.05, n + 1.0, 5)
        u_grid = rng.uniform(-1.0, n + 2.0, 6)
        xi_grid = rng.uniform(-3.0, 3.0, 3)
        assert grid_max_modulated(a, t_grid, u_grid, xi_grid) == grid_max_modulated(
            a, t_grid, u_grid, -xi_grid
        )


def test_grid_max_unmodulated_finds_plateau():
    # {0, 3, 3, 3, 0}: the best window is the plateau, value 3 sqrt(3)
    a = [0.0, 3.0, 3.0, 3.0, 0.0]
    step = 0.05
    t_grid = np.arange(1, int(6 / step) + 1) * step
    u_grid = np.arange(0, int(6 / step) + 1) * step
    got = grid_max_unmodulated(a, t_grid, u_grid)
    assert got == pytest.approx(3 * np.sqrt(3), abs=1e-9)


def test_steps_stay_inside_the_range():
    # the default grids keep their point counts (xi, lemma1's t, and t and u
    # of the theorem sweeps for every N up to 12), and a coarse step gives a
    # non-empty grid that does not pass hi
    assert _steps(-2.0, 2.0, 0.05).size == 81
    assert _steps(0.02, 1.0, 0.02).size == 50
    for N in range(1, 13):
        assert _steps(0.02, N + 1, 0.02).size == 50 * (N + 1)
        assert _steps(0.0, N + 1, 0.02).size == 50 * (N + 1) + 1
    for lo, hi, step in ((-2.0, 2.0, 5.0), (-2.0, 2.0, 3.0), (0.0, 2.0, 1.5), (0.5, 1.0, 0.5)):
        grid = _steps(lo, hi, step)
        assert grid.size >= 1 and grid[0] == lo and grid[-1] <= hi
    with pytest.raises(ValueError, match="larger than the swept range"):
        _steps(2.0, 1.0, 2.0)


def test_xi_grid_is_symmetric_and_holds_zero():
    for step in (0.05, 0.3, 0.8, 0.7, 1.0 / 3.0, 2.0, 4.0, 5.0, 1e-3):
        g = _xi_grid(step)
        assert np.array_equal(g, -g[::-1])
        assert 0.0 in g
        assert np.abs(g).max() <= 2.0 * (1.0 + 1e-9)
    # the default grid: the points of -2 + 0.05 k to within an ulp of the
    # range's end 2 (that sum rounds at the scale of 2, so near 0 it is many
    # ulps of the point off), but its 81 values fold to 41 distinct |xi|
    # instead of 68
    g = _xi_grid(0.05)
    ref = _steps(-2.0, 2.0, 0.05)
    assert g.size == 81 and np.unique(np.abs(g)).size == 41
    assert np.unique(np.abs(ref)).size == 68
    assert np.abs(g - ref).max() <= np.spacing(2.0)
    # a step that does not divide 2 keeps 0 and drops the ends
    assert _xi_grid(2.0).tolist() == [-2.0, 0.0, 2.0]
    assert _xi_grid(4.0).tolist() == [0.0]
    assert _xi_grid(5.0).tolist() == [0.0]


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError, match="suite"):
        run_suite("theorem3")


def test_run_suite_filters_parameters():
    rep = run_suite("remark", trials=50, seed=1, grid_step=None, n_max=None)
    assert rep["trials"] == 50 and rep["seed"] == 1
    assert rep["passed"] is True
    # a parameter that only another suite reads is dropped, as the CLI
    # passes every flag to every suite
    assert run_suite("theorem2", trials=2, xi_step=0.5)["trials"] == 2


def test_run_suite_rejects_parameters_no_suite_reads():
    with pytest.raises(ValueError, match="trails"):
        run_suite("theorem2", trails=5)
    with pytest.raises(ValueError, match="grid_n"):
        run_suite("lemma2", trials=2, grid_n=50)


def test_small_sweeps_pass():
    assert run_suite("theorem2", trials=5, seed=3)["passed"]
    assert run_suite("theorem1", trials=2, seed=3, n_max=6)["passed"]
    assert run_suite("lemma1", trials=3, seed=3, n_max=6)["passed"]
    assert run_suite("lemma2", trials=10, seed=3)["passed"]
    assert run_suite("energy", trials=5, seed=3, n=64)["passed"]


def test_report_fields():
    rep = run_suite("energy", trials=2, n=32, seed=0)
    for key in ("suite", "trials", "seed", "tolerance", "max_violation", "passed"):
        assert key in rep
    assert rep["suite"] == "energy"
    assert rep["max_violation"] <= rep["tolerance"]
