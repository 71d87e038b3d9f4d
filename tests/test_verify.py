"""The sweep engines themselves get cross-checked here at small sizes; the
full-size runs live in the acceptance suite."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from steppursuit import WaveformAtom, inner_product, run_suite
from steppursuit import verify
from steppursuit.verify import (
    _cumulative,
    _grid_max,
    _kink_peaks,
    _row_peaks,
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
    # the shapes that the |f| ceiling prunes: theorem1's single-signed input
    # on a lattice, lemma1's scales t <= 1, a constant input whose windows of
    # each whole scale tie across their centres, an all-zero input (every
    # ceiling is 0), and frequency grids without 0
    rng = np.random.default_rng(28)
    for k in range(8):
        n = int(rng.integers(1, 9))
        a = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
        step = float(rng.choice([0.1, 0.25]))
        u_grid = _steps(0.0, n + 1, step)
        xi = float(rng.uniform(0.01, 3.0))
        for b in (a, -a, np.full(n, 2.5), np.zeros(n)):
            for t_grid in (_steps(step, n + 1, step), _steps(step, 1.0, step)):
                for xi_grid in (
                    _xi_grid(0.05),
                    _xi_grid(0.3)[_xi_grid(0.3) != 0.0],
                    [-0.5, 0.5],
                    [xi, 2.0 * xi],
                ):
                    assert _grid_max(b, t_grid, u_grid, xi_grid) == sorted_grid_max(
                        b, t_grid, u_grid, xi_grid
                    )


def test_frequency_ceiling_edge_cases_match_sorted_reference_bitwise():
    # grids with more centres times |xi| than kink windows, so that the
    # ceilings run: an all-zero input (0 over 0 at xi = 0 must not be
    # computed), subnormal xi (2 pi |xi| is subnormal, and the ceiling must
    # overflow to inf with no warning), a huge xi, grids without 0, the fine
    # frequency grid, and alternating input, whose max sits at |xi| = 1/2,
    # above every xi = 0 value, so that row must survive the pruning
    rng = np.random.default_rng(32)
    for k in range(4):
        n = int(rng.integers(3, 9))
        a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
        alternating = rng.uniform(1.0, 1.1, n) * (-1.0) ** np.arange(n) * np.abs(a).max()
        step = float(rng.choice([0.1, 0.25]))
        u_grid = _steps(0.0, n + 1, step)
        for t_grid in (_steps(step, n + 1, step), _steps(step, 1.0, step)):
            for b, xi_grid in itertools.product(
                (np.zeros(n), np.abs(a), a, alternating),
                (
                    [0.0, 0.5],
                    [5e-324],
                    [-1e-310, 0.0, 1e-310, 0.5],
                    [1e300, 0.0],
                    [1e300, 1.5],
                    [-0.5, 0.5, 1.0],
                ),
            ):
                assert _grid_max(b, t_grid, u_grid, xi_grid) == sorted_grid_max(
                    b, t_grid, u_grid, xi_grid
                )
            # the reference takes all 801 xi of the fine grid: on the coarser
            # lattice only, to keep it cheap
            fine = _xi_grid(0.005)
            for b in (np.abs(a), alternating) if step == 0.25 else ():
                assert _grid_max(b, t_grid, u_grid, fine) == sorted_grid_max(
                    b, t_grid, u_grid, fine
                )
            if t_grid[-1] > 1.0:
                modulated = grid_max_modulated(alternating, t_grid, u_grid, _xi_grid(0.05))
                assert modulated > grid_max_unmodulated(alternating, t_grid, u_grid)


@pytest.mark.parametrize("block", ["1", "U - 1", "U", "U + 1", "3U + 1"])
def test_grid_engine_is_bitwise_at_block_boundaries(monkeypatch, block):
    # blocks of one row, of rows that just miss or just fit the block size,
    # and a short last block; a one-row t grid and a one-point u grid too
    rng = np.random.default_rng(25)
    a = rng.uniform(-1.0, 1.0, 5) * (-1.0) ** np.arange(5)
    grids = [
        (_steps(0.25, 6.0, 0.25), _steps(0.0, 6.0, 0.25)),
        (np.array([2.5]), _steps(0.0, 6.0, 0.25)),
        (_steps(0.25, 6.0, 0.25), np.array([3.0])),
        (rng.uniform(0.05, 6.0, 11), rng.uniform(-1.0, 7.0, 7)),
    ]
    for t_grid, u_grid in grids:
        U = u_grid.size
        size = {"1": 1, "U - 1": U - 1, "U": U, "U + 1": U + 1, "3U + 1": 3 * U + 1}[block]
        monkeypatch.setattr(verify, "_BLOCK", size)
        for xi_grid in ([0.0], [0.7], _xi_grid(0.3)):
            assert _grid_max(a, t_grid, u_grid, xi_grid) == sorted_grid_max(
                a, t_grid, u_grid, xi_grid
            )


def test_grid_engine_memory_is_linear_in_the_grid_side():
    # 10 cells at grid step 0.01: 1100 scales by 1101 centres, 1.2M windows
    # and 41 distinct |xi|; buffers over the whole grid would take about 70
    # and 29 MB. On the positive input the |f| ceiling leaves about one scale
    # for the sweep at every |xi|; on the alternating one few scales are
    # pruned, so the block sweep runs over nearly the whole grid. On 500
    # mixed-sign cells at grid step 1 the kink windows outnumber the
    # centres, and both grids get the kink ceiling over 0.5M windows, which
    # would peak at 4.1 MB in one block
    a = np.random.default_rng(26).uniform(0.0, 1.0, 10)
    alternating = a * (-1.0) ** np.arange(10)
    t_grid = _steps(0.01, 11.0, 0.01)
    u_grid = _steps(0.0, 11.0, 0.01)
    xi_grid = _xi_grid(0.05)
    mixed = np.random.default_rng(30).uniform(-1.0, 1.0, 500)
    coarse = _steps(1.0, 501, 1.0)
    for run, limit in (
        (lambda: grid_max_modulated(a, t_grid, u_grid, xi_grid), 16e6),
        (lambda: grid_max_modulated(alternating, t_grid, u_grid, xi_grid), 16e6),
        (lambda: grid_max_unmodulated(a, t_grid, u_grid), 2e6),
        (lambda: grid_max_unmodulated(mixed, coarse, coarse), 4e6),
        (lambda: grid_max_modulated(mixed, coarse, coarse, xi_grid), 3.5e6),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def test_grid_engine_rejects_empty_and_oversize_grids():
    a = np.array([1.0, -2.0])
    grid = [0.5, 1.0]
    for t_grid, u_grid, xi_grid in (([], grid, [0.0]), (grid, [], [0.0, 1.0]), (grid, grid, [])):
        with pytest.raises(ValueError, match="must not be empty"):
            _grid_max(a, t_grid, u_grid, xi_grid)
    # refused before any block is swept: 2^16 scales by 2^15 + 1 centres are
    # 2^16 windows over the limit of 2^31
    t_grid = np.ones(2**16)
    u_grid = np.zeros(2**15 + 1)
    with pytest.raises(ValueError, match="too large to sweep"):
        _grid_max(a, t_grid, u_grid, [0.0])


def test_grid_engine_rejects_overflowing_window_sums():
    # finite values whose window integrals overflow are the error that
    # best_window raises, not nan, and both routes refuse them before any
    # block is swept
    t_grid = [0.5, 1.0, 2.0]
    u_grid = [0.0, 1.0, 2.0, 3.0]
    for a in ([1e308, 1e308], [-1e308, 1e308], [6e307] * 3):
        with pytest.raises(ValueError, match="window sums overflow"):
            grid_max_unmodulated(a, t_grid, u_grid)
        with pytest.raises(ValueError, match="window sums overflow"):
            grid_max_modulated(a, t_grid, u_grid, _xi_grid(0.5))
    # twice the absolute sum just fits: a finite max, with no warning, at
    # the window [0, 2] over cell 1 and half of cell 2
    a = [4e307, 4e307]
    assert grid_max_unmodulated(a, t_grid, u_grid) == pytest.approx(6e307 / np.sqrt(2.0))
    assert grid_max_modulated(a, t_grid, u_grid, _xi_grid(0.5)) == pytest.approx(
        6e307 / np.sqrt(2.0)
    )


def test_row_peaks_stay_under_the_abs_ceiling():
    # half the premise of the pruning in _grid_max: by the triangle inequality,
    # |int_window f exp(-2 pi i xi x)| <= int_window |f| for every xi, so no
    # |xi| lifts a scale's row peak above that of |f| at xi = 0. The computed
    # peaks can pass it by rounding, which the slack must cover
    rng = np.random.default_rng(27)
    for k in range(90):
        n = int(rng.integers(1, 300)) if k % 6 == 0 else int(rng.integers(1, 13))
        a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 3 == 0:  # single-signed
            a = np.abs(a) * rng.choice([-1.0, 1.0])
        elif k % 3 == 1:  # alternating
            a = np.abs(a) * (-1.0) ** np.arange(n)
        if k % 5 == 0:
            a = a + 1e6
        t_grid = rng.uniform(0.05, n + 1.0, 7)
        u_grid = rng.uniform(-1.0, n + 2.0, 9)
        xis = np.unique(np.concatenate((np.abs(_xi_grid(0.05)), rng.uniform(0.0, 3.0, 4))))
        slack = verify._SLACK * np.abs(a).sum()
        ceiling = _row_peaks(np.abs(a), t_grid, u_grid, np.zeros(1)) + slack
        assert np.all(_row_peaks(a, t_grid, u_grid, xis) <= ceiling)


def test_row_peaks_stay_under_the_kink_ceiling():
    # the premise of the pruning in _grid_max: at a fixed scale the window
    # integral is piecewise linear in the centre, so no centre, on the grid
    # or off it, beats the windows with an end on a cell boundary; that holds
    # for f itself at xi = 0 and, with the triangle inequality, for |f| at
    # every xi. The computed peaks can pass the kink max by rounding, which
    # the slack must cover
    rng = np.random.default_rng(29)
    for k in range(90):
        n = int(rng.integers(1, 301)) if k % 6 == 0 else int(rng.integers(1, 13))
        a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 3 == 0:  # single-signed
            a = np.abs(a) * rng.choice([-1.0, 1.0])
        elif k % 3 == 1:  # alternating
            a = np.abs(a) * (-1.0) ** np.arange(n)
        if k % 5 == 0:
            a = a + 1e6
        if k % 2 == 1:  # lattice: grid windows sit on the kinks
            step = float(rng.choice([0.1, 0.25, 0.5]))
            t_grid = _steps(step, n + 3.0, step)
            u_grid = _steps(-2.0, n + 3.0, step)
        else:  # scales past the support, centres outside it
            t_grid = rng.uniform(0.05, n + 3.0, 7)
            u_grid = rng.uniform(-2.0, n + 3.0, 9)
        slack = verify._SLACK * np.abs(a).sum()
        for f, xis in (
            (a, np.zeros(1)),
            (np.abs(a), np.array([0.5])),
            (np.abs(a), np.unique(np.abs(_xi_grid(0.3)))),
        ):
            ceiling = _kink_peaks(f, t_grid) + slack
            assert np.all(_row_peaks(a, t_grid, u_grid, xis) <= ceiling)


def jump_lift(a, t_grid):
    """2 max|a| plus the largest sum of min(ceil(t), N + 1) consecutive jumps
    of f extended by 0, per scale: each window of jumps summed on its own."""
    d = np.abs(np.diff(np.concatenate(([0.0], a, [0.0])))).tolist()
    lift = {}
    for k in {min(math.ceil(t), len(d)) for t in t_grid}:
        jump = max(math.fsum(d[j : j + k]) for j in range(len(d) - k + 1))
        lift[k] = 2.0 * float(np.abs(a).max()) + jump
    return np.array([lift[min(math.ceil(t), len(d))] for t in t_grid])


def test_row_peaks_stay_under_the_frequency_ceiling():
    # the premise of the frequency pruning in _grid_max: summed by parts over
    # the cells, a window integral at xi != 0 is at most |f| at its two ends
    # plus the sizes of the jumps inside it, over 2 pi |xi|, and an open
    # window of length t holds at most ceil(t) cell boundaries. Lattices with
    # whole scales put the window ends on the boundaries, exactly (steps 0.25
    # and 0.5) or a few ulps off them (step 0.1); the computed peaks can pass
    # the ceiling by rounding, which the slack must cover
    rng = np.random.default_rng(31)
    for k in range(90):
        n = int(rng.integers(1, 301)) if k % 6 == 0 else int(rng.integers(1, 13))
        a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 3 == 0:  # single-signed
            a = np.abs(a) * rng.choice([-1.0, 1.0])
        elif k % 3 == 1:  # alternating
            a = np.abs(a) * (-1.0) ** np.arange(n)
        if k % 5 == 0:
            a = a + 1e6
        if k % 2 == 1:  # lattice: whole scales end on the cell boundaries
            step = float(rng.choice([0.1, 0.25, 0.5]))
            t_grid = _steps(step, n + 3.0, step)
            u_grid = _steps(-2.0, n + 3.0, step)
        else:  # scales past the support, centres outside it
            t_grid = rng.uniform(0.05, n + 3.0, 7)
            u_grid = rng.uniform(-2.0, n + 3.0, 9)
        slack = verify._SLACK * np.abs(a).sum()
        xis = np.concatenate((np.abs(_xi_grid(0.5))[5:], rng.uniform(0.0, 3.0, 2), [1e3]))
        lift = jump_lift(a, t_grid)
        for xi in xis:
            ceiling = lift / (2.0 * math.pi * xi) + slack
            assert np.all(_row_peaks(a, t_grid, u_grid, np.array([xi])) <= ceiling)


def swept_scales(monkeypatch, suite, trials, size=lambda t, xis: t.size):
    """The scales that `run_suite(suite)` at seed 0 sends to the sweep, or
    what else `size` counts of each call."""
    swept = []
    row_peaks = verify._row_peaks

    def counting(a, t, u, xis):
        swept.append(size(t, xis))
        return row_peaks(a, t, u, xis)

    monkeypatch.setattr(verify, "_row_peaks", counting)
    assert run_suite(suite, trials=trials, seed=0)["passed"]
    return sum(swept)


def test_pruning_sweeps_few_scales_at_every_frequency(monkeypatch):
    # on theorem1's default grid (single-signed input, 41 |xi|) about one
    # scale per trial is left for the sweep; it is counted twice, as it is
    # swept at xi = 0 first and then at the |xi| its frequency ceiling leaves
    trials = 10
    assert trials <= swept_scales(monkeypatch, "theorem1", trials) <= 3 * trials


def test_pruning_sweeps_few_scales_unmodulated(monkeypatch):
    # theorem2's mixed-sign input at xi = 0: the kink ceiling of f itself
    # leaves about one of a trial's hundreds of scales for the sweep
    trials = 10
    assert trials <= swept_scales(monkeypatch, "theorem2", trials) <= 3 * trials


def test_pruning_sweeps_few_frequencies(monkeypatch):
    # the frequency ceiling leaves a few of the 41 |xi| of theorem1's and
    # lemma1's default grid to the sweep of each scale: about 6 (scale, |xi|)
    # rows per trial in theorem1 and 12 in lemma1, where an unpruned
    # frequency axis sweeps 41
    trials = 10
    rows = lambda t, xis: t.size * xis.size
    assert trials <= swept_scales(monkeypatch, "theorem1", trials, rows) <= 100
    assert trials <= swept_scales(monkeypatch, "lemma1", trials, rows) <= 200


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
