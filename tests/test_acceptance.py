"""Acceptance suite.

Thirteen numbered criteria, one test each, every one printing a single
PASS/FAIL line (visible with -s, or via the -v test listing). Randomness is
seeded, so each criterion is a fixed deterministic check. Criteria with
runtime bounds time themselves and fail when over budget.
"""

import math
import time

import numpy as np

from steppursuit import (
    PursuitConfig,
    WaveformAtom,
    alternating_pair_modulus,
    best_window,
    brute_force_best,
    inner_product,
    kmeans_1d,
    l2_norm,
    mse,
    pursuit_step,
    reconstruct,
    run_preset,
    run_pursuit,
    run_suite,
    three_term_max,
)


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {name}{tail}"
    print(line)
    assert ok, line


def test_criterion_01_maximizer_oracle_equivalence():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst_rel = 0.0
    atoms_agree = True
    for _ in range(200):
        n = int(rng.integers(1, 65))
        seq = rng.uniform(-1.0, 1.0, n)
        fast = best_window(seq)
        slow = brute_force_best(seq)
        three = three_term_max(seq)
        scale = max(fast.value, 1e-300)
        worst_rel = max(
            worst_rel,
            abs(fast.value - slow.value) / scale,
            abs(fast.value - three) / scale,
        )
        if fast.atom != slow.atom:
            atoms_agree = False
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-12 and atoms_agree and elapsed < 5.0
    _report(
        1,
        "three maximizer routes agree on 200 random sequences",
        ok,
        f"max rel diff {worst_rel:.2e}, atoms agree {atoms_agree}, {elapsed:.2f}s",
    )


def test_criterion_02_grid_vs_closed_form_unmodulated():
    t0 = time.perf_counter()
    rep = run_suite("theorem2", trials=50, n_max=12, grid_step=0.02, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep["max_excess"] <= 1e-6 and rep["max_attainment_gap"] <= 1e-9 and elapsed < 120.0
    _report(
        2,
        "dense (t, u) grid never beats the cell-aligned closed form",
        ok,
        f"excess {rep['max_excess']:.2e}, attainment gap "
        f"{rep['max_attainment_gap']:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_grid_vs_closed_form_modulated():
    t0 = time.perf_counter()
    rep = run_suite(
        "theorem1", trials=50, n_max=10, grid_step=0.02, xi_step=0.05, seed=0
    )
    elapsed = time.perf_counter() - t0
    ok = rep["max_violation"] <= 1e-6 and elapsed < 600.0
    _report(
        3,
        "modulated grid never beats the single-signed closed form",
        ok,
        f"excess {rep['max_violation']:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_short_scales_select_largest_cell():
    rep = run_suite("lemma1", trials=50, n_max=12, grid_step=0.02, xi_step=0.05, seed=0)
    _report(
        4,
        "scales t <= 1: grid max equals max |a_j| at the unit window",
        rep["passed"],
        f"max deviation {rep['max_violation']:.2e}",
    )


def test_criterion_05_partial_window_profile_vertex_max():
    rep = run_suite("lemma2", trials=100, ks=(1, 2, 3, 4), grid_n=200, seed=0)
    _report(
        5,
        "window profile on its triangle is maximised at a vertex",
        rep["passed"],
        f"max excess {rep['max_violation']:.2e}",
    )


def test_criterion_06_alternating_pair():
    f = [-1.0, 1.0]
    blind = abs(inner_product(f, WaveformAtom(2.0, 0.0, 1.5)))
    seen = abs(inner_product(f, WaveformAtom(2.0, 0.25, 1.5)))
    # full-coverage modulated value: 2 sin^2(pi/4) / ((pi/4) sqrt 2) = 2 sqrt(2)/pi
    expected = 2.0 * math.sqrt(2.0) / math.pi
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(0.05, 4.0))
        delta = float(rng.uniform(-(t + 1) / 2, (t + 1) / 2))
        xi = float(rng.uniform(-2.0, 2.0))
        closed = alternating_pair_modulus(1.0, t, delta, xi)
        direct = abs(inner_product(f, WaveformAtom(t, xi, 1.0 + delta)))
        worst = max(worst, abs(closed - direct))
    ok = (
        blind <= 1e-12
        and seen > 0.1
        and abs(seen - expected) <= 1e-10
        and worst <= 1e-10
    )
    _report(
        6,
        "sign flip invisible at xi=0, visible at xi=0.25; closed form exact",
        ok,
        f"xi=0 {blind:.1e}, xi=0.25 {seen:.6f}, closed-vs-direct {worst:.2e}",
    )


def test_criterion_07_energy_conservation():
    rep = run_suite("energy", trials=100, n=256, iterations=20, seed=0)
    _report(
        7,
        "energy ledger exact to 1e-9 at every iteration, norms nonincreasing",
        rep["passed"],
        f"max violation {rep['max_violation']:.2e}",
    )


def test_criterion_08_single_block_recovery():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 201))
        start = int(rng.integers(1, n + 1))
        length = int(rng.integers(1, n - start + 2))
        c = float(rng.uniform(0.1, 10.0)) * (1 if rng.random() < 0.5 else -1)
        seq = np.zeros(n)
        seq[start - 1 : start - 1 + length] = c
        exp = run_pursuit(seq, PursuitConfig(max_iterations=1))
        worst = max(worst, l2_norm(exp.residual) / abs(c))
    _report(
        8,
        "one iteration zeroes any single-block signal",
        worst < 1e-12,
        f"worst residual/|c| {worst:.2e}",
    )


def test_criterion_09_three_state_regime_recovery():
    wins = 0
    rec_mses = []
    for seed in range(1, 51):
        out = run_preset("sim1-3state", 250, seed)
        exp = run_pursuit(out.values, PursuitConfig(max_iterations=11))
        rec = reconstruct(exp)
        rec_mse = mse(rec, out.true_means)
        raw_mse = mse(out.values, out.true_means)
        rec_mses.append(rec_mse)
        if rec_mse < raw_mse:
            wins += 1
    med = float(np.median(rec_mses))
    ok = wins >= 48 and med < 0.02
    _report(
        9,
        "11 terms beat the raw series against the true mean path",
        ok,
        f"wins {wins}/50, median reconstruction MSE {med:.5f}",
    )


def test_criterion_10_pure_noise_prefers_singletons():
    hits = 0
    for seed in range(1, 101):
        out = run_preset("normal-std", 500, seed)
        a = out.values
        singleton = float(np.max(np.abs(a)))
        full = abs(float(np.sum(a))) / math.sqrt(500)
        if singleton > full:
            hits += 1
    _report(
        10,
        "on pure noise the best singleton outranks the full-support window",
        hits >= 99,
        f"{hits}/100 seeds",
    )


def test_criterion_11_constant_mean_first_atom():
    # The first atom is the exact argmax, so it spans the full support only
    # when no edge trim scores higher. With level mu shifted by c, the full
    # window sums to about T(mu + c); dropping an edge run of k cells with
    # sum s leaves (T(mu + c) - s) / sqrt(T - k), which beats the full score
    # when s < T(mu + c)(1 - sqrt(1 - k/T)) ~ k(mu + c)/2, i.e. when the
    # run's shifted mean is below about (mu + c)/2. Unshifted (c = 0) one
    # edge cell below 1 suffices, probability ~Phi(-1) per edge, and only
    # ~30/50 seeds keep the full support. A shift to non-negative values
    # (c = -min a) is not enough either (~42/50). With c = 10 a trim needs a
    # value below -4, 6 sigma under the mean, so the documented +10
    # pre-shift (demo 03) is run and removed through the shift record.
    hits = 0
    for seed in range(1, 51):
        out = run_preset("normal-mean2", 500, seed)
        exp = run_pursuit(out.values, PursuitConfig(max_iterations=1, pre_shift=10.0))
        t = exp.terms[0]
        step = t.coefficient / math.sqrt(t.atom.length) - exp.shift
        if (
            t.atom.start == 1
            and t.atom.length == 500
            and abs(step - 2.0) <= 3.0 / math.sqrt(500)
        ):
            hits += 1
    _report(
        11,
        "first atom spans the full support with step near the true mean",
        hits >= 45,
        f"{hits}/50 seeds",
    )


def test_criterion_12_single_iteration_performance():
    rng = np.random.default_rng(0)
    seq = rng.standard_normal(20_000)
    t0 = time.perf_counter()
    pursuit_step(seq)
    elapsed = time.perf_counter() - t0
    _report(
        12,
        "one pursuit iteration on N = 20,000",
        elapsed < 3.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_13_kmeans_comparison():
    center_errs = []
    ratios = []
    for seed in range(1, 21):
        out = run_preset("kmeans-2state", 500, seed)
        exp = run_pursuit(out.values, PursuitConfig(max_iterations=21))
        rec = reconstruct(exp)
        pursuit_mse = mse(rec, out.true_means)

        centers, assign = kmeans_1d(out.values, 2, seed=seed)
        km_mse = mse(centers[assign], out.true_means)
        lo, hi = sorted(centers.tolist())
        center_errs.append(max(abs(lo - (-0.2)), abs(hi - 0.2)))
        ratios.append(pursuit_mse / km_mse)
    med_err = float(np.median(center_errs))
    med_ratio = float(np.median(ratios))
    ok = med_err <= 0.05 and med_ratio <= 2.0
    _report(
        13,
        "k-means finds the true centers; pursuit stays within 2x of it",
        ok,
        f"median center error {med_err:.4f}, median MSE ratio {med_ratio:.3f}",
    )
