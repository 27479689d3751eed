"""Acceptance suite: one test per criterion, one PASS line each.

Attenuation levels: the bundled examples admit no saddle point below
their critical gamma (~13.303 and ~2.0273; the terminal condition alone
forces gamma > sqrt(max eig Q) = 2.83 on example 1), so criteria that
need a saddle run at feasible levels: multiples of the critical gamma
for the sweep grids, gamma = 4 for example 2 point checks.  Each test
prints the levels it used.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mfminmax.cli import bundled_config_path, main
from mfminmax.model import InfoStructure, build_augmented
from mfminmax.oracle import imfs_gap_study, point_model, saddle_check, verify_equivalence
from mfminmax.sim import DisturbancePolicy, SimConfig, evaluate_cost, simulate
from mfminmax.synthesis import compute_gains, critical_gamma, solve_riccati

from conftest import (
    random_feasible_scalar_model,
    reference_2x2_recursion,
    reference_lqr,
    reference_scalar_recursion,
)

EX1_GAMMA_STAR = 13.302962
EX2_GAMMA_STAR = 2.027319
EX1_FEASIBLE = 20.0
EX2_FEASIBLE = 4.0


def deterministic_variant(model, followers, leader):
    """The scalar ``model`` started at ``leader`` and ``followers``, noise-free."""
    return point_model(model, [leader], followers)


def gains_for(model):
    return compute_gains(model, solve_riccati(model))


def test_criterion_1_oracle_equivalence(example1, example2):
    """Stacked-oracle value/trajectory agreement within 1e-8 relative."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    cases = [example1.with_gamma(EX1_FEASIBLE), example2.with_gamma(EX2_FEASIBLE)]
    cases += [random_feasible_scalar_model(rng) for _ in range(20)]
    checked = 0
    for base in cases:
        for n in (1, 2, 3):
            leader = float(base.leader_init.mean()[0])
            followers = leader + np.linspace(-1.0, 2.0, n)
            mdl = deterministic_variant(base, followers, leader)
            ric = solve_riccati(mdl)
            assert ric.feasible
            rep = verify_equivalence(mdl, compute_gains(mdl, ric))
            assert rep.ok, (f"model gamma={mdl.gamma:g} n={n}: value gap "
                            f"{rep.value_gap:g}, gain gap {rep.max_gain_discrepancy:g}")
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    print(f"\nACCEPTANCE 1 (oracle equivalence): PASS -- {checked} instances "
          f"(examples at gamma {EX1_FEASIBLE:g}/{EX2_FEASIBLE:g} + 20 random), "
          f"tol 1e-8 relative, {elapsed:.1f}s")


def test_criterion_2_saddle_property(example2):
    """50-direction perturbation test, steps 1e-3/1e-2, +/-1e-9 thresholds.

    The stated gamma=1 admits no saddle point on this data (critical
    gamma ~2.0273), so the check runs at the feasible gamma=4.
    """
    t0 = time.time()
    mdl = deterministic_variant(example2.with_gamma(EX2_FEASIBLE), [2.0, 6.0], 10.0)
    gains = gains_for(mdl)
    rep = saddle_check(mdl, gains, num_directions=50, seed=7)
    assert rep.control_min_delta >= -1e-9, rep.control_min_delta
    assert rep.disturbance_max_delta <= 1e-9, rep.disturbance_max_delta
    corrupted = replace(gains, L_brev=-gains.L_brev)
    bad = saddle_check(mdl, corrupted, num_directions=50, seed=7)
    assert bad.control_min_delta < -1e-6, "sign-flipped gain went undetected"
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    print(f"\nACCEPTANCE 2 (saddle property): PASS -- example 2 at gamma=4 "
          f"(stated gamma=1 is below the feasibility boundary ~2.0273), "
          f"min control delta {rep.control_min_delta:.3g} >= -1e-9, "
          f"max disturbance delta {rep.disturbance_max_delta:.3g} <= 1e-9, "
          f"negative control detected, {elapsed:.1f}s")


def test_criterion_3_lqr_limit(example1, example2):
    """gamma = 1e9 gains match the classical team solution within 1e-6."""
    worst = 0.0
    for base in (example1, example2):
        mdl = base.with_gamma(1e9)
        ric = solve_riccati(mdl)
        gains = compute_gains(mdl, ric)
        aug = build_augmented(mdl)
        _, Lref = reference_lqr(mdl.A, mdl.B, mdl.Q, mdl.R, mdl.horizon)
        _, LBref = reference_lqr(aug.A_bar, aug.B_bar, aug.Q_bar, aug.R_bar, mdl.horizon)
        for t in range(mdl.horizon):
            for got, ref in ((gains.L_brev[t], Lref[t]), (gains.L_bar[t], LBref[t])):
                scale = np.maximum(np.abs(ref), 1e-12)
                worst = max(worst, float(np.max(np.abs(got - ref) / scale)))
    assert worst <= 1e-6, f"relative gain error {worst:g}"
    print(f"\nACCEPTANCE 3 (no-disturbance limit): PASS -- both examples, "
          f"worst relative gain error {worst:.3g} <= 1e-6")


def test_criterion_4_riccati_regression(example2):
    """Example 2 at gamma=1 vs an independent plain-float re-implementation."""
    mdl = example2.with_gamma(1.0)
    ric = solve_riccati(mdl)
    Mref, Dref, cref = reference_scalar_recursion(
        a=1.0, b=1.0, q=0.01, r=0.11, gamma=1.0, T=30, n=100, noise_var=0.3)
    Abar = [[1.0, 0.0], [0.001, 1.04]]
    Qbar = [[0.0701, -0.07], [-0.07, 0.081]]
    MBref, DBref, cBref = reference_2x2_recursion(
        Abar, (0.0, 1.0), Qbar, (1e-4, 1.11), 1.0, T=30, n=100, noise_var=0.3)
    worst = 0.0
    for t in range(31):
        worst = max(worst, abs(ric.M_brev[t][0, 0] - Mref[t]),
                    float(np.max(np.abs(ric.M_bar[t] - np.asarray(MBref[t])))),
                    abs(ric.c_brev[t] - cref[t]), abs(ric.c_bar[t] - cBref[t]))
    for t in range(30):
        worst = max(worst, abs(ric.Delta_brev[t][0, 0] - Dref[t]),
                    float(np.max(np.abs(ric.Delta_bar[t] - np.asarray(DBref[t])))))
    assert worst <= 1e-10, f"elementwise gap {worst:g}"
    assert not ric.feasible  # gamma=1 sits below the boundary and is flagged
    print(f"\nACCEPTANCE 4 (recursion regression): PASS -- example 2 at gamma=1, "
          f"all t, elementwise gap {worst:.3g} <= 1e-10 (run flagged infeasible)")


def test_criterion_5_figure_reproduction(example1, example2):
    """Disturbance attenuation and consensus-speed trends across gamma."""
    t0 = time.time()

    def mean_series(base, gamma, amp):
        mdl = base.with_gamma(gamma)
        cfg = SimConfig(master_seed=7, num_runs=1,
                        disturbance=DisturbancePolicy.sinusoid(amp))
        return simulate(mdl, gains_for(mdl), cfg)[0].xbar[:, 0]

    # example 1: mean-field fluctuation around the gamma -> infinity run
    # shrinks as gamma grows; grid = {1.5, 2, 3, 5} x critical gamma
    # (the literal levels sit below the boundary: Q_T = 8 alone forces
    # gamma > 2.83, and the joint recursion pushes the boundary to ~13.3).
    gammas1 = [m * EX1_GAMMA_STAR for m in (1.5, 2.0, 3.0, 5.0)]
    baseline = mean_series(example1, 1e9, 0.6)
    rms = [float(np.sqrt(np.mean((mean_series(example1, g, 0.6) - baseline) ** 2)))
           for g in gammas1]
    assert all(a > b for a, b in zip(rms, rms[1:])), f"RMS not decreasing: {rms}"

    # example 2: approach to the reference slows with gamma; the largest
    # tested level still lands inside 10 +/- 0.5 by t = 30.
    gammas2 = [2.23, 2.43, 3.04]
    series = [mean_series(example2, g, 0.4) for g in gammas2]
    entry = [next((t + 1 for t, v in enumerate(s) if abs(v - 10.0) <= 0.5), 99)
             for s in series]
    assert entry[0] < entry[1] < entry[2], f"time-to-band not increasing: {entry}"
    assert abs(series[-1][-1] - 10.0) <= 0.5, f"final mean {series[-1][-1]:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 5.0 * (len(gammas1) + 1 + len(gammas2))
    print(f"\nACCEPTANCE 5 (figure trends): PASS -- example 1 RMS "
          f"{[round(v, 4) for v in rms]} strictly decreasing over gamma "
          f"{[round(g, 2) for g in gammas1]} (multiples {{1.5,2,3,5}} of the "
          f"critical gamma; literal {{1.5,2,3,5}} are infeasible); example 2 "
          f"time-to-band {entry} increasing over {gammas2}, final mean "
          f"{series[-1][-1]:.3f} in 10+/-0.5, {elapsed:.1f}s")


def test_criterion_6_imfs_coincidence_and_rate(example2):
    """Full observation reproduces full sharing bitwise; gap*n stays in a
    factor-3 band for n = 10/50/250 under 500 common-random-number runs."""
    t0 = time.time()
    mdl = replace(example2.with_gamma(EX2_FEASIBLE), n_followers=8)
    gains = gains_for(mdl)
    cfg_a = SimConfig(master_seed=17, num_runs=2,
                      disturbance=DisturbancePolicy.worst_case(),
                      info=InfoStructure.mfs())
    cfg_b = SimConfig(master_seed=17, num_runs=2,
                      disturbance=DisturbancePolicy.worst_case(),
                      info=InfoStructure.imfs(range(1, mdl.horizon + 1)))
    for ra, rb in zip(simulate(mdl, gains, cfg_a), simulate(mdl, gains, cfg_b)):
        assert np.array_equal(ra.xbar, rb.xbar)
        assert np.array_equal(ra.mhat, rb.mhat)
        assert np.array_equal(ra.stage_costs, rb.stage_costs)
        assert ra.total_cost == rb.total_cost

    base = example2.with_gamma(EX2_FEASIBLE)
    rows = imfs_gap_study(base, gains_for(base), [10, 50, 250], seed=123, runs=500,
                          disturbance=DisturbancePolicy.worst_case())
    products = [row["gap_times_n"] for row in rows]
    band = max(products) / min(products)
    assert band <= 3.0, f"gap*n band factor {band:.2f} exceeds 3: {products}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nACCEPTANCE 6 (intermittent sharing): PASS -- full observation is "
          f"bitwise identical to full sharing; gap*n = "
          f"{[round(p, 4) for p in products]} (band factor {band:.2f} <= 3), "
          f"{elapsed:.1f}s")


def test_criterion_7_feasibility_boundary(example1, example2):
    """Bisection to 1e-6 agrees with a dense grid scan within one cell."""
    for name, mdl, bracket, window in (
            ("example 1", None, (5.0, 50.0), (13.25, 13.36)),
            ("example 2", None, (0.5, 20.0), (1.98, 2.08))):
        base = example1 if name == "example 1" else example2
        gstar = critical_gamma(base, *bracket, tol=1e-6)
        step = 0.002
        grid = np.arange(window[0], window[1], step)
        flags = [solve_riccati(base.with_gamma(g)).feasible for g in grid]
        assert not flags[0] and flags[-1]
        first = next(i for i, ok in enumerate(flags) if ok)
        assert grid[first - 1] <= gstar <= grid[first] + 1e-12, (
            f"{name}: bisection {gstar:.8f} vs grid cell "
            f"[{grid[first - 1]:.4f}, {grid[first]:.4f}]")
        print(f"\nACCEPTANCE 7 (feasibility boundary, {name}): PASS -- "
              f"critical gamma {gstar:.6f}, grid cell "
              f"[{grid[first - 1]:.3f}, {grid[first]:.3f}] at step {step}")


def test_criterion_8_cli_determinism(tmp_path):
    """Byte-identical CSVs across reruns."""

    def run(out):
        code = main(["run-example", "2", "--gamma", "4.05", "--runs", "6",
                     "--seed", "11", "--out", str(out)])
        assert code == 0
        names = ("trajectories_gamma_4.05.csv", "summary.csv",
                 "riccati_gamma_4.05.csv", "report.txt")
        return {name: (out / name).read_bytes() for name in names}

    first = run(tmp_path / "first")
    again = run(tmp_path / "again")
    assert first == again, "rerun changed output bytes"
    print("\nACCEPTANCE 8 (determinism): PASS -- run-example outputs are "
          "byte-identical across reruns")
