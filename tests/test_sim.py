"""Monte Carlo simulation: determinism, dynamics, cost accounting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mfminmax import sim
from mfminmax.model import InfoStructure, InitSpec
from mfminmax.sim import (
    DisturbancePolicy,
    SimConfig,
    evaluate_cost,
    simulate,
    simulate_run,
    stage_cost,
    trajectory_csv,
)
from mfminmax.synthesis import compute_gains, optimal_value, solve_riccati

from conftest import EX2_GAMMA, make_model, vector_model, zero_weight_model


def gains_for(model):
    return compute_gains(model, solve_riccati(model))


RECORD_ARRAYS = ("x0", "xbar", "mhat", "u0", "ubar", "d0", "dbar", "stage_costs", "xi", "ui", "di")


def assert_same_record(a, b):
    """Bit for bit, nan payloads and signs of zero included."""
    assert (a.run, a.seed, a.failed, a.failed_at) == (b.run, b.seed, b.failed, b.failed_at)
    assert np.float64(a.total_cost).tobytes() == np.float64(b.total_cost).tobytes()
    for name in RECORD_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def diverging_model():
    """Followers grow tenfold per step from uniform initials in (0, 1e300).

    Most runs overflow at t = 9, some at t = 10, and a few finish.
    """
    return make_model(T=10, n=1, gamma=5.0, A0=1.0, B0=0.0, S0=0.0, A=10.0, B=0.0, S=0.0,
                      E=0.0, Q=0.0, Q0=0.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0,
                      follower_uniform=(0.0, 1e300), noise_follower=1.0)


def block_cases(example2):
    """(model, config) pairs whose runs span several blocks, or fail at different t."""
    # BLOCK_STATES // 3 followers put three runs in a block: seven runs make blocks 3, 3, 1.
    n = sim.BLOCK_STATES // 3
    return {
        "scalar": (replace(example2.with_gamma(EX2_GAMMA), n_followers=n),
                   SimConfig(master_seed=21, num_runs=7, info=InfoStructure.imfs([1, 5]),
                             disturbance=DisturbancePolicy.worst_case(use_estimate=True))),
        "vector": (vector_model(n=n),
                   SimConfig(master_seed=22, num_runs=7, retain_full_states=True,
                             info=InfoStructure.imfs([1, 4]),
                             disturbance=DisturbancePolicy.worst_case(use_estimate=True))),
        "diverging": (diverging_model(),
                      SimConfig(master_seed=0, num_runs=40, retain_full_states=True)),
    }


def retained_cost(model, rec):
    """A run's cost re-derived from its retained per-follower states."""
    return sum(stage_cost(model, t, rec.x0[t - 1], rec.u0[t - 1], rec.d0[t - 1],
                          rec.xi[t - 1], rec.ui[t - 1], rec.di[t - 1],
                          rec.xi[t - 1].mean(axis=0), rec.ui[t - 1].mean(axis=0))
               for t in range(1, model.horizon + 1))


class TestDynamics:
    def test_all_zero_stays_zero(self):
        m = zero_weight_model()
        cfg = SimConfig(master_seed=5, num_runs=2, retain_full_states=True)
        for rec in simulate(m, gains_for(m), cfg):
            assert np.all(rec.xi == 0.0)
            assert np.all(rec.x0 == 0.0)
            assert np.all(rec.stage_costs == 0.0)
            assert rec.total_cost == 0.0

    def test_identity_dynamics_hold_state(self):
        m = make_model(T=6, n=1, gamma=50.0, A0=1.0, B0=0.0, S0=0.0, A=1.0, B=0.0,
                       S=0.0, E=0.0, Q=0.1, Q0=0.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0,
                       leader_value=0.0, follower_values=[[1.0]])
        cfg = SimConfig(master_seed=0, num_runs=1, retain_full_states=True)
        rec = simulate(m, gains_for(m), cfg)[0]
        assert np.allclose(rec.xi[:, 0, 0], 1.0)

    def test_overflow_is_recorded_not_raised(self):
        m = make_model(T=20, n=1, gamma=1.0, A0=1.0, B0=0.0, S0=0.0, A=1e20, B=0.0,
                       S=0.0, E=0.0, Q=0.0, Q0=0.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0,
                       leader_value=0.0, follower_values=[[1.0]])
        rec = simulate(m, gains_for(m), SimConfig(master_seed=0, num_runs=1))[0]
        assert rec.failed
        assert rec.failed_at is not None
        assert math.isnan(rec.total_cost)

    def test_sinusoid_identical_across_followers(self, example1):
        m = example1.with_gamma(20.0)
        m = replace(m, n_followers=5)
        cfg = SimConfig(master_seed=3, num_runs=1, retain_full_states=True,
                        disturbance=DisturbancePolicy.sinusoid(0.6))
        rec = simulate(m, gains_for(m), cfg)[0]
        for t in range(1, m.horizon + 1):
            assert np.ptp(rec.di[t - 1]) == 0.0
            assert rec.di[t - 1, 0, 0] == pytest.approx(0.6 * math.sin(t))
        assert np.all(rec.d0 == 0.0)


class TestDeterminism:
    def test_bitwise_reproducible(self, example2):
        m = replace(example2, n_followers=7)
        g = gains_for(m)
        cfg = SimConfig(master_seed=11, num_runs=3, retain_full_states=True,
                        disturbance=DisturbancePolicy.sinusoid(0.4))
        a = simulate(m, g, cfg)
        b = simulate(m, g, cfg)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.xi, rb.xi)
            assert np.array_equal(ra.stage_costs, rb.stage_costs)

    @pytest.mark.parametrize("case", ["scalar", "vector", "diverging"])
    def test_runs_independent_of_execution_order(self, example2, case):
        # A run alone (a block of one) against the same run among the others.
        m, cfg = block_cases(example2)[case]
        g = gains_for(m)
        ordered = simulate(m, g, cfg)
        assert [rec.run for rec in ordered] == list(range(cfg.num_runs))
        for run in range(cfg.num_runs):
            assert_same_record(simulate_run(m, g, cfg, run), ordered[run])
        if case == "diverging":
            assert {rec.failed_at for rec in ordered} == {9, 10, None}
            for rec in ordered:
                assert rec.failed == (rec.failed_at is not None)
                assert math.isnan(rec.total_cost) == rec.failed
                # a failed run's rows after failed_at read nan, not a return to zero
                for name in RECORD_ARRAYS:
                    arr = getattr(rec, name)
                    assert np.isnan(arr[rec.failed_at or m.horizon:]).all(), name
                    assert np.isfinite(arr[:rec.failed_at or m.horizon]).all(), name

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_batched_quadratic_matches_einsum_per_run(self, dim):
        # The per-run stage cost summed x_i' W x_i with einsum, whose order
        # depends on the batch shape; the batched sum keeps each run's order.
        gen = np.random.default_rng(dim)
        root = gen.normal(size=(dim, dim))
        W = root @ root.T
        for n in (1, 2, 3, 5, 40):
            X = gen.normal(size=(6, n, dim))
            expected = [float(np.einsum("ij,jk,ik->i", x, W, x).mean()) for x in X]
            assert sim._quad_mean(X, W).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("lx", [1, 2, 3])
    def test_noise_colouring_matches_multivariate_normal(self, lx):
        # The engine draws standard normals from each substream and colours
        # them itself; numpy's multivariate_normal must give the same bits.
        gen = np.random.default_rng(lx)
        root = gen.normal(size=(lx, lx))
        for cov in (root @ root.T, np.zeros((lx, lx)), np.eye(lx) * 1e-3):
            factor = sim._colouring(cov)
            for size in (None, 7, 250):
                expected = sim._rng(3, lx, 1).multivariate_normal(np.zeros(lx), cov, size=size)
                z = sim._rng(3, lx, 1).standard_normal((1 if size is None else size, lx))
                got = (z[None] @ factor)[0] + np.zeros(lx)
                if size is None:
                    got = got[0]
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    def test_csv_bytes_stable(self, example2):
        m = replace(example2, n_followers=3)
        g = gains_for(m)
        cfg = SimConfig(master_seed=8, num_runs=2, retain_full_states=True)
        csv_a = trajectory_csv(simulate(m, g, cfg), 1, 1)
        csv_b = trajectory_csv(simulate(m, g, cfg), 1, 1)
        assert csv_a == csv_b


class TestAggregation:
    def test_stored_mean_matches_recomputed(self, example1):
        m = example1.with_gamma(20.0)
        cfg = SimConfig(master_seed=7, num_runs=1, retain_full_states=True,
                        disturbance=DisturbancePolicy.sinusoid(0.6))
        rec = simulate(m, gains_for(m), cfg)[0]
        for t in range(m.horizon):
            recomputed = rec.xi[t].mean(axis=0)
            assert np.max(np.abs(recomputed - rec.xbar[t])) <= 1e-12 * max(
                1.0, float(np.max(np.abs(rec.xi[t]))))

    def test_online_and_recomputed_costs_agree(self, example2):
        m = replace(example2, n_followers=6)
        g = gains_for(m)
        cfg = SimConfig(master_seed=9, num_runs=3, retain_full_states=True,
                        disturbance=DisturbancePolicy.sinusoid(0.4))
        for rec in simulate(m, g, cfg):
            assert retained_cost(m, rec) == pytest.approx(rec.total_cost, rel=1e-12)


class TestCostFormula:
    def test_single_step_hand_value(self):
        # One step, scalar, unit weights except Q0=0, leader at rest with
        # zero action and disturbance: cost pieces 4 + 1 - 1 + 4 + 4 + 1 = 13.
        m = make_model(T=1, n=1, gamma=1.0, A0=1.0, B0=1.0, S0=0.0, A=1.0, B=1.0,
                       S=0.0, E=0.0, Q=1.0, Q0=0.0, F=1.0, P=1.0, R=1.0, R0=1.0, H=1.0)
        zero = np.array([0.0])
        cost = stage_cost(m, 1, zero, zero, zero, np.array([[2.0]]), np.array([[1.0]]),
                          np.array([[1.0]]), np.array([2.0]), np.array([1.0]))
        assert cost == pytest.approx(13.0)

    def test_gamma_only_scales_disturbance_terms(self, example2):
        m = replace(example2, n_followers=4)
        g = gains_for(m)
        cfg = SimConfig(master_seed=13, num_runs=2, retain_full_states=True,
                        disturbance=DisturbancePolicy.zero())
        for rec in simulate(m, g, cfg):
            doubled = retained_cost(m.with_gamma(2 * m.gamma), rec)
            assert retained_cost(m, rec) == pytest.approx(doubled, rel=1e-12)

    def test_failed_runs_excluded_from_mean(self):
        m = zero_weight_model()
        rec_ok = simulate_run(m, gains_for(m), SimConfig(master_seed=2), 0)
        rec_bad = simulate_run(m, gains_for(m), SimConfig(master_seed=2), 1)
        rec_bad.total_cost = float("nan")
        rec_bad.failed = True
        summary = evaluate_cost(m, [rec_ok, rec_bad])
        assert summary.failed_runs == 1
        assert summary.mean == rec_ok.total_cost

    def test_no_successful_runs_is_an_error(self):
        m = zero_weight_model()
        rec = simulate_run(m, gains_for(m), SimConfig(master_seed=2), 0)
        rec.total_cost = float("nan")
        with pytest.raises(ValueError, match="no successful"):
            evaluate_cost(m, [rec])


class TestAgainstOptimalValue:
    def test_deterministic_worst_case_run_hits_value(self, example2):
        m = replace(example2.with_gamma(EX2_GAMMA), n_followers=3,
                    follower_init=InitSpec(kind="deterministic", dim=1,
                                           values=np.array([[2.0], [4.0], [6.0]])),
                    noise_leader=np.zeros((30, 1, 1)),
                    noise_follower=np.zeros((30, 1, 1)))
        ric = solve_riccati(m)
        g = compute_gains(m, ric)
        cfg = SimConfig(master_seed=0, num_runs=1,
                        disturbance=DisturbancePolicy.worst_case())
        cost = evaluate_cost(m, simulate(m, g, cfg))
        assert cost.mean == pytest.approx(optimal_value(m, ric), rel=1e-8)

    def test_monte_carlo_mean_near_value(self, example2):
        m = replace(example2.with_gamma(EX2_GAMMA), n_followers=10)
        ric = solve_riccati(m)
        g = compute_gains(m, ric)
        cfg = SimConfig(master_seed=31, num_runs=500,
                        disturbance=DisturbancePolicy.worst_case())
        cost = evaluate_cost(m, simulate(m, g, cfg))
        target = optimal_value(m, ric)
        assert abs(cost.mean - target) <= 4.0 * cost.stderr


class TestGoldenTrajectory:
    def test_example1_regression(self, example1):
        # Frozen once from a fixed-seed run; guards the whole pipeline
        # (sampling, policy, disturbance, dynamics, CSV formatting).
        from pathlib import Path
        m = example1.with_gamma(20.0)
        cfg = SimConfig(master_seed=7, num_runs=1, retain_full_states=True,
                        disturbance=DisturbancePolicy.sinusoid(0.6))
        text = trajectory_csv(simulate(m, gains_for(m), cfg), 1, 1)
        golden = Path(__file__).parent / "data" / "golden_example1_gamma20_seed7.csv"
        assert text == golden.read_text(encoding="utf-8")

    def test_vector_regression(self):
        # Frozen from the per-run engine: two states, two actions, full
        # non-symmetric blocks, intermittent sharing and worst-case feedback
        # on m_hat, so every batched product and mean of the engine shows.
        from pathlib import Path
        m = vector_model()
        cfg = SimConfig(master_seed=5, num_runs=3, retain_full_states=True,
                        disturbance=DisturbancePolicy.worst_case(use_estimate=True),
                        info=InfoStructure.imfs([1, 4]))
        text = trajectory_csv(simulate(m, gains_for(m), cfg), 2, 2)
        golden = Path(__file__).parent / "data" / "golden_vector_imfs_worstcase_seed5.csv"
        assert text == golden.read_text(encoding="utf-8")

    def test_example1_qualitative_shape(self, example1):
        m = example1.with_gamma(20.0)
        cfg = SimConfig(master_seed=7, num_runs=1, retain_full_states=True,
                        disturbance=DisturbancePolicy.sinusoid(0.6))
        rec = simulate(m, gains_for(m), cfg)[0]
        assert rec.x0[0, 0] == pytest.approx(30.0)
        assert 0.0 <= rec.xi[0].min() and rec.xi[0].max() <= 20.0
        # sinusoidal ripple: the mean-field is not monotone
        diffs = np.diff(rec.xbar[:, 0])
        assert (diffs > 0).any() and (diffs < 0).any()


class TestTrajectoryCsv:
    def test_layout_and_series(self, example2):
        m = replace(example2, n_followers=2)
        cfg = SimConfig(master_seed=1, num_runs=1, retain_full_states=True)
        text = trajectory_csv(simulate(m, gains_for(m), cfg), 1, 1)
        lines = text.strip().split("\n")
        assert lines[0] == "run,t,series,agent,value"
        rows = [line.split(",") for line in lines[1:]]
        series = {r[2] for r in rows}
        assert series == {"x0", "xbar", "mhat", "u0", "ubar", "cost_stage", "xi"}
        agents = {r[3] for r in rows if r[2] == "xi"}
        assert agents == {"1", "2"}
        # row count: 6 aggregate series + 2 follower series per t
        assert len(rows) == m.horizon * (6 + 2)
