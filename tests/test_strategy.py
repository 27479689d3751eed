"""Policies, worst-case disturbances, and the mean-field estimator."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfminmax.model import InfoStructure, InitSpec
from mfminmax.sim import DisturbancePolicy, SimConfig, simulate, stage_cost
from mfminmax.strategy import (
    estimator_step,
    follower_action,
    follower_disturbance,
    leader_action,
    matvec,
    rmatmul,
    worst_case_disturbance,
)
from mfminmax.synthesis import StrategyGains, compute_gains, solve_riccati

from conftest import EX1_GAMMA, EX2_GAMMA, make_model, zero_weight_model

# Frozen from the standalone prototype (see test_synthesis for the gains).
EX1_G20_U0 = -2.2401422412233143       # x0=30, mean 10, t=1
EX1_G20_UI = 2.425536452394703         # xi=5, x0=30, mean 10, t=1
EX2_G4_D0 = 0.29475798831671435        # x0=10, mean 4, t=1
EX2_G4_DBAR = -0.07750717561105139
EX2_G4_DI = -0.07571627921757415       # deviation 1 on top of the mean part
EX2_G4_MHAT2_WC = 5.209713373737436    # m1=4, x0=10, worst-case dbar
EX2_G4_MHAT2_NOM = 5.287220549348488   # nominal dbar = 0


def gains_for(model):
    return compute_gains(model, solve_riccati(model))


SPECIAL_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e308]


class MatmulSpy(np.ndarray):
    """An array that records each ``@`` it takes part in."""

    calls = []

    def __matmul__(self, other):
        MatmulSpy.calls.append(other.shape)
        return super().__matmul__(other)


class TestRmatmul:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 10_000])
    def test_scalar_gain_equals_matmul_bitwise(self, n):
        # Populations holding +-0.0, nan, +-inf, a subnormal and a near-overflow
        # value, against gains of both zero signs, infinities and nan.
        rng = np.random.default_rng(n)
        values = np.concatenate([SPECIAL_VALUES, rng.normal(size=8)])
        for k in [0.0, -0.0, 1.5, -2.0, 5e-324, 1e308, np.inf, -np.inf, np.nan]:
            K = np.array([[k]])
            # a nan gain times a nan entry may keep either nan (rmatmul's docstring)
            pool = values[~np.isnan(values)] if np.isnan(k) else values
            for shape in [(n, 1), (3, n, 1)]:
                X = rng.choice(pool, size=shape)
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = X @ K.T
                    got = rmatmul(X, K)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (k, shape)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 1), (1, 2), (3, 2)])
    def test_other_gains_take_matmul(self, shape):
        rng = np.random.default_rng(sum(shape))
        K = rng.normal(size=shape)
        X = rng.normal(size=(4, 9, shape[1])).view(MatmulSpy)
        MatmulSpy.calls.clear()
        got = rmatmul(X, K)
        assert MatmulSpy.calls == [(shape[1], shape[0])]
        assert np.asarray(got).tobytes() == (np.asarray(X) @ K.T).tobytes()
        MatmulSpy.calls.clear()
        rmatmul(X[..., :1], np.array([[2.0]]))
        assert MatmulSpy.calls == []


class TestMatvec:
    def test_scalar_gain_equals_matmul_bitwise_and_never_minus_zero(self):
        # A 1x1 gain scales elementwise; its results are added to sums without
        # a 0.0 pass of their own, so they must never be -0.0.
        values = np.array(SPECIAL_VALUES + [1.5, -2.0, 1e-310])
        for k in [0.0, -0.0, 1.5, -2.0, 5e-324, 1e308, np.inf, -np.inf, np.nan]:
            K = np.array([[k]])
            # a nan gain times a nan entry may keep either nan (rmatmul's docstring)
            pool = values[~np.isnan(values)] if np.isnan(k) else values
            for V in (pool[:, None], pool[None, :, None].repeat(3, axis=0), pool[:1]):
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = np.matmul(K, V[..., None])[..., 0]
                    got = matvec(K, V)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (k, V.shape)
                assert not np.signbit(got[got == 0.0]).any(), k


# Finite values whose products and sums show every way bits can part: both
# zero signs, subnormals, values whose products overflow, and plain ones.
FINITE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.7e308, 1.0, -2.5, 0.1, 3.0]


@st.composite
def out_cases(draw):
    """Gains of lx, lu in {1, 2, 3}; a population (n, lx) or (R, n, lx) with its x0 and mean."""
    lx, lu, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    runs = draw(st.sampled_from([(), (1,), (3,)]))

    def block(*shape):
        return draw(arrays(np.float64, shape, elements=st.sampled_from(FINITE_VALUES)))

    gains = StrategyGains(L_brev=block(1, lu, lx), L_bar=block(1, 2 * lu, 2 * lx),
                          K_brev=block(1, lx, lx), K_bar=block(1, 2 * lx, 2 * lx))
    return gains, block(*runs, n, lx), block(*runs, lx), block(*runs, lx)


class TestOutForms:
    """Each ``out=`` form writes the bits of its allocating form, and returns ``out``."""

    @settings(max_examples=60)
    @given(out_cases())
    def test_rmatmul_into_out_equals_matmul(self, case):
        gains, X, _, _ = case
        for K in (gains.L_brev[0], gains.K_brev[0]):
            out, own = np.full(X.shape[:-1] + K.shape[:1], np.nan), X.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                expected = X @ K.T
                got = rmatmul(X, K, out=out)
                if K.shape[0] == X.shape[-1]:  # out may be X itself
                    assert rmatmul(own, K, out=own).tobytes() == expected.tobytes()
            assert got is out and got.tobytes() == expected.tobytes()

    @settings(max_examples=60)
    @given(out_cases())
    def test_feedback_maps_into_out_equal_allocating_forms(self, case):
        gains, xf, x0, mean = case
        disturbances = np.full(xf.shape, np.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            dbar = worst_case_disturbance(gains, 1, x0, mean)[1]
            expected_d = follower_disturbance(gains, 1, xf, mean, dbar)
            got_d = follower_disturbance(gains, 1, xf, mean, dbar, out=disturbances)
        assert got_d is disturbances and got_d.tobytes() == expected_d.tobytes()


class TestActions:
    def test_zero_gains_zero_actions(self):
        m = zero_weight_model()
        g, m_hat = gains_for(m), np.array([1.5])
        assert leader_action(g, 1, np.array([2.0]), m_hat) == pytest.approx([0.0])
        ui = follower_action(g, 1, np.array([[3.0]]), np.array([2.0]), m_hat)
        assert ui[0] == pytest.approx([0.0])

    def test_example2_leader_inactive(self, example2):
        g = gains_for(example2)
        for t in (1, 10, 30):
            assert leader_action(g, t, np.array([123.0]), np.array([4.0])) == pytest.approx([0.0])

    def test_follower_at_mean_loses_deviation_term(self, example1):
        m = example1.with_gamma(EX1_GAMMA)
        g, m_hat, x0 = gains_for(m), np.array([10.0]), np.array([30.0])
        at_mean = follower_action(g, 1, np.array([[10.0]]), x0, m_hat)[0]
        expected = g.l21(1) @ x0 + g.l22(1) @ m_hat
        assert at_mean == pytest.approx(expected)

    def test_example1_frozen_actions(self, example1):
        m = example1.with_gamma(EX1_GAMMA)
        g, m_hat, x0 = gains_for(m), np.array([10.0]), np.array([30.0])
        u0 = leader_action(g, 1, x0, m_hat)
        ui = follower_action(g, 1, np.array([[5.0]]), x0, m_hat)[0]
        assert u0[0] == pytest.approx(EX1_G20_U0, rel=1e-12)
        assert ui[0] == pytest.approx(EX1_G20_UI, rel=1e-12)

    def test_batched_follower_actions_match_loop(self, example1):
        m = example1.with_gamma(EX1_GAMMA)
        g, m_hat, x0 = gains_for(m), np.array([10.0]), np.array([30.0])
        batch = np.array([[5.0], [10.0], [-2.0]])
        vec = follower_action(g, 1, batch, x0, m_hat)
        for i in range(3):
            assert np.array_equal(vec[i:i + 1], follower_action(g, 1, batch[i:i + 1], x0, m_hat))


class TestWorstCaseDisturbance:
    def test_zero_states_zero_disturbance(self, example2):
        g, zero = gains_for(example2), np.zeros(1)
        d0, dbar = worst_case_disturbance(g, 1, zero, zero)
        assert d0 == pytest.approx([0.0]) and dbar == pytest.approx([0.0])
        di = follower_disturbance(g, 1, np.zeros((1, 1)), zero, dbar)
        assert di[0] == pytest.approx([0.0])

    def test_huge_gamma_kills_disturbance(self, example2):
        g, m_hat = gains_for(example2.with_gamma(1e9)), np.array([4.0])
        x0 = np.array([10.0])
        d0, dbar = worst_case_disturbance(g, 1, x0, m_hat)
        di = follower_disturbance(g, 1, np.array([[9.0]]), m_hat, dbar)
        scale = 10.0
        assert np.abs(d0).max() <= 1e-6 * scale
        assert np.abs(dbar).max() <= 1e-6 * scale
        assert np.abs(di).max() <= 1e-6 * scale

    def test_example2_frozen_values(self, example2):
        m = example2.with_gamma(EX2_GAMMA)
        g, m_hat, x0 = gains_for(m), np.array([4.0]), np.array([10.0])
        d0, dbar = worst_case_disturbance(g, 1, x0, m_hat)
        assert d0[0] == pytest.approx(EX2_G4_D0, rel=1e-12)
        assert dbar[0] == pytest.approx(EX2_G4_DBAR, rel=1e-12)
        xi = np.array([[5.0]])  # deviation +1
        di = follower_disturbance(g, 1, xi, m_hat, dbar)
        assert di[0, 0] == pytest.approx(EX2_G4_DI, rel=1e-12)

    @pytest.mark.parametrize("use_estimate", [False, True])
    def test_simulation_applies_this_feedback_bitwise(self, example2, use_estimate):
        # Intermittent sharing keeps m_hat apart from the true mean, so the
        # check also pins which of the two the simulation feeds back on.
        m = replace(example2.with_gamma(EX2_GAMMA), n_followers=5)
        gains = compute_gains(m, solve_riccati(m))
        cfg = SimConfig(master_seed=17, num_runs=2, retain_full_states=True,
                        disturbance=DisturbancePolicy.worst_case(use_estimate=use_estimate),
                        info=InfoStructure.imfs([1, 10, 20]))
        # The stage cost weighs both disturbances by -gamma^2, so its bits pin the ones applied.
        for rec in simulate(m, gains, cfg):
            means = rec.mhat if use_estimate else rec.xbar
            assert not np.array_equal(rec.mhat, rec.xbar)
            for t in range(1, m.horizon + 1):
                x0, xi = rec.x0[t - 1], rec.xi[t - 1]
                ui = follower_action(gains, t, xi, x0, rec.mhat[t - 1])
                d0, dbar = worst_case_disturbance(gains, t, x0, means[t - 1])
                di = follower_disturbance(gains, t, xi, means[t - 1], dbar)
                cost = stage_cost(m, t, x0, rec.u0[t - 1], d0, xi, ui, di, rec.xbar[t - 1],
                                  rec.ubar[t - 1])
                assert cost.tobytes() == rec.stage_costs[t - 1].tobytes(), t


class TestEstimator:
    def test_identity_propagation_with_zero_gains(self):
        m = make_model(T=4, n=2, gamma=3.0, A0=1.0, B0=0.0, S0=0.0, A=1.0, B=1.0,
                       S=0.0, E=0.0, Q=0.0, Q0=0.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0,
                       follower_values=[[2.0], [2.0]])
        m1 = m.follower_init.mean()
        out = estimator_step(m, gains_for(m), 1, np.array([5.0]), m1)
        assert out == pytest.approx(m1)

    def test_example2_frozen_step(self, example2):
        m = example2.with_gamma(EX2_GAMMA)
        g, x0 = gains_for(m), np.array([10.0])
        m_hat = m.follower_init.mean()
        assert m_hat == pytest.approx([4.0])  # mean of U[0, 8]
        out = estimator_step(m, g, 1, x0, m_hat)
        assert out[0] == pytest.approx(EX2_G4_MHAT2_WC, rel=1e-12)
        out = estimator_step(m, g, 1, x0, m_hat, worst_case_dbar=False)
        assert out[0] == pytest.approx(EX2_G4_MHAT2_NOM, rel=1e-12)
        assert m_hat == pytest.approx([4.0])


class TestInformationStructureInvariants:
    def test_full_observation_reproduces_mfs_bitwise(self, example2):
        m = example2.with_gamma(EX2_GAMMA)
        m = replace(m, n_followers=8)
        gains = compute_gains(m, solve_riccati(m))
        base = SimConfig(master_seed=99, num_runs=3,
                         disturbance=DisturbancePolicy.sinusoid(0.4),
                         info=InfoStructure.mfs())
        full = SimConfig(master_seed=99, num_runs=3,
                         disturbance=DisturbancePolicy.sinusoid(0.4),
                         info=InfoStructure.imfs(range(1, m.horizon + 1)))
        recs_a = simulate(m, gains, base)
        recs_b = simulate(m, gains, full)
        for ra, rb in zip(recs_a, recs_b):
            assert np.array_equal(ra.xbar, rb.xbar)
            assert np.array_equal(ra.mhat, rb.mhat)
            assert np.array_equal(ra.u0, rb.u0)
            assert np.array_equal(ra.stage_costs, rb.stage_costs)

    def test_estimator_tracks_mean_exactly_without_noise(self, example2):
        # Identical initial states, no noise, common worst-case mean
        # disturbance computed from m_hat: the estimate equals the true
        # mean at every t even with no observations.
        m = replace(example2.with_gamma(EX2_GAMMA), n_followers=4,
                    follower_init=InitSpec(kind="deterministic", values=np.full((4, 1), 3.0)),
                    noise_leader=np.zeros((30, 1, 1)),
                    noise_follower=np.zeros((30, 1, 1)))
        gains = compute_gains(m, solve_riccati(m))
        cfg = SimConfig(master_seed=1, num_runs=1,
                        disturbance=DisturbancePolicy.worst_case(use_estimate=True),
                        info=InfoStructure())
        rec = simulate(m, gains, cfg)[0]
        assert np.max(np.abs(rec.mhat - rec.xbar)) <= 1e-10

    def test_nominal_estimator_switch_reaches_simulation(self, example2):
        # No disturbance acts, so only the nominal estimator (zero dbar)
        # tracks the true mean; the worst-case one drifts off it.
        m = replace(example2.with_gamma(EX2_GAMMA), n_followers=4,
                    follower_init=InitSpec(kind="deterministic", values=np.full((4, 1), 3.0)),
                    noise_leader=np.zeros((30, 1, 1)),
                    noise_follower=np.zeros((30, 1, 1)))
        gains = compute_gains(m, solve_riccati(m))

        def tracking_error(worst_case_dbar):
            cfg = SimConfig(master_seed=1, num_runs=1, info=InfoStructure(),
                            use_worst_case_dbar=worst_case_dbar)
            rec = simulate(m, gains, cfg)[0]
            return np.max(np.abs(rec.mhat - rec.xbar))

        assert tracking_error(False) <= 1e-10
        assert tracking_error(True) > 1e-2

    def test_estimator_error_shrinks_like_one_over_n(self, example2):
        m = example2.with_gamma(EX2_GAMMA)
        gains = compute_gains(m, solve_riccati(m))
        t_probe, runs = 15, 150

        def mse(n):
            mdl = replace(m, n_followers=n)
            cfg = SimConfig(master_seed=1234, num_runs=runs,
                            disturbance=DisturbancePolicy.worst_case(),
                            info=InfoStructure())
            recs = simulate(mdl, gains, cfg)
            errs = [float(np.sum((r.mhat[t_probe - 1] - r.xbar[t_probe - 1]) ** 2))
                    for r in recs]
            return float(np.mean(errs))

        ratio = mse(20) / mse(80)
        assert 2.0 <= ratio <= 6.0
