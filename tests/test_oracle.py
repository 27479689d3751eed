"""Stacked-state verification oracle and saddle perturbation checks."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mfminmax.model import InfoStructure, InitSpec
from mfminmax.oracle import (
    MAX_ORACLE_FOLLOWERS,
    build_stacked,
    decomposed_joint_gains,
    gap_table_csv,
    imfs_gap_study,
    rollout_joint,
    saddle_check,
    saddle_report_csv,
    stacked_saddle_solve,
    verify_equivalence,
)
from mfminmax.sim import DisturbancePolicy
from mfminmax.synthesis import StrategyGains, compute_gains, optimal_value, solve_riccati

from conftest import (
    EX2_GAMMA,
    make_model,
    random_feasible_scalar_model,
    reference_scalar_recursion,
    zero_weight_model,
)
from conftest import vector_model as vector_model_2x2


def example2_n(example2, n, followers, gamma=EX2_GAMMA):
    return replace(
        example2.with_gamma(gamma), n_followers=n,
        follower_init=InitSpec(kind="deterministic", dim=1,
                               values=np.asarray(followers, dtype=float).reshape(n, 1)),
        noise_leader=np.zeros((30, 1, 1)), noise_follower=np.zeros((30, 1, 1)))


def vector_model():
    """lx=2, lu=1 with full non-symmetric blocks, so that a block written
    transposed, or with agent and component axes swapped, changes the joint
    matrices (with lx=1 it would not)."""
    return make_model(
        T=3, n=3, gamma=5.0,
        A0=[[0.9, 0.2], [-0.1, 0.8]], B0=[0.3, -0.2], S0=[[0.05, -0.02], [0.01, 0.04]],
        A=[[0.8, 0.1], [-0.2, 0.7]], B=[0.5, 0.25], S=[[0.1, 0.03], [-0.04, 0.06]],
        E=[[0.02, -0.01], [0.03, 0.01]], Q=[[1.0, 0.2], [0.2, 0.5]],
        Q0=[[0.7, -0.1], [-0.1, 0.3]], F=[[0.6, 0.15], [0.15, 0.4]],
        P=[[0.2, -0.05], [-0.05, 0.1]], R=1.2, R0=0.9, H=0.3, lx=2, lu=1)


def split(V, n, dim):
    """Stacked [leader; followers] vector -> (leader part, (n, dim) followers)."""
    return V[:dim], V[dim:].reshape(n, dim)


class TestStackedAssembly:
    def test_dimension_guard(self, example2):
        with pytest.raises(ValueError, match="capped"):
            build_stacked(example2, MAX_ORACLE_FOLLOWERS + 1)

    @pytest.mark.parametrize("which, n", [("example2", 3), ("example2", 16),
                                          ("vector", 3), ("vector", 16)])
    def test_joint_cost_matches_raw_sum(self, request, which, n):
        # X' QQ X + U' RR U must equal the literal per-agent cost expansion.
        m = vector_model() if which == "vector" else request.getfixturevalue(which)
        lx, lu = m.state_dim, m.action_dim
        prob = build_stacked(m, n)
        rng = np.random.default_rng(0)
        for _ in range(5):
            X, U = rng.standard_normal((n + 1) * lx), rng.standard_normal((n + 1) * lu)
            (x0, xf), (u0, uf) = split(X, n, lx), split(U, n, lu)
            xbar, ubar = xf.mean(axis=0), uf.mean(axis=0)
            direct = (
                float(np.einsum("ij,jk,ik->i", xf, m.Q[0], xf).mean())
                + float(np.einsum("ij,jk,ik->i", uf, m.R[0], uf).mean())
                + float(x0 @ m.Q0[0] @ x0) + float(u0 @ m.R0[0] @ u0)
                + float((xbar - x0) @ m.F[0] @ (xbar - x0))
                + float(xbar @ m.P[0] @ xbar) + float(ubar @ m.H[0] @ ubar)
            )
            joint = float(X @ prob.QQ[0] @ X) + float(U @ prob.RR[0] @ U)
            assert joint == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("which, n", [("example1", 3), ("example1", 16),
                                          ("vector", 3), ("vector", 16)])
    def test_joint_dynamics_match_raw_step(self, request, which, n):
        m = vector_model() if which == "vector" else request.getfixturevalue(which)
        lx, lu = m.state_dim, m.action_dim
        prob = build_stacked(m, n)
        rng = np.random.default_rng(1)
        X, U = rng.standard_normal((n + 1) * lx), rng.standard_normal((n + 1) * lu)
        (x0, xf), (u0, uf) = split(X, n, lx), split(U, n, lu)
        xbar = xf.mean(axis=0)
        nxt = prob.AA[0] @ X + prob.BB[0] @ U
        lead = m.A0[0] @ x0 + m.B0[0] @ u0 + m.S0[0] @ xbar
        fol = xf @ m.A[0].T + uf @ m.B[0].T + m.S[0] @ xbar + m.E[0] @ x0
        assert nxt[:lx] == pytest.approx(lead, rel=1e-12)
        assert nxt[lx:] == pytest.approx(fol.ravel(), rel=1e-12)


class TestDecoupling:
    def test_uncoupled_single_follower_splits_into_two_problems(self):
        m = make_model(T=6, n=1, gamma=4.0, A0=0.9, B0=0.5, S0=0.0, A=0.8, B=0.6,
                       S=0.0, E=0.0, Q=1.0, Q0=0.7, F=0.0, P=0.0, R=1.2, R0=0.9, H=0.0,
                       leader_value=2.0, follower_values=[[(-1.5)]])
        sol = stacked_saddle_solve(m, 1)
        assert sol.feasible
        Ml, _, _ = reference_scalar_recursion(0.9, 0.5, 0.7, 0.9, 4.0, 6)
        Mf, _, _ = reference_scalar_recursion(0.8, 0.6, 1.0, 1.2, 4.0, 6)
        expected = Ml[0] * 2.0 ** 2 + Mf[0] * (-1.5) ** 2
        assert sol.value(np.array([2.0]), np.array([[-1.5]])) == pytest.approx(expected, rel=1e-10)


class TestEquivalence:
    @pytest.mark.parametrize("n", [2, 8, MAX_ORACLE_FOLLOWERS])
    def test_example2_value_and_trajectories(self, example2, n):
        followers = np.linspace(2.0, 6.0, n)
        m = example2_n(example2, n, followers)
        gains = compute_gains(m, solve_riccati(m))
        value = optimal_value(m, solve_riccati(m))
        rep = verify_equivalence(m, gains, n, np.array([10.0]),
                                 followers.reshape(n, 1), value)
        assert rep.ok
        assert rep.value_gap <= 1e-8 * abs(value)
        assert rep.max_gain_discrepancy <= 1e-9

    def test_randomized_scalar_models(self):
        rng = np.random.default_rng(101)
        for _ in range(6):
            m = random_feasible_scalar_model(rng)
            for n in (1, 2, 3):
                followers = rng.uniform(-2, 2, size=(n, 1))
                mdl = replace(m, n_followers=n,
                              follower_init=InitSpec(kind="deterministic", dim=1,
                                                     values=followers))
                ric = solve_riccati(mdl)
                gains = compute_gains(mdl, ric)
                value = optimal_value(mdl, ric)
                rep = verify_equivalence(mdl, gains, n, mdl.leader_init.mean(),
                                         followers, value)
                assert rep.ok, f"n={n}: gap {rep.value_gap}, gains {rep.max_gain_discrepancy}"

    def test_infeasible_gamma_agrees_with_recursion(self, example2):
        # Below the boundary both sides must report failure (n >= 2).
        sol = stacked_saddle_solve(example2.with_gamma(1.0), 2)
        assert not sol.feasible
        assert not solve_riccati(example2.with_gamma(1.0)).feasible

    def test_hessian_signature_iff_feasible(self):
        rng = np.random.default_rng(55)
        checked_both = 0
        for _ in range(14):
            m = random_feasible_scalar_model(rng)
            # probe a gamma below and above the known-feasible level
            for gamma in (m.gamma, m.gamma * rng.uniform(0.05, 0.5)):
                mdl = m.with_gamma(gamma)
                ric_ok = solve_riccati(mdl).feasible
                sol_ok = stacked_saddle_solve(mdl, 2).feasible
                assert ric_ok == sol_ok
                checked_both += 1
        assert checked_both >= 20


class TestTwoStepTruncationCrossCheck:
    def test_direct_quadratic_saddle_matches(self, example2):
        # Third method: identify the exact quadratic J(u, d) of the
        # 2-step problem by finite differences of a raw forward
        # simulation, solve the stationarity system, and compare values.
        T = 2
        m = example2_n(example2, 2, [2.0, 6.0])
        m = replace(m, horizon=T,
                    A0=m.A0[:T], B0=m.B0[:T], S0=m.S0[:T], A=m.A[:T], B=m.B[:T],
                    S=m.S[:T], E=m.E[:T], Q=m.Q[:T], Q0=m.Q0[:T], F=m.F[:T],
                    P=m.P[:T], R=m.R[:T], R0=m.R0[:T], H=m.H[:T],
                    noise_leader=m.noise_leader[:T], noise_follower=m.noise_follower[:T])

        p = {k: float(getattr(m, k)[0, 0, 0]) for k in
             ("A0", "B0", "S0", "A", "B", "S", "E", "Q", "Q0", "F", "P", "R", "R0", "H")}
        gamma2 = m.gamma ** 2

        def raw_cost(v):
            # v packs [u0_t, u1_t, u2_t, d0_t, d1_t, d2_t] for t = 1, 2
            x0, x1, x2 = 10.0, 2.0, 6.0
            total = 0.0
            for t in range(T):
                u0, u1, u2, d0, d1, d2 = v[6 * t: 6 * (t + 1)]
                xb, ub = (x1 + x2) / 2.0, (u1 + u2) / 2.0
                total += (
                    0.5 * (p["Q"] * (x1 * x1 + x2 * x2) + p["R"] * (u1 * u1 + u2 * u2)
                           - gamma2 * (d1 * d1 + d2 * d2))
                    + p["Q0"] * x0 * x0 + p["R0"] * u0 * u0 - gamma2 * d0 * d0
                    + p["F"] * (xb - x0) ** 2 + p["P"] * xb * xb + p["H"] * ub * ub)
                x0n = p["A0"] * x0 + p["B0"] * u0 + p["S0"] * xb + d0
                x1n = p["A"] * x1 + p["B"] * u1 + p["S"] * xb + p["E"] * x0 + d1
                x2n = p["A"] * x2 + p["B"] * u2 + p["S"] * xb + p["E"] * x0 + d2
                x0, x1, x2 = x0n, x1n, x2n
            return total

        dim = 6 * T
        c0 = raw_cost(np.zeros(dim))
        grad = np.zeros(dim)
        hess = np.zeros((dim, dim))
        h = 1.0  # exact for a quadratic
        for i in range(dim):
            ei = np.zeros(dim); ei[i] = h
            fp, fm = raw_cost(ei), raw_cost(-ei)
            grad[i] = (fp - fm) / (2 * h)
            hess[i, i] = (fp - 2 * c0 + fm) / h**2
        for i in range(dim):
            for j in range(i + 1, dim):
                ei = np.zeros(dim); ei[i] = h
                ej = np.zeros(dim); ej[j] = h
                hess[i, j] = hess[j, i] = (
                    raw_cost(ei + ej) - raw_cost(ei) - raw_cost(ej) + c0) / h**2

        v_star = np.linalg.solve(hess, -grad)
        value = c0 + 0.5 * grad @ v_star
        # saddle signature of the quadratic in (u, d)
        u_idx = [i for t in range(T) for i in (6 * t, 6 * t + 1, 6 * t + 2)]
        d_idx = [i for t in range(T) for i in (6 * t + 3, 6 * t + 4, 6 * t + 5)]
        assert np.linalg.eigvalsh(hess[np.ix_(u_idx, u_idx)]).min() > 0
        assert np.linalg.eigvalsh(hess[np.ix_(d_idx, d_idx)]).max() < 0

        sol = stacked_saddle_solve(m, 2)
        assert sol.feasible
        oracle_value = sol.value(np.array([10.0]), np.array([[2.0], [6.0]]))
        decomposed = optimal_value(m, solve_riccati(m))
        assert oracle_value == pytest.approx(value, rel=1e-10)
        assert decomposed == pytest.approx(value, rel=1e-10)


class TestBatchedRollout:
    @pytest.mark.parametrize("n", [1, 4, 8, 9, 16])
    @pytest.mark.parametrize("which", ["example2", "vector"])
    def test_each_row_matches_its_own_rollout(self, example2, which, n):
        m = example2.with_gamma(EX2_GAMMA) if which == "example2" else vector_model_2x2(T=30)
        KU0, KD0 = decomposed_joint_gains(m, compute_gains(m, solve_riccati(m)), n)
        prob = build_stacked(m, n)
        rng = np.random.default_rng(n)
        P = 5
        KU = KU0 + 1e-2 * rng.standard_normal((P,) + KU0.shape)
        KD = KD0 + 1e-2 * rng.standard_normal((P,) + KD0.shape)
        x0 = m.leader_init.mean()
        followers = rng.uniform(-2.0, 2.0, size=(n, m.state_dim))
        costs, trajs = rollout_joint(m, prob, KU, KD, x0, followers)
        assert costs.shape == (P,) and trajs.shape == (P, m.horizon, prob.AA.shape[1])
        for p in range(P):
            cost, traj = rollout_joint(m, prob, KU[p], KD[p], x0, followers)
            assert isinstance(cost, float)
            assert costs[p] == cost
            assert np.array_equal(trajs[p], traj)
        # an unbatched side is shared by every row
        costs_u, _ = rollout_joint(m, prob, KU, KD0, x0, followers)
        assert costs_u[-1] == rollout_joint(m, prob, KU[-1], KD0, x0, followers)[0]

    def test_saddle_check_memory_is_bounded(self):
        # 50 directions at n = 16 would be 100 perturbed stacks of 34 x 34
        # disturbance gains per side, about 28 MB, if not rolled in blocks.
        m = vector_model_2x2(T=30, n=16)
        gains = compute_gains(m, solve_riccati(m))
        tracemalloc.start()
        try:
            rep = saddle_check(m, gains, num_directions=50, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok
        assert peak <= 24e6


class TestSaddleCheck:
    def test_zero_weight_model_has_flat_cost(self):
        m = zero_weight_model()
        gains = compute_gains(m, solve_riccati(m))
        rep = saddle_check(m, gains, num_directions=10, seed=4,
                           x0_init=np.zeros(1), followers_init=np.zeros((3, 1)))
        assert rep.ok
        assert all(d == 0.0 for _, _, _, d in rep.perturbations)

    def test_example2_saddle_holds(self, example2):
        m = example2_n(example2, 2, [2.0, 6.0])
        gains = compute_gains(m, solve_riccati(m))
        rep = saddle_check(m, gains, num_directions=50, seed=9,
                           x0_init=np.array([10.0]),
                           followers_init=np.array([[2.0], [6.0]]), n=2)
        assert rep.ok
        assert rep.control_min_delta >= -1e-9
        assert rep.disturbance_max_delta <= 1e-9

    def test_sign_flipped_gain_detected(self, example2):
        m = example2_n(example2, 2, [2.0, 6.0])
        gains = compute_gains(m, solve_riccati(m))
        corrupted = StrategyGains(L_brev=-gains.L_brev, L_bar=gains.L_bar,
                                  K_brev=gains.K_brev, K_bar=gains.K_bar,
                                  state_dim=1, action_dim=1)
        rep = saddle_check(m, corrupted, num_directions=50, seed=9,
                           x0_init=np.array([10.0]),
                           followers_init=np.array([[2.0], [6.0]]), n=2)
        assert not rep.ok
        assert rep.control_min_delta < -1e-6

    def test_no_directions_rejected(self, example2):
        # Min and max over no perturbations would report a failed check.
        m = example2_n(example2, 2, [2.0, 6.0])
        gains = compute_gains(m, solve_riccati(m))
        with pytest.raises(ValueError, match="--directions"):
            saddle_check(m, gains, num_directions=0, n=2)


class TestGapStudy:
    @pytest.mark.parametrize("n_list", [[0], [10, -3]])
    def test_population_below_one_rejected(self, example2, n_list):
        m = example2.with_gamma(EX2_GAMMA)
        gains = compute_gains(m, solve_riccati(m))
        with pytest.raises(ValueError, match="--n"):
            imfs_gap_study(m, gains, n_list, seed=5, runs=2)

    def test_full_observation_gap_zero(self, example2):
        m = example2.with_gamma(EX2_GAMMA)
        gains = compute_gains(m, solve_riccati(m))
        rows = imfs_gap_study(m, gains, [4, 8], seed=5, runs=5,
                              observation_times=range(1, m.horizon + 1))
        for row in rows:
            assert row["gap"] == 0.0

    def test_noise_free_common_disturbance_gap_negligible(self, example2):
        m = replace(example2.with_gamma(EX2_GAMMA),
                    follower_init=InitSpec(kind="deterministic", dim=1,
                                           values=np.array([[4.0]])),
                    noise_leader=np.zeros((30, 1, 1)),
                    noise_follower=np.zeros((30, 1, 1)))
        gains = compute_gains(m, solve_riccati(m))
        rows = imfs_gap_study(m, gains, [3, 6], seed=5, runs=2,
                              disturbance=DisturbancePolicy.worst_case(use_estimate=True))
        for row in rows:
            assert abs(row["gap"]) <= 1e-8

    def test_csv_emitters(self, example2):
        m = example2.with_gamma(EX2_GAMMA)
        gains = compute_gains(m, solve_riccati(m))
        rows = imfs_gap_study(m, gains, [3], seed=1, runs=2)
        text = gap_table_csv(rows)
        assert text.splitlines()[0] == "n,runs,j_mfs,j_imfs,gap,gap_times_n"
        assert len(text.splitlines()) == 2
        rep = saddle_check(m, gains, num_directions=2, seed=0,
                           x0_init=np.array([10.0]),
                           followers_init=np.array([[3.0], [5.0]]), n=2)
        lines = saddle_report_csv(rep).splitlines()
        assert lines[0] == "side,direction,step,delta"
        assert len(lines) == 1 + 2 * 2 * 2
