"""Stacked-state verification oracle and saddle perturbation checks."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mfminmax import oracle
from mfminmax.model import InfoStructure, InitSpec, ModelError
from mfminmax.oracle import (
    MAX_ORACLE_FOLLOWERS,
    build_stacked,
    decomposed_joint_gains,
    gap_table_csv,
    imfs_gap_study,
    point_model,
    rollout_joint,
    saddle_check,
    saddle_report_csv,
    stacked_saddle_solve,
    verify_equivalence,
)
from mfminmax.sim import DisturbancePolicy, SimConfig, simulate
from mfminmax.synthesis import (InfeasibleError, compute_gains, critical_gamma, optimal_value,
                                solve_riccati)

from conftest import (
    EX1_GAMMA,
    EX2_GAMMA,
    make_model,
    mixed_dims_model,
    random_feasible_scalar_model,
    reference_scalar_recursion,
    zero_weight_model,
)
from conftest import vector_model as vector_model_2x2


def example2_n(example2, followers, gamma=EX2_GAMMA):
    """Example 2 at ``gamma`` started from its leader's 10 and ``followers``, noise-free."""
    return point_model(example2.with_gamma(gamma), [10.0], followers)


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
            build_stacked(replace(example2, n_followers=MAX_ORACLE_FOLLOWERS + 1))

    def test_empty_population_rejected(self, example2):
        with pytest.raises(ModelError, match="^n_followers must be >= 1, got 0$"):
            point_model(example2, [0.0], [])

    @pytest.mark.parametrize("which, n", [("example2", 3), ("example2", 16),
                                          ("vector", 3), ("vector", 16)])
    def test_joint_cost_matches_raw_sum(self, request, which, n):
        # X' QQ X + U' RR U must equal the literal per-agent cost expansion.
        m = vector_model() if which == "vector" else request.getfixturevalue(which)
        lx, lu = m.state_dim, m.action_dim
        prob = build_stacked(replace(m, n_followers=n))
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
        prob = build_stacked(replace(m, n_followers=n))
        rng = np.random.default_rng(1)
        X, U = rng.standard_normal((n + 1) * lx), rng.standard_normal((n + 1) * lu)
        (x0, xf), (u0, uf) = split(X, n, lx), split(U, n, lu)
        xbar = xf.mean(axis=0)
        nxt = prob.AA[0] @ X + prob.BB[0] @ U
        lead = m.A0[0] @ x0 + m.B0[0] @ u0 + m.S0[0] @ xbar
        fol = xf @ m.A[0].T + uf @ m.B[0].T + m.S[0] @ xbar + m.E[0] @ x0
        assert nxt[:lx] == pytest.approx(lead, rel=1e-12)
        assert nxt[lx:] == pytest.approx(fol.ravel(), rel=1e-12)


def reference_joint_gains(model, gains, n):
    """The joint gains built block by block, one t, i and j at a time."""
    T, lx, lu = model.horizon, model.state_dim, model.action_dim
    KU = np.zeros((T, (n + 1) * lu, (n + 1) * lx))
    KD = np.zeros((T, (n + 1) * lx, (n + 1) * lx))
    for t in range(1, T + 1):
        L, K, kb = gains.L_brev[t - 1], gains.K_brev[t - 1], gains.K_bar[t - 1]
        l11, l12, l21, l22 = gains.l11(t), gains.l12(t), gains.l21(t), gains.l22(t)
        k11, k12, k21, k22 = kb[:lx, :lx], kb[:lx, lx:], kb[lx:, :lx], kb[lx:, lx:]
        KU[t - 1, :lu, :lx] = l11
        KD[t - 1, :lx, :lx] = k11
        for j in range(1, n + 1):
            KU[t - 1, :lu, j * lx:(j + 1) * lx] = l12 / n
            KD[t - 1, :lx, j * lx:(j + 1) * lx] = k12 / n
        for i in range(1, n + 1):
            KU[t - 1, i * lu:(i + 1) * lu, :lx] = l21
            KD[t - 1, i * lx:(i + 1) * lx, :lx] = k21
            for j in range(1, n + 1):
                KU[t - 1, i * lu:(i + 1) * lu, j * lx:(j + 1) * lx] = (
                    (l22 - L) / n + (L if i == j else 0.0))
                KD[t - 1, i * lx:(i + 1) * lx, j * lx:(j + 1) * lx] = (
                    (k22 - K) / n + (K if i == j else 0.0))
    return KU, KD


class TestDecomposedJointGains:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, MAX_ORACLE_FOLLOWERS])
    @pytest.mark.parametrize("which", ["example2", "vector", "vector_2x2", "mixed_dims",
                                       "signed_zeros"])
    def test_equals_blockwise_reference_bitwise(self, request, which, n):
        m = {"vector": vector_model, "vector_2x2": vector_model_2x2,
             "mixed_dims": mixed_dims_model}.get(which)
        m = request.getfixturevalue("example2").with_gamma(EX2_GAMMA) if m is None else m()
        gains = compute_gains(m, solve_riccati(m))
        if which == "signed_zeros":  # -0.0 augmented gains minus +0.0 own gains give -0.0
            gains = replace(gains, L_brev=np.zeros_like(gains.L_brev),
                            L_bar=np.full_like(gains.L_bar, -0.0),
                            K_brev=np.zeros_like(gains.K_brev),
                            K_bar=np.full_like(gains.K_bar, -0.0))
        for got, want in zip(decomposed_joint_gains(replace(m, n_followers=n), gains),
                             reference_joint_gains(m, gains, n), strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestDecoupling:
    def test_uncoupled_single_follower_splits_into_two_problems(self):
        m = make_model(T=6, n=1, gamma=4.0, A0=0.9, B0=0.5, S0=0.0, A=0.8, B=0.6,
                       S=0.0, E=0.0, Q=1.0, Q0=0.7, F=0.0, P=0.0, R=1.2, R0=0.9, H=0.0,
                       leader_value=2.0, follower_values=[[(-1.5)]])
        sol = stacked_saddle_solve(m)
        assert sol.feasible
        Ml, _, _ = reference_scalar_recursion(0.9, 0.5, 0.7, 0.9, 4.0, 6)
        Mf, _, _ = reference_scalar_recursion(0.8, 0.6, 1.0, 1.2, 4.0, 6)
        expected = Ml[0] * 2.0 ** 2 + Mf[0] * (-1.5) ** 2
        assert sol.value(m) == pytest.approx(expected, rel=1e-10)


class TestEquivalence:
    @pytest.mark.parametrize("n", [2, 8, 16, MAX_ORACLE_FOLLOWERS])
    def test_example2_value_and_trajectories(self, example2, n):
        m = example2_n(example2, np.linspace(2.0, 6.0, n))
        gains = compute_gains(m, solve_riccati(m))
        value = optimal_value(m, solve_riccati(m))
        rep = verify_equivalence(m, gains)
        assert rep.ok
        assert rep.value_gap <= 1e-8 * abs(value)
        assert rep.max_gain_discrepancy <= 1e-9

    @pytest.mark.parametrize("which", ["example1", "example2", "vector", "mixed_dims"])
    def test_noise_constant_equals_decomposed(self, request, which):
        # The stacked recursion sums trace(M W) over the joint noise at each t; the
        # decomposition splits that sum into its deviation and mean constants.
        m = {"example1": lambda: request.getfixturevalue("example1").with_gamma(EX1_GAMMA),
             "example2": lambda: request.getfixturevalue("example2").with_gamma(EX2_GAMMA),
             "vector": vector_model_2x2, "mixed_dims": mixed_dims_model}[which]()
        assert np.any(m.noise_follower)  # the examples have no leader noise
        for n in (1, 2, 5, 16):
            m_n = replace(m, n_followers=n)
            ric = solve_riccati(m_n)
            c1 = stacked_saddle_solve(m_n).c1
            assert c1 == pytest.approx(ric.c_brev[0] + ric.c_bar[0], rel=1e-12, abs=0.0), n

    def test_randomized_scalar_models(self):
        rng = np.random.default_rng(101)
        for _ in range(6):
            m = random_feasible_scalar_model(rng)
            for n in (1, 2, 3):
                mdl = point_model(m, m.leader_init.mean(), rng.uniform(-2, 2, size=(n, 1)))
                rep = verify_equivalence(mdl, compute_gains(mdl, solve_riccati(mdl)))
                assert rep.ok, f"n={n}: gap {rep.value_gap}, gains {rep.max_gain_discrepancy}"

    def test_infeasible_gamma_agrees_with_recursion(self, example2):
        # Below the boundary both sides must report failure (n >= 2).
        sol = stacked_saddle_solve(replace(example2.with_gamma(1.0), n_followers=2))
        assert not sol.feasible
        assert not solve_riccati(example2.with_gamma(1.0)).feasible

    def test_infeasible_point_model_has_no_decomposed_value(self, example2):
        m = example2_n(example2, [[2.0], [6.0]])
        gains = compute_gains(m, solve_riccati(m))
        with pytest.raises(InfeasibleError, match="gamma=1"):
            verify_equivalence(example2_n(example2, [[2.0], [6.0]], gamma=1.0), gains)

    def test_stacked_solve_without_saddle_fails_the_report(self, example2, monkeypatch):
        # Should the stacked recursion find no saddle point where the decomposed
        # one finds a value, the report fails with an infinite value gap.
        m = example2_n(example2, [[2.0], [6.0]])
        below = stacked_saddle_solve(example2_n(example2, [[2.0], [6.0]], gamma=1.0))
        assert not below.feasible
        monkeypatch.setattr(oracle, "stacked_saddle_solve", lambda model: below)
        rep = verify_equivalence(m, compute_gains(m, solve_riccati(m)))
        assert rep.value_gap == float("inf") and not rep.ok

    def test_hessian_signature_iff_feasible(self):
        rng = np.random.default_rng(55)
        checked_both = 0
        for _ in range(14):
            m = random_feasible_scalar_model(rng)
            # probe a gamma below and above the known-feasible level
            for gamma in (m.gamma, m.gamma * rng.uniform(0.05, 0.5)):
                mdl = m.with_gamma(gamma)
                ric_ok = solve_riccati(mdl).feasible
                sol_ok = stacked_saddle_solve(replace(mdl, n_followers=2)).feasible
                assert ric_ok == sol_ok
                checked_both += 1
        assert checked_both >= 20


class TestTwoStepTruncationCrossCheck:
    def test_direct_quadratic_saddle_matches(self, example2):
        # Third method: identify the exact quadratic J(u, d) of the
        # 2-step problem by finite differences of a raw forward
        # simulation, solve the stationarity system, and compare values.
        T = 2
        m = example2_n(example2, [2.0, 6.0])
        m = replace(m, A0=m.A0[:T], B0=m.B0[:T], S0=m.S0[:T], A=m.A[:T], B=m.B[:T],
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

        sol = stacked_saddle_solve(m)
        assert sol.feasible
        oracle_value = sol.value(m)
        decomposed = optimal_value(m, solve_riccati(m))
        assert oracle_value == pytest.approx(value, rel=1e-10)
        assert decomposed == pytest.approx(value, rel=1e-10)


class TestBatchedRollout:
    @pytest.mark.parametrize("n", [1, 4, 8, 9, 16])
    @pytest.mark.parametrize("which", ["example2", "vector"])
    def test_each_row_matches_its_own_rollout(self, example2, which, n):
        m = example2.with_gamma(EX2_GAMMA) if which == "example2" else vector_model_2x2(T=30)
        gains = compute_gains(m, solve_riccati(m))
        rng = np.random.default_rng(n)
        m = point_model(m, m.leader_init.mean(), rng.uniform(-2.0, 2.0, size=(n, m.state_dim)))
        KU0, KD0 = decomposed_joint_gains(m, gains)
        prob = build_stacked(m)
        P = 5
        KU = KU0 + 1e-2 * rng.standard_normal((P,) + KU0.shape)
        KD = KD0 + 1e-2 * rng.standard_normal((P,) + KD0.shape)
        costs, trajs = rollout_joint(m, prob, KU, KD)
        assert costs.shape == (P,) and trajs.shape == (P, m.horizon, prob.AA.shape[1])
        for p in range(P):
            cost, traj = rollout_joint(m, prob, KU[p], KD[p])
            assert isinstance(cost, float)
            assert costs[p] == cost
            assert np.array_equal(trajs[p], traj)
        # an unbatched side is shared by every row
        costs_u, _ = rollout_joint(m, prob, KU, KD0)
        assert costs_u[-1] == rollout_joint(m, prob, KU[-1], KD0)[0]

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
        rep = saddle_check(m, gains, num_directions=10, seed=4)
        assert rep.ok
        assert all(d == 0.0 for _, _, _, d in rep.perturbations)

    def test_example2_saddle_holds(self, example2):
        m = example2_n(example2, [2.0, 6.0])
        gains = compute_gains(m, solve_riccati(m))
        rep = saddle_check(m, gains, num_directions=50, seed=9)
        assert rep.ok
        assert rep.control_min_delta >= -1e-9
        assert rep.disturbance_max_delta <= 1e-9

    def test_sign_flipped_gain_detected(self, example2):
        m = example2_n(example2, [2.0, 6.0])
        gains = compute_gains(m, solve_riccati(m))
        corrupted = replace(gains, L_brev=-gains.L_brev)
        rep = saddle_check(m, corrupted, num_directions=50, seed=9)
        assert not rep.ok
        assert rep.control_min_delta < -1e-6

    def test_no_directions_rejected(self, example2):
        # Min and max over no perturbations would report a failed check.
        m = example2_n(example2, [2.0, 6.0])
        gains = compute_gains(m, solve_riccati(m))
        with pytest.raises(ValueError, match="--directions"):
            saddle_check(m, gains, num_directions=0)

    @pytest.mark.parametrize("kwargs, message", [
        # 2.5 ended in a bare TypeError, True ran as one direction and seed -1
        # ended in numpy's "expected non-negative integer"
        (dict(num_directions=2.5), "num_directions (verify --directions) must be an integer, "
                                   "got 2.5"),
        (dict(num_directions=True), "num_directions (verify --directions) must be an integer, "
                                    "got True"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(seed=1.0), "seed must be an integer, got 1.0"),
        (dict(seed=False), "seed must be an integer, got False"),
    ])
    def test_arguments_checked(self, example2, kwargs, message):
        m = example2_n(example2, [2.0, 6.0])
        gains = compute_gains(m, solve_riccati(m))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            saddle_check(m, gains, **kwargs)

    def test_numpy_integers_accepted(self, example2):
        m = example2_n(example2, [2.0, 6.0])
        gains = compute_gains(m, solve_riccati(m))
        assert (saddle_check(m, gains, num_directions=np.int64(3), seed=np.uint8(4)).perturbations
                == saddle_check(m, gains, num_directions=3, seed=4).perturbations)


class TestModelContract:
    """The oracle reads n and its start point from the model alone."""

    def test_deterministic_list_is_the_start(self, example2):
        m = example2_n(example2, [2.0, 4.0, 6.0, 8.0])
        gains = compute_gains(m, solve_riccati(m))
        base = saddle_check(m, gains, num_directions=1).base_cost
        assert base == rollout_joint(m, build_stacked(m), *decomposed_joint_gains(m, gains))[0]
        # the decomposed engine from the same list, noise-free, worst case: an independent route
        cfg = SimConfig(master_seed=0, num_runs=1, disturbance=DisturbancePolicy.worst_case(),
                        info=InfoStructure.mfs())
        assert base == pytest.approx(simulate(m, gains, cfg)[0].total_cost, rel=1e-12)
        # not the list's mean, [5, 5, 5, 5]
        around_mean = saddle_check(example2_n(example2, [5.0] * 4), gains, num_directions=1)
        assert abs(base - around_mean.base_cost) > 0.1

    def test_uniform_init_starts_at_its_means(self, example2):
        m = replace(example2.with_gamma(EX2_GAMMA), n_followers=4)  # followers uniform on [0, 8]
        gains = compute_gains(m, solve_riccati(m))
        at_means = example2_n(example2, [[4.0]] * 4)
        assert (saddle_check(m, gains, num_directions=2).base_cost
                == saddle_check(at_means, gains, num_directions=2).base_cost)

    def test_list_of_wrong_length_raises_model_error(self, example2):
        # refused where the model is made, before saddle_check or verify_equivalence
        with pytest.raises(ModelError, match="must list 1 or n_followers states"):
            replace(example2_n(example2, [2.0, 4.0, 6.0, 8.0]), n_followers=3)

    @pytest.mark.parametrize("field, value", [
        ("follower_init", InitSpec(kind="uniform", low=np.zeros(1), high=np.ones(1))),
        ("leader_init", InitSpec(kind="gaussian", mu=np.zeros(1), sigma=np.eye(1))),
        ("noise_follower", np.full((30, 1, 1), 0.3)),
        ("noise_leader", np.full((30, 1, 1), 0.1)),
    ])
    def test_equivalence_rejects_a_model_that_is_not_a_point_model(self, example2, field, value):
        # Its value would carry a noise constant or a spread the noise-free rollouts lack.
        m = replace(example2_n(example2, [2.0, 4.0, 6.0, 8.0]), **{field: value})
        gains = compute_gains(m, solve_riccati(m))
        with pytest.raises(ValueError, match=f"{field} .*point_model"):
            verify_equivalence(m, gains)

    @pytest.mark.parametrize("check", [verify_equivalence, saddle_check])
    def test_gains_of_another_horizon_rejected(self, example1, example2, check):
        # Each ended in numpy's "could not broadcast input array from shape (30,1,1)
        # into shape (20,1,1)", or the reverse.
        models = [point_model(example1, [1.0], [[0.0], [1.0]]),  # T = 20
                  point_model(example2.with_gamma(EX2_GAMMA), [1.0], [[0.0], [1.0]])]  # T = 30
        for m, other in (models, models[::-1]):
            gains = compute_gains(other, solve_riccati(other))
            message = (f"the gains' L_brev has shape {(other.horizon, 1, 1)}, "
                       f"the model's (T, lu, lx) is {(m.horizon, 1, 1)}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check(m, gains)

    @pytest.mark.parametrize("make, leader, followers, message", [
        # each ended in numpy's "cannot reshape array", the scalar in len()'s TypeError
        ("example2", [1.0, 2.0], [[0.0]], "leader must hold lx = 1 values, got shape (2,)"),
        ("example2", [1.0], [[0.0, 1.0]], "followers must be (n, lx) = (n, 1), got shape (1, 2)"),
        ("example2", [1.0], 3.0, "followers must be (n, lx) = (n, 1), got shape ()"),
        ("vector", [1.0], [[0.0, 1.0]], "leader must hold lx = 2 values, got shape (1,)"),
        ("vector", [1.0, 2.0], [0.0, 1.0], "followers must be (n, lx) = (n, 2), got shape (2,)"),
        ("vector", [1.0, 2.0], [[0.0, 1.0, 2.0]],
         "followers must be (n, lx) = (n, 2), got shape (1, 3)"),
    ])
    def test_point_model_names_a_misshapen_start(self, example2, make, leader, followers,
                                                 message):
        m = example2 if make == "example2" else vector_model_2x2()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            point_model(m, leader, followers)

    @pytest.mark.parametrize("make", [mixed_dims_model, vector_model_2x2])
    def test_point_model_keeps_dynamics_and_gamma(self, make):
        m = make()
        pm = point_model(m, [1.0, -2.0], [[0.5, 0.25], [3.0, -1.0]])
        assert pm.n_followers == 2 and pm.gamma == m.gamma
        for name in ("A0", "B0", "S0", "A", "B", "S", "E", "Q", "Q0", "F", "P", "R", "R0", "H"):
            assert getattr(pm, name) is getattr(m, name)
        for name in ("noise_leader", "noise_follower"):
            assert np.any(getattr(m, name))
            assert getattr(pm, name).shape == getattr(m, name).shape
            assert not np.any(getattr(pm, name))
        assert pm.leader_init.kind == pm.follower_init.kind == "deterministic"
        assert np.array_equal(pm.leader_init.mean(), [1.0, -2.0])
        assert np.array_equal(pm.follower_init.values, [[0.5, 0.25], [3.0, -1.0]])


class TestBoundary:
    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("which", ["example1", "example2", "vector", "mixed_dims"])
    def test_stacked_boundary_brackets_critical_gamma(self, request, which, n):
        # The stacked Hessian signature flips within 1e-9 relative of the
        # decomposed critical gamma, on the same side as the recursion's.
        m = {"vector": vector_model_2x2, "mixed_dims": mixed_dims_model}.get(which)
        m = request.getfixturevalue(which) if m is None else m()
        gstar = critical_gamma(m, 0.5, 40.0, tol=1e-12)
        m = replace(m, n_followers=n)
        assert stacked_saddle_solve(m.with_gamma(gstar * (1 + 1e-9))).feasible
        assert not stacked_saddle_solve(m.with_gamma(gstar * (1 - 1e-9))).feasible

    def test_singular_stationarity_system_falls_back_to_least_squares(self):
        # Q0 = gamma^2 with B0 = F = P = 0 zeroes the leader-disturbance row of the
        # stage Hessian at t = 1: np.linalg.solve raises, lstsq gives finite gains.
        m = make_model(T=2, n=1, gamma=2.0, A0=1.0, B0=0.0, S0=0.0, A=1.0, B=1.0, S=0.0,
                       E=0.0, Q=1.0, Q0=4.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0)
        sol = stacked_saddle_solve(m)
        assert not sol.feasible
        assert np.all(np.isfinite(sol.KU)) and np.all(np.isfinite(sol.KD))


class TestGapStudy:
    @pytest.mark.parametrize("n_list", [[0], [10, -3], [2.7], [True]])
    def test_population_below_one_rejected(self, example2, n_list):
        m = example2.with_gamma(EX2_GAMMA)
        gains = compute_gains(m, solve_riccati(m))
        with pytest.raises(ValueError, match="--n"):
            imfs_gap_study(m, gains, n_list, seed=5, runs=2)

    def test_observation_time_past_the_horizon_rejected(self, example2):
        # It ran as no sharing: the gap of imfs([99]) was bit for bit that of InfoStructure().
        m = example2.with_gamma(EX2_GAMMA)
        gains = compute_gains(m, solve_riccati(m))
        with pytest.raises(ValueError, match="^observation time 99 is past the horizon 30$"):
            imfs_gap_study(m, gains, [4], seed=5, runs=2, info=InfoStructure.imfs([99]))

    def test_iterator_of_sizes_equals_list(self, example2):
        # the sizes are read once, so an iterator gives the rows a list gives
        m = example2.with_gamma(EX2_GAMMA)
        gains = compute_gains(m, solve_riccati(m))
        rows = imfs_gap_study(m, gains, iter([4, 8]), seed=5, runs=2)
        assert rows == imfs_gap_study(m, gains, [4, 8], seed=5, runs=2)
        assert [row["n"] for row in rows] == [4, 8]

    def test_full_observation_gap_zero(self, example2):
        m = example2.with_gamma(EX2_GAMMA)
        gains = compute_gains(m, solve_riccati(m))
        rows = imfs_gap_study(m, gains, [4, 8], seed=5, runs=5,
                              info=InfoStructure.imfs(range(1, m.horizon + 1)))
        for row in rows:
            assert row["gap"] == 0.0

    def test_noise_free_common_disturbance_gap_negligible(self, example2):
        m = replace(example2.with_gamma(EX2_GAMMA),
                    follower_init=InitSpec(kind="deterministic", values=np.array([[4.0]])),
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
        rep = saddle_check(point_model(m, [10.0], [[3.0], [5.0]]), gains,
                           num_directions=2, seed=0)
        lines = saddle_report_csv(rep).splitlines()
        assert lines[0] == "side,direction,step,delta"
        assert len(lines) == 1 + 2 * 2 * 2
