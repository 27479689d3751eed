"""Backward recursions, gains, optimal value, critical gamma."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfminmax import feasible, synthesis
from mfminmax.model import InitSpec, ModelError, ModelSpec, build_augmented
from mfminmax.synthesis import (
    InfeasibleError,
    compute_gains,
    critical_gamma,
    optimal_value,
    riccati_csv,
    solve_riccati,
)

from conftest import (
    EX1_GAMMA,
    EX2_GAMMA,
    make_model,
    mixed_dims_model,
    random_feasible_scalar_model,
    reference_2x2_recursion,
    reference_lqr,
    reference_scalar_recursion,
    reference_walk,
    vector_model,
    zero_weight_model,
)

# Spot values at feasible attenuation levels, frozen from a standalone
# prototype of the recursions (written before this package).
EX1_G20_M_BREV_1 = 21.068377128476477
EX1_G20_M_BAR_1 = [[37.35999643430838, -25.232345261346396],
                   [-25.232345261346396, 52.647162682487185]]
EX1_G20_L_BREV_1 = -0.1866911018353782
EX1_G20_L_BAR_1 = [[-0.0918334492017087, 0.05148612348279465],
                   [0.19337904933341785, -0.4309290536784723]]
EX1_G20_K_BREV_1 = 0.038436403319048455
EX1_G20_K_BAR_1 = [[0.07652787433475726, -0.04290510290232888],
                   [-0.03987020987727233, 0.08884743136135562]]
EX2_G4_M_BREV_1 = 0.03865434229563587
EX2_G4_JSTAR_N2 = 44.85061674308751  # n=2, followers {2,6}, leader 10, no noise

EX1_GAMMA_STAR = 13.302962
EX2_GAMMA_STAR = 2.027319


class TestTerminalAndDegenerate:
    def test_last_step_matches_weights(self, example2):
        ric = solve_riccati(example2)
        T = example2.horizon
        assert np.allclose(ric.M_brev[T], 0.0)
        assert np.allclose(ric.M_bar[T], 0.0)
        assert np.allclose(ric.Delta_brev[T - 1], np.eye(1))
        assert np.allclose(ric.Delta_bar[T - 1], np.eye(2))
        assert np.allclose(ric.M_brev[T - 1], example2.Q[T - 1])
        assert np.allclose(ric.M_bar[T - 1], build_augmented(example2).Q_bar[T - 1])
        assert ric.c_brev[T] == 0.0 and ric.c_bar[T] == 0.0

    def test_zero_weights_give_zero_solution(self):
        m = zero_weight_model()
        ric = solve_riccati(m)
        assert ric.feasible
        assert np.all(ric.M_brev == 0.0) and np.all(ric.M_bar == 0.0)
        assert np.all(ric.c_brev == 0.0) and np.all(ric.c_bar == 0.0)
        gains = compute_gains(m, ric)
        for stack in (gains.L_brev, gains.L_bar, gains.K_brev, gains.K_bar):
            assert np.all(stack == 0.0)


class TestAgainstScalarReference:
    @pytest.mark.parametrize("gamma", [EX2_GAMMA, 1.0])
    def test_example2_recursion_elementwise(self, example2, gamma):
        # gamma=1 sits below the feasibility boundary: the sequences are
        # still well defined and must match the reference, flagged.
        m = example2.with_gamma(gamma)
        ric = solve_riccati(m)
        Mref, Dref, cref = reference_scalar_recursion(
            a=1.0, b=1.0, q=0.01, r=0.11, gamma=gamma, T=30, n=100, noise_var=0.3)
        for t in range(31):
            assert ric.M_brev[t][0, 0] == pytest.approx(Mref[t], abs=1e-10)
            assert ric.c_brev[t] == pytest.approx(cref[t], abs=1e-10)
        for t in range(30):
            assert ric.Delta_brev[t][0, 0] == pytest.approx(Dref[t], abs=1e-10)
        Abar = [[1.0, 0.0], [0.001, 1.04]]
        Qbar = [[1e-4 + 0.07, -0.07], [-0.07, 0.01 + 0.001 + 0.07]]
        MBref, DBref, cBref = reference_2x2_recursion(
            Abar, (0.0, 1.0), Qbar, (1e-4, 1.11), gamma, T=30, n=100, noise_var=0.3)
        for t in range(31):
            assert np.allclose(ric.M_bar[t], MBref[t], atol=1e-10)
            assert ric.c_bar[t] == pytest.approx(cBref[t], abs=1e-10)
        for t in range(30):
            assert np.allclose(ric.Delta_bar[t], DBref[t], atol=1e-10)

    def test_example1_frozen_spot_values(self, example1):
        ric = solve_riccati(example1.with_gamma(EX1_GAMMA))
        assert ric.feasible
        assert ric.M_brev[0][0, 0] == pytest.approx(EX1_G20_M_BREV_1, rel=1e-12)
        assert np.allclose(ric.M_bar[0], EX1_G20_M_BAR_1, rtol=1e-12)


class TestFeasibility:
    def test_example_boundaries(self, example1, example2):
        assert solve_riccati(example1.with_gamma(EX1_GAMMA)).feasible
        assert not solve_riccati(example1.with_gamma(5.0)).feasible
        assert solve_riccati(example2.with_gamma(EX2_GAMMA)).feasible
        assert not solve_riccati(example2.with_gamma(1.0)).feasible

    def test_infeasible_run_is_flagged_not_crashed(self, example2):
        ric = solve_riccati(example2.with_gamma(1.0))
        assert not ric.feasible
        assert ric.infeasible_times
        assert np.all(np.isfinite(ric.M_brev)) and np.all(np.isfinite(ric.M_bar))
        assert ric.min_margin() < 0

    @pytest.mark.parametrize("gamma, feasible", [(EX2_GAMMA, True), (1.0, False)])
    def test_feasible_means_no_flagged_time(self, example2, gamma, feasible):
        ric = solve_riccati(example2.with_gamma(gamma))
        assert ric.feasible == (not ric.infeasible_times) == feasible

    def test_margins_reported_per_time(self, example2):
        ric = solve_riccati(example2)
        assert ric.margin_brev.shape == (30,)
        # terminal check is vacuous: margin = gamma^2
        assert ric.margin_brev[-1] == pytest.approx(example2.gamma ** 2)
        assert ric.margin_bar[-1] == pytest.approx(example2.gamma ** 2)

    def test_compute_gains_refuses_infeasible(self, example2):
        m = example2.with_gamma(1.0)
        ric = solve_riccati(m)
        with pytest.raises(InfeasibleError, match="no saddle point at gamma=1: margin"):
            compute_gains(m, ric)

    def test_psd_under_feasibility_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            m = random_feasible_scalar_model(rng)
            ric = solve_riccati(m)
            assert ric.feasible
            assert np.linalg.eigvalsh(ric.M_brev).min() >= -1e-9
            assert np.linalg.eigvalsh(ric.M_bar).min() >= -1e-9


class TestAlgebraicIdentities:
    def test_push_through_identity(self):
        # M (I + S M)^{-1} = (I + M S)^{-1} M guards the transpose choice.
        rng = np.random.default_rng(7)
        for _ in range(12):
            m = random_feasible_scalar_model(rng)
            ric = solve_riccati(m)
            g2 = m.gamma ** 2
            for t in range(1, m.horizon + 1):
                M = ric.M_bar[t]
                Baug = build_augmented(m).B_bar[t - 1]
                Raug = build_augmented(m).R_bar[t - 1]
                S = Baug @ np.linalg.solve(Raug, Baug.T) - np.eye(2) / g2
                left = M @ np.linalg.inv(np.eye(2) + S @ M)
                right = np.linalg.inv(np.eye(2) + M @ S) @ M
                assert np.allclose(left, right, atol=1e-10)

    def test_gain_equivalence_two_forms(self):
        # -R^{-1} B' M D^{-1} A equals the composed two-step form
        # -(R + B'MB)^{-1} B' M (I + g^{-2} M D^{-1}) A.
        rng = np.random.default_rng(17)
        for _ in range(12):
            m = random_feasible_scalar_model(rng)
            ric = solve_riccati(m)
            gains = compute_gains(m, ric)
            g2 = m.gamma ** 2
            for t in range(1, m.horizon + 1):
                M = ric.M_brev[t]
                A, B, R = m.A[t - 1], m.B[t - 1], m.R[t - 1]
                Dinv = np.linalg.inv(ric.Delta_brev[t - 1])
                two_step = -np.linalg.solve(R + B.T @ M @ B,
                                            B.T @ M @ (np.eye(1) + M @ Dinv / g2) @ A)
                assert np.allclose(gains.L_brev[t - 1], two_step, atol=1e-9)

    def test_symmetry_enforced(self, example1):
        ric = solve_riccati(example1.with_gamma(EX1_GAMMA))
        for t in range(example1.horizon + 1):
            assert np.max(np.abs(ric.M_brev[t] - ric.M_brev[t].T)) <= 1e-10
            assert np.max(np.abs(ric.M_bar[t] - ric.M_bar[t].T)) <= 1e-10


class TestLqrLimit:
    @pytest.mark.parametrize("which", ["example1", "example2"])
    def test_examples_match_classical_form(self, which, request):
        m = request.getfixturevalue(which).with_gamma(1e9)
        ric = solve_riccati(m)
        gains = compute_gains(m, ric)
        aug = build_augmented(m)
        Mref, Lref = reference_lqr(m.A, m.B, m.Q, m.R, m.horizon)
        MBref, LBref = reference_lqr(aug.A_bar, aug.B_bar, aug.Q_bar, aug.R_bar, m.horizon)
        for t in range(m.horizon):
            assert np.allclose(ric.M_brev[t], Mref[t], rtol=1e-6)
            assert np.allclose(ric.M_bar[t], MBref[t], rtol=1e-6)
            assert np.allclose(gains.L_brev[t], Lref[t], rtol=1e-6, atol=1e-12)
            assert np.allclose(gains.L_bar[t], LBref[t], rtol=1e-6, atol=1e-12)

    def test_randomized_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            m = random_feasible_scalar_model(rng).with_gamma(1e9)
            ric = solve_riccati(m)
            gains = compute_gains(m, ric)
            Mref, Lref = reference_lqr(m.A, m.B, m.Q, m.R, m.horizon)
            for t in range(m.horizon):
                assert np.allclose(ric.M_brev[t], Mref[t], rtol=1e-6, atol=1e-12)
                assert np.allclose(gains.L_brev[t], Lref[t], rtol=1e-6, atol=1e-12)


class TestGains:
    def test_example1_frozen_gains(self, example1):
        m = example1.with_gamma(EX1_GAMMA)
        gains = compute_gains(m, solve_riccati(m))
        assert gains.L_brev[0][0, 0] == pytest.approx(EX1_G20_L_BREV_1, rel=1e-12)
        assert np.allclose(gains.L_bar[0], EX1_G20_L_BAR_1, rtol=1e-12)
        assert gains.K_brev[0][0, 0] == pytest.approx(EX1_G20_K_BREV_1, rel=1e-12)
        assert np.allclose(gains.K_bar[0], EX1_G20_K_BAR_1, rtol=1e-12)

    def test_example2_leader_rows_vanish(self, example2):
        # B0 = 0 annihilates the leader action rows at every t.
        gains = compute_gains(example2, solve_riccati(example2))
        for t in range(1, example2.horizon + 1):
            assert np.all(gains.l11(t) == 0.0)
            assert np.all(gains.l12(t) == 0.0)

    @pytest.mark.parametrize("which", ["example1", "mixed_dims"])
    def test_block_accessors_partition(self, request, which):
        # mixed_dims has lx = 2, lu = 1: the derived dimensions must not swap.
        m = (mixed_dims_model() if which == "mixed_dims"
             else request.getfixturevalue(which).with_gamma(EX1_GAMMA))
        gains = compute_gains(m, solve_riccati(m))
        assert (gains.state_dim, gains.action_dim) == (m.state_dim, m.action_dim)
        t = 3
        blocks = [gains.l11(t), gains.l12(t), gains.l21(t), gains.l22(t)]
        assert all(block.shape == (m.action_dim, m.state_dim) for block in blocks)
        recomposed = np.block([blocks[:2], blocks[2:]])
        assert np.array_equal(recomposed, gains.L_bar[t - 1])


class TestSolutionOfAnotherModel:
    @pytest.mark.parametrize("use", [compute_gains, optimal_value])
    @pytest.mark.parametrize("other, message", [
        (lambda e1, e2: e2.with_gamma(5.0),
         r"^the solution is for gamma=4\.0, the model has gamma=5\.0$"),
        (lambda e1, e2: e1.with_gamma(EX2_GAMMA),
         r"^the solution's M_brev has shape \(31, 1, 1\), the model's \(T\+1, lx, lx\) "
         r"is \(21, 1, 1\)$"),
    ], ids=["gamma", "horizon"])
    def test_rejected(self, example1, example2, use, other, message):
        # A gamma-4 solution of example 2 used at gamma 5 gave a K_bar off by 1.8e-3
        # and an optimal value of 45.27 where 41.88 is right.
        ric = solve_riccati(example2.with_gamma(EX2_GAMMA))
        with pytest.raises(ValueError, match=message):
            use(other(example1, example2), ric)


class TestOptimalValue:
    def test_zero_everything_gives_zero(self):
        m = make_model(T=4, n=3, gamma=2.0, A0=1.0, B0=1.0, S0=0.0, A=1.0, B=1.0,
                       S=0.0, E=0.0, Q=0.0, Q0=0.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0,
                       leader_value=0.0, follower_values=[[0.0], [0.0], [0.0]])
        assert optimal_value(m, solve_riccati(m)) == pytest.approx(0.0, abs=1e-14)

    def test_single_follower_deviation_term_vanishes(self):
        m = make_model(T=3, n=1, gamma=6.0, A0=0.9, B0=0.3, S0=0.0, A=0.9, B=0.4,
                       S=0.0, E=0.0, Q=1.0, Q0=1.0, F=0.5, P=0.0, R=1.0, R0=1.0, H=0.0,
                       leader_value=1.0, follower_values=[[1.0]])
        ric = solve_riccati(m)
        expected = float(np.ones(2) @ ric.M_bar[0] @ np.ones(2))
        assert optimal_value(m, ric) == pytest.approx(expected, rel=1e-12)

    def test_example2_frozen_value(self, example2):
        from dataclasses import replace

        from mfminmax.model import InitSpec
        m = replace(example2.with_gamma(EX2_GAMMA), n_followers=2,
                    follower_init=InitSpec(kind="deterministic", values=np.array([[2.0], [6.0]])),
                    noise_leader=np.zeros((30, 1, 1)),
                    noise_follower=np.zeros((30, 1, 1)))
        ric = solve_riccati(m)
        assert ric.M_brev[0][0, 0] == pytest.approx(EX2_G4_M_BREV_1, rel=1e-12)
        assert optimal_value(m, ric) == pytest.approx(EX2_G4_JSTAR_N2, rel=1e-12)

    def test_refuses_infeasible(self, example2):
        m = example2.with_gamma(1.0)
        with pytest.raises(InfeasibleError):
            optimal_value(m, solve_riccati(m))

    @pytest.mark.parametrize("key, change", [
        ("follower_init", {"follower_uniform": (0.0, 1e300)}),  # the variance overflows
        ("follower_init", {"follower_values": [[1e200], [-1e200]]}),  # the deviations' square
        ("leader_init", {"leader_value": 1e155}),  # the mean's square
    ])
    def test_overflowing_moment_raises_naming_its_key(self, key, change):
        m = make_model(T=3, n=2, gamma=6.0, A0=0.9, B0=0.3, S0=0.0, A=0.9, B=0.4, S=0.0,
                       E=0.0, Q=1.0, Q0=1.0, F=0.5, P=0.0, R=1.0, R0=1.0, H=0.0, **change)
        with pytest.raises(ModelError, match=f"^{key}: initial second moments are not finite"):
            optimal_value(m, solve_riccati(m))

    def test_follower_list_of_wrong_length_raises(self):
        # A list of 3 states for 5 followers is refused where the model is made, before
        # optimal_value or simulate could draw from it.
        m = make_model(T=3, n=3, gamma=6.0, A0=0.9, B0=0.3, S0=0.0, A=0.9, B=0.4, S=0.0,
                       E=0.0, Q=1.0, Q0=1.0, F=0.5, P=0.0, R=1.0, R0=1.0, H=0.0,
                       follower_values=[[1.0], [2.0], [4.0]])
        with pytest.raises(ModelError, match="^follower_init.values must list 1 or n_followers "
                                             "states$"):
            replace(m, n_followers=5)

    def test_overflowing_value_raises(self):
        # finite moments of 1e300 against weights of 1e10
        m = make_model(T=3, n=1, gamma=1e8, A0=0.9, B0=0.3, S0=0.0, A=0.9, B=0.4, S=0.0,
                       E=0.0, Q=1e10, Q0=1e10, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0,
                       leader_value=1e150, follower_values=[[1e150]])
        with pytest.raises(ModelError, match="optimal value of these initial states is not"):
            optimal_value(m, solve_riccati(m))


class TestCriticalGamma:
    def test_always_feasible_model_rejected(self):
        m = zero_weight_model()
        with pytest.raises(ValueError, match="bracket"):
            critical_gamma(m, 1e-3, 10.0)

    @pytest.mark.parametrize("which,lo,hi,expected", [
        ("example1", 5.0, 50.0, EX1_GAMMA_STAR),
        ("example2", 0.5, 20.0, EX2_GAMMA_STAR),
    ])
    def test_examples_to_tolerance(self, which, lo, hi, expected, request):
        m = request.getfixturevalue(which)
        gstar = critical_gamma(m, lo, hi, tol=1e-6)
        assert gstar == pytest.approx(expected, abs=5e-6)

    def test_agrees_with_grid_scan(self, example2):
        gstar = critical_gamma(example2, 0.5, 20.0, tol=1e-6)
        step = 0.01
        grid = np.arange(1.5, 2.6, step)
        flags = [solve_riccati(example2.with_gamma(g)).feasible for g in grid]
        first = next(i for i, ok in enumerate(flags) if ok)
        assert grid[first - 1] <= gstar <= grid[first] + 1e-12

    def test_keeps_its_bits_at_the_default_tol(self, example1, example2):
        assert critical_gamma(example1, 5.0, 50.0) == 13.302962072193623
        assert critical_gamma(example2, 0.5, 20.0) == 2.027319259941578

    def test_tol_validation(self, example2):
        for tol in (0.0, float("nan")):  # nan passes a plain "tol <= 0" test
            with pytest.raises(ValueError, match="tol"):
                critical_gamma(example2, 0.5, 20.0, tol=tol)

    def test_tolerance_below_one_ulp_terminates(self, example2, monkeypatch):
        # Once hi is one ulp above lo the midpoint rounds onto an end of the
        # bracket; the bisection must stop there instead of looping on it.
        walks = []

        def counted(model, gammas):
            walks.append(len(gammas))
            if sum(walks) > 1000:
                raise RuntimeError("critical_gamma does not terminate")
            return feasible(model, gammas)

        monkeypatch.setattr(synthesis, "feasible", counted)
        gstar = critical_gamma(example2, 0.5, 20.0, tol=1e-300)
        assert gstar == pytest.approx(EX2_GAMMA_STAR, abs=5e-6)
        assert len(walks) < 15

    def test_tolerance_below_the_least_float_ends_on_adjacent_floats(self, example2):
        # The walk's bisection tree reaches a bracket one ulp wide, whose midpoint
        # rounds onto an end; the result keeps the bits of one gamma at a time.
        gstar = critical_gamma(example2, 1.0, 4.0, tol=5e-324)
        assert solve_riccati(example2.with_gamma(gstar)).feasible
        assert not solve_riccati(example2.with_gamma(np.nextafter(gstar, 0.0))).feasible
        lo, hi = 1.0, 4.0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if solve_riccati(example2.with_gamma(mid)).feasible:
                hi = mid
            else:
                lo = mid
        assert gstar == 0.5 * (lo + hi)

    def test_reversed_bracket_rejected(self, example2, monkeypatch):
        # A feasibility that falls with gamma makes the reversed bracket
        # pass the end-point checks; the bracket order must reject it first.
        def falling(model, gammas):
            return np.array([g < 5.0 for g in gammas])

        monkeypatch.setattr(synthesis, "feasible", falling)
        with pytest.raises(ValueError, match="bracket"):
            critical_gamma(example2, 10.0, 1.0)

    @pytest.mark.parametrize("which,lo,hi,expected", [
        ("example1", 5.0, 50.0, 13.302962072193623),
        ("example2", 0.5, 20.0, 2.027319259941578),
    ])
    def test_few_walks_per_bisection(self, which, lo, hi, expected, request, monkeypatch):
        # One gamma per walk took 28 and 27 walks at this tolerance.
        walks = []

        def counted(model, gammas):
            walks.append(list(gammas))
            return feasible(model, gammas)

        monkeypatch.setattr(synthesis, "feasible", counted)
        assert critical_gamma(request.getfixturevalue(which), lo, hi, tol=1e-6) == expected
        assert len(walks) <= 7
        assert walks[0][:2] == [lo, hi]
        assert max(len(w) for w in walks) <= 2 + 2 ** synthesis.BISECT_DEPTH - 1

    def test_nonpositive_bracket_end_fails_like_with_gamma(self, example2):
        with pytest.raises(ModelError, match="gamma must be positive and finite"):
            critical_gamma(example2, 0.0, 20.0)


class TestRiccatiCsv:
    def test_dump_round_trips(self, example2):
        ric = solve_riccati(example2)
        gains = compute_gains(example2, ric)
        text = riccati_csv(ric, gains)
        lines = text.strip().split("\n")
        assert lines[0] == "t,matrix,row,col,value"
        rows = [line.split(",") for line in lines[1:]]
        wanted = {"M_brev", "M_bar", "Delta_brev", "Delta_bar", "c_brev", "c_bar",
                  "margin_brev", "margin_bar", "L_brev", "L_bar", "K_brev", "K_bar"}
        assert {r[1] for r in rows} == wanted
        m_bar_entries = {(int(r[0]), int(r[2]), int(r[3])): float(r[4])
                         for r in rows if r[1] == "M_bar"}
        assert m_bar_entries[(1, 0, 0)] == ric.M_bar[0][0, 0]
        assert m_bar_entries[(31, 1, 1)] == 0.0

    def test_vector_model_matches_golden(self):
        # Two states, two actions, full non-symmetric blocks and noise: the
        # stacked products of the recursions and gains, to the byte.
        m = vector_model()
        ric = solve_riccati(m)
        golden = Path(__file__).parent / "data" / "golden_riccati_vector_model.csv"
        assert riccati_csv(ric, compute_gains(m, ric)) == golden.read_text(encoding="utf-8")

    def test_byte_identical_on_rerun(self, example2):
        ric1 = solve_riccati(example2)
        ric2 = solve_riccati(example2)
        assert riccati_csv(ric1) == riccati_csv(ric2)


def _random_model(rng: np.random.Generator, T: int, lx: int, lu: int) -> ModelSpec:
    """A model with per-t stacks of every matrix; its weights pass validate_convexity."""
    def mats(rows, cols, scale):
        return rng.normal(0.0, scale, size=(T, rows, cols))

    def psd(dim, scale):
        X = mats(dim, dim, 1.0)
        return scale * X @ np.swapaxes(X, -1, -2)

    zeros = InitSpec(kind="deterministic", values=np.zeros((1, lx)))
    return ModelSpec(
        n_followers=int(rng.integers(1, 17)), gamma=1.0,
        A0=np.eye(lx) + mats(lx, lx, 0.3), B0=mats(lx, lu, 0.5), S0=mats(lx, lx, 0.1),
        A=np.eye(lx) + mats(lx, lx, 0.3), B=mats(lx, lu, 0.5), S=mats(lx, lx, 0.1),
        E=mats(lx, lx, 0.1), Q=psd(lx, 0.5), Q0=psd(lx, 0.5), F=psd(lx, 0.3), P=psd(lx, 0.2),
        R=psd(lu, 0.3) + np.eye(lu), R0=psd(lu, 0.3) + np.eye(lu), H=psd(lu, 0.1),
        leader_init=zeros, follower_init=zeros,
        noise_leader=psd(lx, 0.2), noise_follower=psd(lx, 0.2),
    )


def _singular_delta_model():
    """B = B0 = 0 and Q = 1 at t = T only: at gamma 1, Delta_{T-1} = 1 - M_T = 0 exactly."""
    m = zero_weight_model(T=4, gamma=1.0)
    Q = np.zeros_like(m.Q)
    Q[-1] = 1.0
    return replace(m, B=np.zeros_like(m.B), B0=np.zeros_like(m.B0), Q=Q)


def _aug_noise(m: ModelSpec) -> np.ndarray:
    """The [w0; wbar] covariance stack of the augmented recursion."""
    lx, n = m.state_dim, m.n_followers
    cov = np.zeros((m.horizon, 2 * lx, 2 * lx))
    cov[:, :lx, :lx] = m.noise_leader
    cov[:, lx:, lx:] = m.noise_follower / n
    return cov


def _rows(walk, k):
    """Gamma k's M, Delta, c, margins and flags from a batched ``_backward`` walk."""
    return [out[k] for out in walk]


class TestBatchedWalk:
    @given(st.data())
    @settings(max_examples=80)
    def test_each_gamma_matches_its_own_walk(self, data):
        T = data.draw(st.integers(1, 8))
        lx, lu = data.draw(st.sampled_from([1, 2])), data.draw(st.sampled_from([1, 2]))
        m = _random_model(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), T, lx, lu)
        # log-uniform in [1e-2, 1e2], so about half of the levels are infeasible
        gammas = sorted(data.draw(st.lists(st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
                                           min_size=1, max_size=9)))
        dev, aug = synthesis._walk(m, np.array(gammas))
        aug_sys = build_augmented(m)
        own_flags = []
        for k, g in enumerate(gammas):
            ric = solve_riccati(m.with_gamma(g))
            own_flags.append(ric.feasible)
            own_dev = (ric.M_brev, ric.Delta_brev, ric.c_brev, ric.margin_brev)
            own_aug = (ric.M_bar, ric.Delta_bar, ric.c_bar, ric.margin_bar)
            for batched, own in ((dev, own_dev), (aug, own_aug)):
                assert [a.tobytes() for a in _rows(batched, k)[:4]] == [a.tobytes() for a in own]
            flagged = _rows(dev, k)[4] | _rows(aug, k)[4]
            assert tuple((np.flatnonzero(flagged) + 1).tolist()) == ric.infeasible_times
            # The step-by-step loop: flags, c and margins taken inside each step.
            cov_dev = (1.0 - 1.0 / m.n_followers) * m.noise_follower
            ref = reference_walk(m.A, m.B, m.Q, m.R, cov_dev, g)
            assert [a.tobytes() for a in ref] == [a.tobytes() for a in _rows(dev, k)]
            ref_bar = reference_walk(aug_sys.A_bar, aug_sys.B_bar, aug_sys.Q_bar, aug_sys.R_bar,
                                     _aug_noise(m), g)
            assert [a.tobytes() for a in ref_bar] == [a.tobytes() for a in _rows(aug, k)]
        assert feasible(m, gammas).tolist() == own_flags

    @pytest.mark.parametrize("which,window,gstar", [
        ("example1", (13.25, 13.36), 13.302962072193623),
        ("example2", (1.98, 2.08), 2.027319259941578),
    ])
    def test_criterion_7_grid_and_boundary(self, which, window, gstar, request):
        m = request.getfixturevalue(which)
        grid = np.arange(window[0], window[1], 0.002)
        near = np.linspace(gstar - 1e-5, gstar + 1e-5, 41)
        for gammas in (grid, near):
            flags = feasible(m, gammas)
            assert flags.tolist() == [solve_riccati(m.with_gamma(g)).feasible for g in gammas]
        assert not flags[0] and flags[-1]

    def test_singular_delta_flags_only_its_gamma(self):
        m = _singular_delta_model()
        ric = solve_riccati(m)
        assert ric.Delta_brev[2].tolist() == [[0.0]]  # inv raises here; pinv carries on
        assert 3 in ric.infeasible_times
        dev, aug = synthesis._walk(m, np.array([1.0, 2.0]))
        for walk in (dev, aug):
            assert walk[4][0, 2] and not walk[4][1].any()
        two = solve_riccati(m.with_gamma(2.0))
        assert two.feasible
        own = [(two.M_brev, two.Delta_brev, two.c_brev, two.margin_brev),
               (two.M_bar, two.Delta_bar, two.c_bar, two.margin_bar)]
        for walk, arrays in zip((dev, aug), own):
            assert [a.tobytes() for a in _rows(walk, 1)[:4]] == [a.tobytes() for a in arrays]
        assert feasible(m, [1.0, 2.0]).tolist() == [False, True]

    @pytest.mark.parametrize("which", ["vector", "example2"])
    def test_a_gamma_whose_walk_overflows_flags_only_itself(self, request, which):
        # gamma 1e-300 squares to 0, so its walk is nan from the first step.  On a
        # 2-state model eigvalsh used to raise LinAlgError and lose the answer for 3.5.
        m = vector_model() if which == "vector" else request.getfixturevalue(which)
        tiny = solve_riccati(m.with_gamma(1e-300))
        assert not tiny.feasible and tiny.infeasible_times == tuple(range(1, m.horizon + 1))
        assert np.isnan(tiny.margin_brev).all() and np.isnan(tiny.margin_bar).all()
        assert feasible(m, [1e-300, 3.5]).tolist() == [False, True]
        dev, aug = synthesis._walk(m, np.array([1e-300, 3.5]))
        own = solve_riccati(m.with_gamma(3.5))
        own_arrays = [(own.M_brev, own.Delta_brev, own.c_brev, own.margin_brev),
                      (own.M_bar, own.Delta_bar, own.c_bar, own.margin_bar)]
        for walk, arrays in zip((dev, aug), own_arrays):
            assert [a.tobytes() for a in _rows(walk, 1)[:4]] == [a.tobytes() for a in arrays]
        assert abs(critical_gamma(m, 1e-300, 3.5) - critical_gamma(m, 1.0, 3.5)) <= 1e-6

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_gamma_must_be_positive_and_finite(self, example2, bad):
        with pytest.raises(ModelError, match="gamma must be positive and finite"):
            feasible(example2, [4.0, bad])

    @pytest.mark.parametrize("bad", [True, "2", None, 1j])
    def test_gamma_must_be_a_number(self, example2, bad):
        # A bool used to walk as gamma 1.
        with pytest.raises(ModelError, match=f"^gamma must be a number, got {bad!r}$"):
            feasible(example2, [4.0, bad])

    def test_nonconvex_model_raises(self, example2):
        # The model is rejected where it is made, before any walk.
        R = example2.R.copy()
        R[3] = -1.0
        with pytest.raises(ModelError, match=r"^R at t=4 is not positive definite \(min eig -1\)$"):
            replace(example2, R=R)

