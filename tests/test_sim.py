"""Monte Carlo simulation: determinism, dynamics, cost accounting."""

import contextlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfminmax import sim
from mfminmax.cli import bundled_config_path
from mfminmax.model import InfoStructure, InitSpec, load_model
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


def diverging_model(T=10):
    """Followers grow tenfold per step from uniform initials in (0, 1e300).

    Most runs overflow at t = 9, some at t = 10, and a few later or never.
    """
    return make_model(T=T, n=1, gamma=5.0, A0=1.0, B0=0.0, S0=0.0, A=10.0, B=0.0, S=0.0,
                      E=0.0, Q=0.0, Q0=0.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0,
                      follower_uniform=(0.0, 1e300), noise_follower=1.0)


def mixed_dims_model(gamma=5.0):
    """Two states, one action, so the x and u series have different label counts.

    Feasible at the default gamma (its critical gamma is about 2.712).
    """
    return make_model(
        T=5, n=3, gamma=gamma, lx=2, lu=1,
        A0=[[1.0, 0.1], [0.0, 0.95]], B0=[[0.3], [0.6]], S0=[[0.05, 0.0], [0.02, 0.04]],
        A=[[0.9, 0.2], [-0.1, 1.0]], B=[[0.5], [0.3]], S=[[0.03, 0.01], [0.0, 0.05]],
        E=[[0.02, 0.0], [0.01, 0.02]], Q=[[1.0, 0.2], [0.2, 0.6]], Q0=[[0.5, 0.0], [0.0, 0.5]],
        F=[[0.4, 0.1], [0.1, 0.3]], P=[[0.1, 0.0], [0.0, 0.1]], R=0.8, R0=1.1, H=0.2,
        leader_value=[[1.5, -0.5]], follower_uniform=(-2.0, 2.0),
        noise_leader=[[0.2, 0.05], [0.05, 0.1]], noise_follower=[[0.3, 0.1], [0.1, 0.2]],
    )


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

    @pytest.mark.parametrize("applied_to", ["leader", "both"])
    def test_sinusoid_reaches_its_targets(self, example1, applied_to):
        m = replace(example1.with_gamma(20.0), n_followers=5)
        cfg = SimConfig(master_seed=3, num_runs=1, retain_full_states=True,
                        disturbance=DisturbancePolicy.sinusoid(0.6, applied_to))
        rec = simulate(m, gains_for(m), cfg)[0]
        pulse = 0.6 * np.sin(np.arange(1, m.horizon + 1))
        to_followers = pulse if applied_to == "both" else np.zeros(m.horizon)
        assert rec.d0[:, 0] == pytest.approx(pulse)
        assert rec.di[:, :, 0] == pytest.approx(np.repeat(to_followers[:, None], 5, axis=1))


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

    @pytest.mark.parametrize("case", ["scalar", "vector", "diverging"])
    def test_each_arm_equals_its_own_call(self, example2, case):
        # Several information structures in one pass share blocks and draws;
        # each arm must still get the bits of its own call.  The scalar and
        # vector cases split into one run per block under three arms.
        m, cfg = block_cases(example2)[case]
        arms = (cfg.info, None, InfoStructure.no_sharing())
        quiet = contextlib.nullcontext()
        if case == "diverging":
            # Without sharing the estimate starts at the initial mean and
            # overflows at t = 10, before the states of small runs do; fed back
            # as a worst-case disturbance it ends them there, while under full
            # sharing one of them steps on to t = 11.
            m, arms = diverging_model(T=12), (None, InfoStructure.no_sharing())
            cfg = replace(cfg, disturbance=DisturbancePolicy.worst_case(use_estimate=True))
            quiet = np.errstate(over="ignore", invalid="ignore")
        g = gains_for(m)
        with quiet:
            together = simulate(m, g, cfg, arms=arms)
            alone = [simulate(m, g, replace(cfg, info=info)) for info in arms]
        assert len(together) == len(arms)
        for got, expected in zip(together, alone):
            assert [rec.run for rec in got] == list(range(cfg.num_runs))
            for a, b in zip(got, expected):
                assert_same_record(a, b)
        if case == "diverging":
            failed = [[rec.failed_at for rec in records] for records in together]
            assert set(zip(*failed)) == {(9, 9), (10, 10), (11, 10)}

    def test_no_arms_rejected(self):
        m = zero_weight_model()
        with pytest.raises(ValueError, match="arms"):
            simulate(m, gains_for(m), SimConfig(master_seed=0), arms=())

    @pytest.mark.parametrize("case", ["split", "diverging"])
    def test_arms_take_one_draw_per_run_and_t(self, example2, monkeypatch, case):
        # Keys are derived once per call and every (run, t) draws its noise
        # once, whatever the number of arms and blocks.
        if case == "split":  # two arms of BLOCK_STATES // 4 followers: blocks of 2 runs
            m = replace(example2.with_gamma(EX2_GAMMA), n_followers=sim.BLOCK_STATES // 4)
            cfg = SimConfig(master_seed=4, num_runs=5, info=InfoStructure.imfs([3]))
        else:  # as in test_each_arm_equals_its_own_call: a run steps on in one arm only
            m, cfg = diverging_model(T=12), block_cases(example2)["diverging"][1]
            cfg = replace(cfg, disturbance=DisturbancePolicy.worst_case(use_estimate=True))
        draws, key_calls = Counter(), []
        substreams, substream_keys = sim._substreams, sim._substream_keys

        class Counting:
            def __init__(self, gen, key):
                self.gen, self.key = gen, key

            def standard_normal(self, *args, **kwargs):
                draws[self.key] += 1
                return self.gen.standard_normal(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.gen, name)

        def counting_streams(seed, runs, T):
            stream = substreams(seed, runs, T)
            return lambda run, t: Counting(stream(run, t), (run, t))

        monkeypatch.setattr(sim, "_substreams", counting_streams)
        monkeypatch.setattr(sim, "_substream_keys",
                            lambda *args: key_calls.append(args) or substream_keys(*args))
        with np.errstate(over="ignore", invalid="ignore"):
            arms = simulate(m, gains_for(m), cfg, arms=(cfg.info, InfoStructure.no_sharing()))
        assert len(key_calls) == 1
        # a run draws at each t up to the last one at which some arm still steps
        last = [max(rec.failed_at or m.horizon for rec in recs) for recs in zip(*arms)]
        assert draws == Counter({(run, t): 1 for run in range(cfg.num_runs)
                                 for t in range(1, last[run] + 1)})

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
        # It colours with the factors of a whole stack of covariances, each
        # of which must be the factor of its covariance alone.
        gen = np.random.default_rng(lx)
        root = gen.normal(size=(lx, lx))
        covs = np.stack([root @ root.T, np.zeros((lx, lx)), np.eye(lx) * 1e-3])
        for cov, factor in zip(covs, sim._colouring(covs)):
            assert factor.tobytes() == sim._colouring(cov).tobytes()
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
        csv_a = trajectory_csv(simulate(m, g, cfg))
        csv_b = trajectory_csv(simulate(m, g, cfg))
        assert csv_a == csv_b


def noise_model():
    """Zero dynamics and unit noise: the state at t + 1 is the noise drawn at t.

    The states at t = 1 are the initial draws, so a run's retained states
    are the raw draws of its substreams, bit for bit.
    """
    return make_model(T=4, n=3, gamma=50.0, A0=0.0, B0=0.0, S0=0.0, A=0.0, B=0.0, S=0.0,
                      E=0.0, Q=1.0, Q0=1.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0,
                      follower_uniform=(0.0, 4.0), noise_leader=1.0, noise_follower=1.0)


def reference_states(seed, run, m):
    """(x0, xi) of ``noise_model`` ``m`` drawn from ``sim._rng`` substreams."""
    init = sim._rng(seed, run, 0)
    x0 = [m.leader_init.sample(init)]
    xi = [m.follower_init.sample(init, m.n_followers)]
    for t in range(1, m.horizon):
        noise = sim._rng(seed, run, t)
        x0.append(noise.standard_normal(1))
        xi.append(noise.standard_normal((m.n_followers, 1)))
    return np.array(x0), np.array(xi)


class TestSubstreams:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2838, 2 ** 32 - 1])
    def test_keys_match_seed_sequence(self, seed):
        T = 12
        keys = sim._substream_keys(seed, range(41), T)
        assert keys.shape == (41, T + 1, 2) and keys.dtype == np.uint64
        for run in range(41):
            for t in range(T + 1):
                ss = np.random.SeedSequence((seed, run, t))
                assert keys[run, t].tolist() == ss.generate_state(2, np.uint64).tolist()

    @given(st.tuples(*[st.integers(0, 2 ** 32 - 1)] * 3))
    @settings(max_examples=200)
    def test_any_one_word_entropy_matches_seed_sequence(self, entropy):
        words = [np.array([v], np.uint32) for v in entropy]
        key = sim._seed_sequence_keys(*words)
        assert key.tolist() == [np.random.SeedSequence(entropy).generate_state(2, np.uint64)
                                .tolist()]

    @pytest.mark.parametrize("init", [
        InitSpec(kind="deterministic", dim=2, values=np.array([[1.0, -2.0]])),
        InitSpec(kind="uniform", dim=2, low=np.zeros(2), high=np.array([1.0, 5.0])),
        InitSpec(kind="gaussian", dim=2, mu=np.array([1.0, 2.0]),
                 sigma=np.array([[2.0, 0.5], [0.5, 1.0]])),
    ], ids=["deterministic", "uniform", "gaussian"])
    def test_rekeyed_draws_equal_fresh_substreams(self, init):
        # Each call re-keys the one Generator of the substreams; visiting
        # them out of order shows that no state leaks between them.
        seed, runs, T, n, lx = 2838, range(5, 9), 3, 4, 2
        stream = sim._substreams(seed, runs, T)
        for k, t in [(2, 0), (0, 3), (2, 1), (3, 0), (0, 0), (1, 2), (2, 0)]:
            got, ref = stream(runs[k], t), sim._rng(seed, runs[k], t)
            if t == 0:
                for size in (None, n):
                    assert init.sample(got, size).tobytes() == init.sample(ref, size).tobytes()
            else:
                z = np.empty((n + 1, lx))
                got.standard_normal(out=z)
                expected = np.concatenate([ref.standard_normal(lx)[None],
                                           ref.standard_normal((n, lx))])
                assert z.tobytes() == expected.tobytes()
            assert got.random() == ref.random()  # both stand at the same place after the draws

    @pytest.mark.parametrize("seed, run, keyed", [
        (7, 0, True), (2 ** 32 - 1, 2 ** 32 - 1, True), (0, 2 ** 32, False),
        (2 ** 64, 0, False), (2 ** 64, 2 ** 33, False),
    ], ids=["keyed", "keyed-last-word", "run-2^32", "seed-2^64", "both-wide"])
    def test_engine_draws_equal_reference_substreams(self, monkeypatch, seed, run, keyed):
        m = noise_model()
        g = gains_for(m)
        x0, xi = reference_states(seed, run, m)
        # The keyed path builds no substream with _rng; the fallback derives no keys.
        unused = "_rng" if keyed else "_substream_keys"
        monkeypatch.setattr(sim, unused, lambda *args: pytest.fail(f"{unused} called"))
        rec = simulate_run(m, g, SimConfig(master_seed=seed, retain_full_states=True), run)
        assert rec.x0.tobytes() == x0.tobytes()
        assert rec.xi.tobytes() == xi.tobytes()


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

    def test_monte_carlo_mean_near_value_gaussian_initials(self):
        # Example 2 with gaussian initials from the loader.  Zeroing the
        # leader or the follower covariance in the value moves it by 12 or
        # 7 stderr at this seed, so InitSpec.mean and cov are both checked.
        text = bundled_config_path(2).read_text(encoding="utf-8")
        text = (text.replace("  value: 10.0", "  gaussian: {mean: 10.0, cov: 25.0}")
                .replace("  uniform: {low: 0.0, high: 8.0}", "  gaussian: {mean: 4.0, cov: 40.0}"))
        m = replace(load_model(text).with_gamma(EX2_GAMMA), n_followers=2)
        assert (m.leader_init.kind, m.follower_init.kind) == ("gaussian", "gaussian")
        ric = solve_riccati(m)
        cfg = SimConfig(master_seed=31, num_runs=2000,
                        disturbance=DisturbancePolicy.worst_case())
        cost = evaluate_cost(m, simulate(m, compute_gains(m, ric), cfg))
        assert abs(cost.mean - optimal_value(m, ric)) <= 4.0 * cost.stderr


class TestGoldenTrajectory:
    def test_example1_regression(self, example1):
        # Frozen once from a fixed-seed run; guards the whole pipeline
        # (sampling, policy, disturbance, dynamics, CSV formatting).
        from pathlib import Path
        m = example1.with_gamma(20.0)
        cfg = SimConfig(master_seed=7, num_runs=1, retain_full_states=True,
                        disturbance=DisturbancePolicy.sinusoid(0.6))
        text = trajectory_csv(simulate(m, gains_for(m), cfg))
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
        text = trajectory_csv(simulate(m, gains_for(m), cfg))
        golden = Path(__file__).parent / "data" / "golden_vector_imfs_worstcase_seed5.csv"
        assert text == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("seed", [2 ** 32 - 1, 2 ** 32])
    def test_seed_key_boundary_regression(self, example2, seed):
        # Frozen from the engine that built every substream with _rng: the
        # largest seed of one entropy word, and the first of two words.
        from pathlib import Path
        m = replace(example2.with_gamma(EX2_GAMMA), n_followers=5)
        cfg = SimConfig(master_seed=seed, num_runs=3, retain_full_states=True,
                        disturbance=DisturbancePolicy.worst_case(use_estimate=True),
                        info=InfoStructure.imfs([5, 12]))
        text = trajectory_csv(simulate(m, gains_for(m), cfg))
        golden = Path(__file__).parent / "data" / f"golden_example2_imfs_worstcase_seed{seed}.csv"
        assert text == golden.read_text(encoding="utf-8")

    def test_diverging_regression(self):
        # Three of the four runs overflow at t = 9: their t = 10 rows read
        # nan, and the finite states before it print at the e+299 scale.
        from pathlib import Path
        m = diverging_model()
        cfg = SimConfig(master_seed=0, num_runs=4, retain_full_states=True)
        text = trajectory_csv(simulate(m, gains_for(m), cfg))
        golden = Path(__file__).parent / "data" / "golden_diverging_seed0.csv"
        assert text == golden.read_text(encoding="utf-8")

    def test_mixed_dims_regression(self):
        # Two state components and one action: x and u series are labelled apart.
        from pathlib import Path
        m = mixed_dims_model()
        cfg = SimConfig(master_seed=11, num_runs=2, retain_full_states=True,
                        disturbance=DisturbancePolicy.worst_case(),
                        info=InfoStructure.imfs([2]))
        text = trajectory_csv(simulate(m, gains_for(m), cfg))
        golden = Path(__file__).parent / "data" / "golden_mixed_dims_imfs_worstcase_seed11.csv"
        assert text == golden.read_text(encoding="utf-8")

    def test_states_not_kept_regression(self, example2):
        # The shape simulate writes by default: aggregates and stage costs only.
        from pathlib import Path
        m = example2.with_gamma(EX2_GAMMA)
        cfg = SimConfig(master_seed=3, num_runs=3, disturbance=m.experiment.disturbance)
        text = trajectory_csv(simulate(m, gains_for(m), cfg))
        golden = Path(__file__).parent / "data" / "golden_example2_gamma4_seed3_no_states.csv"
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
        text = trajectory_csv(simulate(m, gains_for(m), cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "run,t,series,agent,value"
        rows = [line.split(",") for line in lines[1:]]
        series = {r[2] for r in rows}
        assert series == {"x0", "xbar", "mhat", "u0", "ubar", "cost_stage", "xi"}
        agents = {r[3] for r in rows if r[2] == "xi"}
        assert agents == {"1", "2"}
        # row count: 6 aggregate series + 2 follower series per t
        assert len(rows) == m.horizon * (6 + 2)

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_per_value_reference(self, data):
        # Records of one or two shapes, so a template is both made and reused;
        # their values are picked from a drawn palette, which keeps drawing cheap.
        shapes = data.draw(st.lists(st.tuples(
            st.integers(1, 5), st.integers(1, 3), st.integers(1, 3),
            st.one_of(st.none(), st.integers(0, 4))), min_size=1, max_size=2))
        runs = data.draw(st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=3))
        palette = data.draw(st.lists(FLOATS, min_size=1, max_size=12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        records = [synthetic_record(rng, palette, run, *shapes[rng.integers(len(shapes))])
                   for run in runs]
        expected = "run,t,series,agent,value\n" + "".join(
            reference_trajectory_rows(rec, rec.x0.shape[1], rec.u0.shape[1]) for rec in records)
        assert trajectory_csv(records) == expected


FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-5, 1e16]),
                   st.floats())


def synthetic_record(rng, palette, run, T, lx, lu, n):
    """A record of values from ``palette``, the follower states kept unless n is None."""
    def draw(*shape):
        return rng.choice(np.array(palette), size=shape)

    return sim.TrajectoryRecord(
        run=run, seed=0, x0=draw(T, lx), xbar=draw(T, lx), mhat=draw(T, lx), u0=draw(T, lu),
        ubar=draw(T, lu), d0=np.zeros((T, lx)), dbar=np.zeros((T, lx)), stage_costs=draw(T),
        total_cost=0.0, xi=None if n is None else draw(T, n, lx))


def reference_trajectory_rows(rec, state_dim, action_dim):
    """One record's rows, one f-string per value: the reference for ``trajectory_csv``."""
    def names(base, dim):
        return [base] if dim == 1 else [f"{base}_{k}" for k in range(dim)]

    aggregates = [(names(base, dim), arr.tolist()) for base, arr, dim in (
        ("x0", rec.x0, state_dim), ("xbar", rec.xbar, state_dim),
        ("mhat", rec.mhat, state_dim), ("u0", rec.u0, action_dim),
        ("ubar", rec.ubar, action_dim))]
    xi_names = names("xi", state_dim)
    xi = None if rec.xi is None else rec.xi.tolist()
    lines = []
    for t, cost in enumerate(rec.stage_costs.tolist()):
        head = f"{rec.run},{t + 1},"
        for series, values in aggregates:
            lines.extend(f"{head}{name},,{v!r}\n" for name, v in zip(series, values[t]))
        lines.append(f"{head}cost_stage,,{cost!r}\n")
        if xi is not None:
            for i, state in enumerate(xi[t], start=1):
                lines.extend(f"{head}{name},{i},{v!r}\n" for name, v in zip(xi_names, state))
    return "".join(lines)
