"""Model loading, augmentation, convexity checks, information structures."""

import numpy as np
import pytest

from mfminmax.model import (
    InfoStructure,
    ModelError,
    build_augmented,
    load_model,
    validate_convexity,
)

from conftest import make_model

MINIMAL = """
horizon: {T}
n_followers: 2
gamma: {gamma}
leader: {{A0: 0.9, B0: 0.2, S0: 0.05}}
follower: {{A: 0.8, B: 0.5, S: 0.1, E: 0.01}}
cost: {{Q: {Q}, Q0: 0.5, F: 1.0, P: 0.1, R: {R}, R0: 1.0, H: 0.2}}
leader_init: {{value: 1.0}}
follower_init: {{uniform: {{low: 0.0, high: 2.0}}}}
"""


def minimal(T=4, gamma=5.0, Q=1.0, R=2.0):
    return MINIMAL.format(T=T, gamma=gamma, Q=Q, R=R)


class TestLoadModel:
    def test_example1_parameters(self, example1):
        m = example1
        assert (m.state_dim, m.action_dim) == (1, 1)
        assert m.horizon == 20 and m.n_followers == 100
        assert m.A0[0] == pytest.approx(0.85)
        assert m.B[5] == pytest.approx(0.85)
        assert m.R[0] == pytest.approx(70.0)
        assert m.noise_follower[0, 0, 0] == pytest.approx(0.3)
        assert m.leader_init.mean() == pytest.approx([30.0])
        assert m.follower_init.mean() == pytest.approx([10.0])
        assert m.follower_init.cov()[0, 0] == pytest.approx(400.0 / 12.0)

    def test_example2_parameters(self, example2):
        m = example2
        assert m.horizon == 30
        assert m.B0[0] == pytest.approx(0.0)
        assert m.S[0] == pytest.approx(0.04)
        assert m.R0[0, 0, 0] == pytest.approx(1e-4)
        assert m.leader_init.mean() == pytest.approx([10.0])

    def test_time_invariant_broadcast(self):
        m = load_model(minimal(T=7))
        assert m.A.shape == (7, 1, 1)
        assert np.all(m.A == m.A[0])

    def test_per_t_entries(self):
        text = minimal(T=3).replace("A: 0.8", "A: {per_t: [0.8, 0.7, 0.6]}")
        m = load_model(text)
        assert [m.A[t, 0, 0] for t in range(3)] == [0.8, 0.7, 0.6]

    def test_per_t_wrong_length(self):
        text = minimal(T=4).replace("A: 0.8", "A: {per_t: [0.8, 0.7]}")
        with pytest.raises(ModelError, match="per_t"):
            load_model(text)

    def test_gamma_nonpositive_rejected(self):
        with pytest.raises(ModelError, match="gamma"):
            load_model(minimal(gamma=0.0))
        with pytest.raises(ModelError, match="gamma"):
            load_model(minimal(gamma=-2.0))

    @pytest.mark.parametrize("text, value", [(".nan", np.nan), (".inf", np.inf)])
    def test_gamma_nonfinite_rejected(self, text, value):
        # nan passes a plain "gamma <= 0" test, and synthesis then reports
        # a nan margin as feasible
        with pytest.raises(ModelError, match="gamma"):
            load_model(minimal(gamma=text))
        with pytest.raises(ModelError, match="gamma"):
            load_model(minimal()).with_gamma(value)

    def test_zero_r_rejected(self):
        with pytest.raises(ModelError, match="positive definite"):
            load_model(minimal(R=0.0))

    def test_missing_field(self):
        with pytest.raises(ModelError, match="missing"):
            load_model("horizon: 3\nn_followers: 1\ngamma: 1.0\n")

    def test_dimension_mismatch(self):
        text = minimal().replace("A0: 0.9", "A0: [[0.9, 0.1], [0.0, 0.9]]")
        with pytest.raises(ModelError):
            load_model(text)

    def test_mild_asymmetry_symmetrized_with_warning(self):
        text = """
horizon: 2
n_followers: 2
state_dim: 2
gamma: 5.0
leader: {A0: [[1.0, 0.0], [0.0, 1.0]], B0: [[1.0], [0.0]], S0: [[0.0, 0.0], [0.0, 0.0]]}
follower: {A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0], [0.0]], S: [[0.0, 0.0], [0.0, 0.0]], E: [[0.0, 0.0], [0.0, 0.0]]}
cost:
  Q: [[1.0, 1.0e-8], [0.0, 1.0]]
  Q0: [[1.0, 0.0], [0.0, 1.0]]
  F: [[0.0, 0.0], [0.0, 0.0]]
  P: [[0.0, 0.0], [0.0, 0.0]]
  R: 1.0
  R0: 1.0
  H: 0.0
leader_init: {value: [0.0, 0.0]}
follower_init: {values: [[0.0, 0.0], [0.0, 0.0]]}
"""
        with pytest.warns(UserWarning, match="symmetrized"):
            m = load_model(text)
        assert m.Q[0, 0, 1] == pytest.approx(0.5e-8)
        assert np.array_equal(m.Q[0], m.Q[0].T)

    def test_large_asymmetry_rejected(self):
        text = """
horizon: 2
n_followers: 2
state_dim: 2
gamma: 5.0
leader: {A0: [[1.0, 0.0], [0.0, 1.0]], B0: [[1.0], [0.0]], S0: [[0.0, 0.0], [0.0, 0.0]]}
follower: {A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0], [0.0]], S: [[0.0, 0.0], [0.0, 0.0]], E: [[0.0, 0.0], [0.0, 0.0]]}
cost:
  Q: [[1.0, 0.01], [0.0, 1.0]]
  Q0: [[1.0, 0.0], [0.0, 1.0]]
  F: [[0.0, 0.0], [0.0, 0.0]]
  P: [[0.0, 0.0], [0.0, 0.0]]
  R: 1.0
  R0: 1.0
  H: 0.0
leader_init: {value: [0.0, 0.0]}
follower_init: {values: [[0.0, 0.0], [0.0, 0.0]]}
"""
        with pytest.raises(ModelError, match="asymmetry"):
            load_model(text)

    def test_unparseable_text(self):
        with pytest.raises(ModelError):
            load_model("horizon: [unclosed")

    @pytest.mark.parametrize("old, new, named", [
        (", S0: 0.05", "", "'S0'"),
        ("{uniform: {low: 0.0, high: 2.0}}", "{gaussian: {mean: 4.0}}", "'cov'"),
        (", high: 2.0", "", "'high'"),
        ("{A0: 0.9, B0: 0.2, S0: 0.05}", "[1, 2]", "leader"),
        ("leader_init:", "noise: {follwer: 0.3}\nleader_init:", "'follwer'"),
        ("S0: 0.05}", "S0: 0.05, C0: 1.0}", "'C0'"),
        ("E: 0.01}", "E: 0.01, D: 1.0}", "'D'"),
        ("H: 0.2}", "H: 0.2, W: 1.0}", "'W'"),
        ("high: 2.0}", "high: 2.0, mid: 1.0}", "'mid'"),
        ("{value: 1.0}", "{value: 1.0, spread: 0.1}", "'spread'"),
        ("horizon: 4", "horizon: 4.7", "horizon"),
        ("n_followers: 2", "n_followers: 2.9", "n_followers"),
        ("A0: 0.9", "A0: [{a: 1}]", "leader.A0"),
        ("A: 0.8", "A: {per_t: 5}", "follower.A"),
        ("gamma: 5.0", "gamma: [1]", "gamma"),
        ("{value: 1.0}", "{value: {a: 1}}", "leader_init"),
        ("leader_init:", "experiment: {gamma_list: 5}\nleader_init:", "experiment.gamma_list"),
    ], ids=["missing-leader-key", "gaussian-without-cov", "uniform-without-high",
            "leader-not-mapping", "misspelled-noise-key", "unknown-leader-key",
            "unknown-follower-key", "unknown-cost-key", "unknown-uniform-key",
            "unknown-leader_init-key", "fractional-horizon", "fractional-n_followers",
            "mapping-in-matrix", "per_t-not-a-list", "gamma-a-list", "mapping-in-init",
            "gamma_list-not-a-list"])
    def test_malformed_config_names_the_key(self, old, new, named):
        text = minimal()
        assert old in text
        with pytest.raises(ModelError, match=named):
            load_model(text.replace(old, new, 1))


class TestBuildAugmented:
    def test_example1_blocks(self, example1):
        aug = build_augmented(example1)
        assert np.allclose(aug.A_bar[0], [[0.85, 0.03], [0.01, 0.95]])
        assert np.allclose(aug.B_bar[0], [[0.15, 0.0], [0.0, 0.85]])
        assert np.allclose(aug.Q_bar[0], [[11.5, -11.0], [-11.0, 19.4]])
        assert np.allclose(aug.R_bar[0], [[50.0, 0.0], [0.0, 70.1]])

    def test_zero_f_gives_block_diagonal(self):
        m = make_model(T=3, n=2, gamma=5.0, A0=1.0, B0=1.0, S0=0.0, A=1.0, B=1.0,
                       S=0.0, E=0.0, Q=1.0, Q0=2.0, F=0.0, P=0.5, R=1.0, R0=1.0, H=0.0)
        aug = build_augmented(m)
        assert np.all(aug.Q_bar[:, 0, 1] == 0.0)
        assert np.all(aug.Q_bar[:, 1, 0] == 0.0)

    def test_symmetry_for_random_symmetric_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            X = rng.standard_normal((2, 2))
            Q = X @ X.T
            m = make_model(T=2, n=2, gamma=5.0, lx=2, lu=1,
                           A0=np.eye(2), B0=np.ones((2, 1)), S0=np.zeros((2, 2)),
                           A=np.eye(2), B=np.ones((2, 1)), S=np.zeros((2, 2)),
                           E=np.zeros((2, 2)), Q=Q, Q0=Q, F=Q, P=Q,
                           R=1.0, R0=1.0, H=0.0,
                           leader_value=np.zeros(2), follower_values=np.zeros((1, 2)))
            aug = build_augmented(m)
            assert np.array_equal(aug.Q_bar[0], aug.Q_bar[0].T)

    def test_idempotent_and_pure_rearrangement(self, example2):
        a1 = build_augmented(example2)
        a2 = build_augmented(example2)
        assert np.array_equal(a1.A_bar, a2.A_bar)
        assert np.array_equal(a1.Q_bar[0, 0, 0],
                              example2.Q0[0, 0, 0] + example2.F[0, 0, 0])
        assert np.array_equal(a1.A_bar[0, 1, 1],
                              example2.A[0, 0, 0] + example2.S[0, 0, 0])


class TestValidateConvexity:
    def test_examples_pass(self, example1, example2):
        assert validate_convexity(example1).ok
        assert validate_convexity(example2).ok

    def test_negative_q_flagged(self):
        m = make_model(T=3, n=2, gamma=5.0, A0=1.0, B0=1.0, S0=0.0, A=1.0, B=1.0,
                       S=0.0, E=0.0, Q=-1.0, Q0=0.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0)
        rep = validate_convexity(m)
        assert not rep.ok
        assert any(name == "Q" for _, name, _ in rep.violations)
        # Q_bar inherits the negative block
        assert any(name == "Q_bar" for _, name, _ in rep.violations)

    def test_indefinite_looking_cross_block_still_psd(self):
        # Q0=1, F=4, Q=P=0 -> Q_bar = [[5,-4],[-4,4]], det 4 > 0: PSD.
        m = make_model(T=2, n=2, gamma=5.0, A0=1.0, B0=1.0, S0=0.0, A=1.0, B=1.0,
                       S=0.0, E=0.0, Q=0.0, Q0=1.0, F=4.0, P=0.0, R=1.0, R0=1.0, H=0.0)
        aug = build_augmented(m)
        assert np.allclose(aug.Q_bar[0], [[5.0, -4.0], [-4.0, 4.0]])
        evs = np.linalg.eigvalsh(aug.Q_bar[0])
        assert evs.min() > 0  # brute-force eigenvalue check
        assert validate_convexity(m).ok


class TestInfoStructure:
    def test_mfs_observes_everything(self):
        info = InfoStructure.mfs(5)
        assert all(info.observed(t) for t in range(1, 6))

    def test_no_sharing_is_empty_imfs(self):
        assert InfoStructure.no_sharing().observation_times == frozenset()
        assert InfoStructure.imfs([]).observation_times == frozenset()

    def test_imfs_full_equals_mfs_set(self):
        assert (InfoStructure.imfs(range(1, 8)).observation_times
                == InfoStructure.mfs(7).observation_times)
