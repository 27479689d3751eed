"""Model loading, augmentation, convexity checks, information structures."""

import copy
import dataclasses
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mfminmax import model as model_module
from mfminmax.cli import bundled_config_path
from mfminmax.model import (
    STACK_DIMS,
    DisturbancePolicy,
    InfoStructure,
    InitSpec,
    ModelError,
    _as_matrix,
    build_augmented,
    load_model,
    validate_convexity,
)
from mfminmax.oracle import point_model
from mfminmax.sim import SimConfig, simulate
from mfminmax.synthesis import compute_gains, solve_riccati

from conftest import EX2_GAMMA, make_model, mixed_dims_model, vector_model

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


TWO_STATE = """
horizon: 2
n_followers: 2
state_dim: 2
gamma: 5.0
leader: {{A0: [[1.0, 0.0], [0.0, 1.0]], B0: [[1.0], [0.0]], S0: [[0.0, 0.0], [0.0, 0.0]]}}
follower: {{A: [[1.0, 0.0], [0.0, 1.0]], B: [[1.0], [0.0]], S: [[0.0, 0.0], [0.0, 0.0]], E: [[0.0, 0.0], [0.0, 0.0]]}}
cost:
  Q: {Q}
  Q0: [[1.0, 0.0], [0.0, 1.0]]
  F: [[0.0, 0.0], [0.0, 0.0]]
  P: [[0.0, 0.0], [0.0, 0.0]]
  R: 1.0
  R0: 1.0
  H: 0.0
leader_init: {{value: [0.0, 0.0]}}
follower_init: {follower_init}
"""


def two_state(Q="[[1.0, 0.0], [0.0, 1.0]]", follower_init="{values: [[0.0, 0.0], [0.0, 0.0]]}"):
    return TWO_STATE.format(Q=Q, follower_init=follower_init)


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

    @pytest.mark.parametrize("old, new, named", [
        ("gamma: 5.0", "gamma: yes", "gamma must be a number, got True"),
        ("A: 0.8", "A: on", "follower.A: expected numbers, got True"),
        ("R: 2.0", "R: [true]", r"cost.R: expected numbers, got \[True\]"),
        ("A0: 0.9", "A0: [[false]]", r"leader.A0: expected numbers, got \[\[False\]\]"),
        ("{uniform: {low: 0.0, high: 2.0}}", "{values: [true, 1.0]}",
         r"follower_init.values: expected numbers, got \[True, 1.0\]"),
        ("leader_init:", "experiment: {disturbance: {kind: sinusoid, amplitude: yes}}\n"
         "leader_init:", "experiment.disturbance.amplitude must be a number, got True"),
        ("leader_init:", "experiment: {gamma_list: [yes]}\nleader_init:",
         "experiment.gamma_list entry must be a number, got True"),
    ], ids=["gamma", "matrix", "matrix-list", "nested-matrix", "mixed-list", "amplitude",
            "gamma_list"])
    def test_yaml_boolean_is_not_a_number(self, old, new, named):
        # numpy would read a boolean as 1.0 or 0.0, also inside a list of floats
        text = minimal()
        assert old in text
        with pytest.raises(ModelError, match=f"^{named}$"):
            load_model(text.replace(old, new, 1))

    def test_numeric_string_is_a_number(self):
        # YAML 1.1 reads 1e-4 (no dot) as a string; it stays a number
        m = load_model(minimal().replace("R0: 1.0", "R0: 1e-4"))
        assert yaml.safe_load("R0: 1e-4") == {"R0": "1e-4"}
        assert m.R0[0, 0, 0] == 1e-4

    def test_zero_r_rejected(self):
        with pytest.raises(ModelError, match="positive definite"):
            load_model(minimal(R=0.0))

    @pytest.mark.parametrize("text, line, key", [
        (minimal(gamma=20.0) + "gamma: 5.0\n", 10, "gamma"),
        (minimal().replace("A0: 0.9,", "A0: 0.9, A0: 0.7,"), 5, "A0"),
    ], ids=["top-level", "nested"])
    def test_duplicate_key_rejected(self, text, line, key):
        with pytest.raises(ModelError, match=f"^config line {line}: duplicate key '{key}'$"):
            load_model(text)

    def test_key_over_a_merge_is_not_a_duplicate(self):
        text = minimal().replace("{A0: 0.9,", "{<<: {A0: 0.5}, A0: 0.9,")
        assert load_model(text).A0[0, 0, 0] == 0.9

    def test_missing_field(self):
        with pytest.raises(ModelError, match="missing"):
            load_model("horizon: 3\nn_followers: 1\ngamma: 1.0\n")

    def test_dimension_mismatch(self):
        text = minimal().replace("A0: 0.9", "A0: [[0.9, 0.1], [0.0, 0.9]]")
        with pytest.raises(ModelError):
            load_model(text)

    def test_mild_asymmetry_symmetrized_with_warning(self):
        with pytest.warns(UserWarning, match="symmetrized"):
            m = load_model(two_state(Q="[[1.0, 1.0e-8], [0.0, 1.0]]"))
        assert m.Q[0, 0, 1] == pytest.approx(0.5e-8)
        assert np.array_equal(m.Q[0], m.Q[0].T)

    def test_large_asymmetry_rejected(self):
        with pytest.raises(ModelError, match="asymmetry"):
            load_model(two_state(Q="[[1.0, 0.01], [0.0, 1.0]]"))

    def test_constant_asymmetry_warns_once(self):
        # A matrix given once is graded as one stack over the horizon: one
        # warning, naming t=1, not one per t.
        text = two_state(Q="[[1.0, 1.0e-8], [0.0, 1.0]]").replace("horizon: 2", "horizon: 30")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_model(text)
        assert [str(w.message) for w in caught] == ["cost.Q at t=1: symmetrized (asymmetry 1e-08)"]

    @pytest.mark.parametrize("Q, noise, message", [
        ("{per_t: [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0e-8], [0.0, 1.0]], "
         "[[1.0, 0.01], [0.0, 1.0]]]}", "", "cost.Q at t=3: asymmetry 0.01 exceeds 1e-06"),
        ("[[1.0, 0.0], [0.0, 1.0]]", "noise: {follower: {per_t: [[[1.0, 0.0], [0.0, 1.0]], "
         "[[1.0, 0.0], [0.0, -0.5]], [[-1.0, 0.0], [0.0, 1.0]]]}}\n",
         r"noise.follower\[t=2\]: not positive semi-definite"),
    ], ids=["asymmetry", "psd"])
    def test_per_t_stack_rejection_names_first_t(self, Q, noise, message):
        # A stack is checked in one pass; the message names its first bad t.
        text = two_state(Q=Q).replace("horizon: 2", "horizon: 3").replace(
            "leader_init:", noise + "leader_init:")
        with pytest.raises(ModelError, match=message):
            load_model(text)

    def test_initial_covariance_asymmetry_rejected(self):
        # the rule of the weights and the noise, not a silent average
        text = two_state(follower_init="{gaussian: {mean: [0.0, 0.0], "
                                       "cov: [[1.0, 0.9], [0.0, 1.0]]}}")
        with pytest.raises(ModelError, match=r"follower_init.cov: asymmetry 0.9 exceeds"):
            load_model(text)

    def test_initial_covariance_mild_asymmetry_symmetrized_with_warning(self):
        text = two_state(follower_init="{gaussian: {mean: [0.0, 0.0], "
                                       "cov: [[1.0, 1.0e-8], [0.0, 1.0]]}}")
        with pytest.warns(UserWarning, match="follower_init.cov: symmetrized"):
            sigma = load_model(text).follower_init.sigma
        assert sigma[0, 1] == sigma[1, 0] == 0.5e-8

    def test_unparseable_text(self):
        with pytest.raises(ModelError):
            load_model("horizon: [unclosed")

    def test_unhashable_key_does_not_parse(self):
        # The duplicate-key check skips a key it cannot hash; the YAML constructor rejects it.
        with pytest.raises(ModelError, match="^config does not parse: (?s:.*)unhashable key"):
            load_model("? [1, 2]\n: 3\n")

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
        ("{uniform: {low: 0.0, high: 2.0}}", "{gaussian: {mean: 1.0, cov: -0.5}}",
         "follower_init.cov: not positive semi-definite"),
        ("{uniform: {low: 0.0, high: 2.0}}", "{gaussian: {mean: [1.0, 2.0], cov: 0.5}}",
         "follower_init.mean: expected dimension 1"),
        ("A0: 0.9", "A0: .nan", "leader.A0: non-finite"),
        ("B: 0.5", "B: [-.inf]", "follower.B: non-finite"),
        ("horizon: 4", "horizon: 0", "^horizon must be >= 1, got 0$"),
        ("horizon: 4", "horizon: -1", "^horizon must be >= 1, got -1$"),
        ("n_followers: 2", "n_followers: 0", "n_followers must be >= 1"),
        ("high: 2.0", "high: -1.0", "follower_init: uniform high < low"),
        ("{uniform: {low: 0.0, high: 2.0}}", "{values: [1.0, 2.0, 3.0]}",
         "follower_init.values must list 1 or n_followers states"),
        ("{value: 1.0}", "{value: .nan}", "leader_init.values: non-finite"),
        ("{value: 1.0}", "{value: null}", "leader_init.values: non-finite"),
        ("{value: 1.0}", "{value: []}", "leader_init: expected one state"),
        ("{value: 1.0}", "{value: [[1.0]]}", "leader_init: expected one state"),
        ("{value: 1.0}", "{values: [1.0, 2.0]}", "leader_init must give one state"),
        ("{uniform: {low: 0.0, high: 2.0}}", "{gaussian: {mean: .nan, cov: 1.0}}",
         "follower_init.mean: non-finite"),
        ("high: 2.0", "high: .inf", "follower_init.high: non-finite"),
        ("{uniform: {low: 0.0, high: 2.0}}", "{uniform: {low: -1.0e308, high: 1.0e308}}",
         "follower_init.uniform: the width high - low overflows"),
        ("low: 0.0", "low: [0.0, 0.0]",
         r"follower_init.low: expected a scalar or shape \(1,\), got shape \(2,\)"),
        ("high: 2.0", "high: [[2.0]]", "follower_init.high: expected a scalar or shape"),
        ("leader_init:", "experiment: {disturbance: {kind: sinusoid, amplitude: .nan}}\n"
         "leader_init:", "experiment.disturbance.amplitude must be finite"),
        ("leader_init:", "experiment: {disturbance: {kind: sinusoid, amplitude: -.inf}}\n"
         "leader_init:", "experiment.disturbance.amplitude must be finite"),
        ("{uniform: {low: 0.0, high: 2.0}}", "{value: 1.0, uniform: {low: 0.0, high: 2.0}}",
         "follower_init: expected one of value/values/gaussian/uniform"),
        ("{uniform: {low: 0.0, high: 2.0}}", "{values: [[1.0, 2.0], [3.0, 4.0]]}",
         "follower_init: values have dimension 2, expected 1"),
        ("horizon: 4", "horizon: 4\nstate_dim: 0", "^state_dim must be >= 1, got 0$"),
    ], ids=["missing-leader-key", "gaussian-without-cov", "uniform-without-high",
            "leader-not-mapping", "misspelled-noise-key", "unknown-leader-key",
            "unknown-follower-key", "unknown-cost-key", "unknown-uniform-key",
            "unknown-leader_init-key", "fractional-horizon", "fractional-n_followers",
            "mapping-in-matrix", "per_t-not-a-list", "gamma-a-list", "mapping-in-init",
            "gamma_list-not-a-list", "gaussian-cov-not-psd", "gaussian-mean-dimension",
            "nan-matrix-entry", "inf-matrix-entry", "zero-horizon", "negative-horizon",
            "zero-n_followers",
            "uniform-high-below-low", "follower-values-count", "nan-initial-value",
            "null-initial-value", "empty-initial-value", "initial-value-rank-3",
            "two-leader-states", "nan-gaussian-mean", "inf-uniform-bound",
            "uniform-width-overflows",
            "uniform-bound-too-long", "uniform-bound-rank-2", "nan-sinusoid-amplitude",
            "inf-sinusoid-amplitude", "two-follower_init-keys", "follower-values-dimension",
            "zero-state_dim"])
    def test_malformed_config_names_the_key(self, old, new, named):
        text = minimal()
        assert old in text
        with pytest.raises(ModelError, match=named):
            load_model(text.replace(old, new, 1))

    def test_zero_horizon_with_empty_per_t_rejected(self):
        # The loader rejects the horizon before it builds stacks of no t.
        text = minimal(T=0).replace("A: 0.8", "A: {per_t: []}")
        with pytest.raises(ModelError, match="^horizon must be >= 1, got 0$"):
            load_model(text)

    def test_gaussian_initials(self):
        text = minimal().replace("{uniform: {low: 0.0, high: 2.0}}",
                                 "{gaussian: {mean: 1.5, cov: 0.25}}")
        init = load_model(text).follower_init
        assert (init.kind, init.dim) == ("gaussian", 1)
        assert init.mean().tolist() == [1.5] and init.cov().tolist() == [[0.25]]

    @pytest.mark.parametrize("rows, cols", [(1, 3), (3, 1)], ids=["row", "column"])
    def test_flat_list_fills_a_row_or_a_column(self, rows, cols):
        arr = _as_matrix([1.0, 2.0, 3.0], rows, cols, "X")
        assert arr.shape == (rows, cols) and arr.ravel().tolist() == [1.0, 2.0, 3.0]

    def test_flat_list_of_another_length_rejected(self):
        with pytest.raises(ModelError, match=r"X: got shape \(3,\), expected 2x1"):
            _as_matrix([1.0, 2.0, 3.0], 2, 1, "X")


class TestDerivedDimensions:
    STACKS = tuple(STACK_DIMS)

    def test_sliced_stacks_give_the_horizon(self, example2):
        T = 4
        m = replace(example2, **{name: getattr(example2, name)[:T] for name in self.STACKS})
        assert m.horizon == T
        assert validate_convexity(m).ok

    def test_state_and_action_dimensions_differ(self):
        m = mixed_dims_model()
        assert (m.horizon, m.state_dim, m.action_dim) == (5, 2, 1)


def bumped(stack, t, i, j, by):
    """A copy of ``stack`` with ``by`` added to entry (i, j) at index t, or at every t for None."""
    stack = stack.copy()
    stack[slice(None) if t is None else t, i, j] += by
    return stack


class TestModelSpecInvariants:
    """Every invariant is checked where the model is made, whichever way it is made."""

    @pytest.mark.parametrize("change, message", [
        (lambda m: {"noise_follower": -m.noise_follower},
         r"^noise.follower\[t=1\]: not positive semi-definite$"),
        (lambda m: {"noise_leader": np.full_like(m.noise_leader, -0.1)},
         r"^noise.leader\[t=1\]: not positive semi-definite$"),
        (lambda m: {"leader_init": InitSpec(kind="deterministic",
                                            values=np.array([[10.0], [12.0]]))},
         "^leader_init must give one state$"),
        (lambda m: {"follower_init": InitSpec(kind="deterministic",
                                              values=np.array([[2.0], [4.0], [6.0]]))},
         "^follower_init.values must list 1 or n_followers states$"),
        # The cases below used to be checked by the loader alone, or not at all: the first
        # was accepted and failed later in numpy, and a None law in an AttributeError.
        (lambda m: {"follower_init": InitSpec(kind="deterministic",
                                              values=np.array([[1.0, 2.0]]))},
         "^follower_init: values have dimension 2, expected 1$"),
        (lambda m: {"follower_init": InitSpec(kind="deterministic", values=np.array([1.0, 2.0]))},
         r"^follower_init.values: expected shape \(count, 1\), got shape \(2,\)$"),
        (lambda m: {"leader_init": InitSpec(kind="deterministic", values=[[1.0]])},
         "^leader_init.values: expected an array, got list$"),
        (lambda m: {"leader_init": None},
         "^leader_init must be an InitSpec of kind deterministic, gaussian or uniform, got None$"),
        (lambda m: {"follower_init": InitSpec(kind="poisson", mu=np.ones(1))},
         "^follower_init must be an InitSpec of kind deterministic, gaussian or uniform, "
         "got InitSpec"),
        (lambda m: {"leader_init": InitSpec(kind="gaussian", mu=np.zeros(2), sigma=np.eye(1))},
         "^leader_init.mean: expected dimension 1$"),
        (lambda m: {"leader_init": InitSpec(kind="gaussian", mu=np.zeros(1), sigma=np.eye(2))},
         r"^leader_init.cov: expected shape \(1, 1\), got shape \(2, 2\)$"),
        (lambda m: {"follower_init": InitSpec(kind="gaussian", mu=np.zeros(1), sigma=-np.eye(1))},
         "^follower_init.cov: not positive semi-definite$"),
        (lambda m: {"follower_init": InitSpec(kind="gaussian", mu=np.array([np.nan]),
                                              sigma=np.eye(1))},
         "^follower_init.mean: non-finite entries$"),
        (lambda m: {"follower_init": InitSpec(kind="uniform", low=np.ones(1), high=np.zeros(1))},
         "^follower_init: uniform high < low$"),
        (lambda m: {"follower_init": InitSpec(kind="uniform", low=np.zeros(2), high=np.ones(2))},
         r"^follower_init.low: expected a scalar or shape \(1,\), got shape \(2,\)$"),
        (lambda m: {"follower_init": InitSpec(kind="uniform", low=np.array([-1e308]),
                                              high=np.array([1e308]))},
         "^follower_init.uniform: the width high - low overflows a float$"),
        (lambda m: {"leader_init": InitSpec(kind="uniform", low=np.zeros(1),
                                            high=np.array(["1"]))},
         "^leader_init.high: expected real numbers, got dtype <U1$"),
        # An unhashable kind used to end in a TypeError from the kind lookup.
        (lambda m: {"leader_init": InitSpec(kind=["deterministic"], values=np.array([[1.0]]))},
         "^leader_init must be an InitSpec of kind deterministic, gaussian or uniform, "
         "got InitSpec"),
    ], ids=["negative-follower-noise", "negative-leader-noise", "two-leader-states",
            "three-follower-states", "follower-two-components", "flat-values", "list-values",
            "leader-none", "unknown-kind", "mean-two-components", "cov-two-by-two",
            "cov-not-psd", "nan-mean", "high-below-low", "low-two-components",
            "width-overflows", "string-bound", "list-kind"])
    def test_replace_checks_noise_and_initials(self, example2, change, message):
        m = example2.with_gamma(EX2_GAMMA)
        with pytest.raises(ModelError, match=message):
            replace(m, **change(m))

    @pytest.mark.parametrize("init, dim", [
        (InitSpec(kind="deterministic", values=np.array([[1.0, 2.0]])), 2),
        (InitSpec(kind="gaussian", mu=np.zeros(3), sigma=np.eye(3)), 3),
        (InitSpec(kind="uniform", low=np.zeros(1), high=np.ones(1)), 1),
    ], ids=["deterministic", "gaussian", "uniform"])
    def test_initial_law_reads_its_dimension_and_draws_batches(self, init, dim):
        assert init.dim == dim and init.cov().shape == (dim, dim)
        rng = np.random.default_rng(0)
        assert [init.sample(rng, count).shape for count in (1, 4)] == [(1, dim), (4, dim)]

    def test_population_size_checks_the_follower_list(self, example2):
        m = point_model(example2.with_gamma(EX2_GAMMA), [10.0], [[2.0], [4.0], [6.0], [8.0]])
        with pytest.raises(ModelError, match="^follower_init.values must list 1 or n_followers"):
            replace(m, n_followers=3)
        assert replace(m, n_followers=4).n_followers == 4

    def test_one_follower_state_serves_any_population(self, example2):
        m = point_model(example2.with_gamma(EX2_GAMMA), [10.0], [[2.0]])
        assert replace(m, n_followers=7).follower_init.sample(None, 7).tolist() == [[2.0]] * 7

    @pytest.mark.parametrize("change, message", [
        (lambda m: {"Q": m.Q[:5]}, r"^Q: expected an array of shape \(30, 1, 1\), "
                                   r"got shape \(5, 1, 1\)$"),
        (lambda m: {"noise_follower": m.noise_follower[:5]},
         r"^noise_follower: expected an array of shape \(30, 1, 1\), got shape \(5, 1, 1\)$"),
        (lambda m: {"n_followers": 2.5}, "^n_followers must be an integer, got 2.5$"),
        (lambda m: {"R": m.R.tolist()}, r"^R: expected an array of shape \(30, 1, 1\), got list$"),
        (lambda m: {"A": m.A * np.inf}, "^A: non-finite entries$"),
        (lambda m: {"noise_leader": m.noise_leader * np.nan}, "^noise_leader: non-finite entries$"),
        (lambda m: {"Q": m.Q.astype(str)}, "^Q: expected real numbers, got dtype <U"),
    ], ids=["short-Q", "short-noise", "fractional-n", "list-R", "infinite-A", "nan-noise",
            "string-Q"])
    def test_shape_and_type_errors_name_the_field(self, example2, change, message):
        # These used to end in a broadcast ValueError inside validate_convexity, in
        # simulate, or in a TypeError later on; an infinite A was accepted and reported
        # feasible, every margin nan.
        m = example2.with_gamma(EX2_GAMMA)
        with pytest.raises(ModelError, match=message):
            replace(m, **change(m))

    @pytest.mark.parametrize("change, message", [
        (lambda m: {"Q": bumped(m.Q, None, 0, 1, 3.0)},
         r"^cost.Q at t=1: asymmetry 0\.909 exceeds 1e-06$"),
        (lambda m: {"R0": bumped(m.R0, 3, 1, 0, 1e-3)},
         r"^cost.R0 at t=4: asymmetry 0\.000833 exceeds 1e-06$"),
        (lambda m: {"noise_follower": bumped(m.noise_follower, None, 0, 1, 0.5)},
         r"^noise.follower at t=1: asymmetry 0\.5 exceeds 1e-06$"),
        (lambda m: {"noise_leader": bumped(m.noise_leader, 5, 1, 0, 1.0)},
         r"^noise.leader at t=6: asymmetry 0\.909 exceeds 1e-06$"),
        (lambda m: {"follower_init": InitSpec(kind="gaussian", mu=np.zeros(2),
                                              sigma=np.array([[1.0, 5.0], [0.0, 1.0]]))},
         "^follower_init.cov: asymmetry 1 exceeds 1e-06$"),
    ], ids=["weight", "weight-at-t4", "follower-noise", "leader-noise-at-t6", "gaussian-sigma"])
    def test_asymmetric_matrix_rejected(self, change, message):
        # eigvalsh reads one triangle: these were accepted, an asymmetric Q then reported
        # infeasible, a noise covariance given a value, and the sigma's symmetric part
        # [[1, 2.5], [2.5, 1]] is indefinite.  The rule and the text are the loader's.
        m = vector_model()
        with pytest.raises(ModelError, match=message):
            replace(m, **change(m))

    def test_asymmetry_within_the_limit_accepted(self):
        # Stored symmetrized, with the one warning the loader gives for this Q.
        m = vector_model()
        Q = m.Q.copy()
        Q[:, 0, 1] += 1e-8
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stored = replace(m, Q=Q).Q
        assert [str(w.message) for w in caught] == ["cost.Q at t=1: symmetrized (asymmetry 1e-08)"]
        assert np.array_equal(stored, (Q + np.swapaxes(Q, 1, 2)) / 2)
        assert np.array_equal(stored, np.swapaxes(stored, 1, 2))

    def test_silent_asymmetry_is_not_read_as_infeasible(self):
        # Kept as given, an asymmetry below the warning limit made _backward flag
        # every t: 6 of 6 infeasible where the symmetric model has a margin of 8.
        m = vector_model()
        Q = m.Q.copy()
        Q[:, 0, 1] += 5e-10
        ric = solve_riccati(replace(m, Q=Q))
        assert ric.feasible
        assert ric.min_margin() == pytest.approx(solve_riccati(m).min_margin(), abs=1e-6)

    def test_only_an_asymmetric_sigma_is_copied(self):
        m = vector_model()
        finit = InitSpec(kind="gaussian", mu=np.zeros(2), sigma=np.array([[1.0, 0.5], [0.5, 2.0]]))
        made = replace(m, follower_init=finit)
        assert made.follower_init is finit
        assert all(getattr(made, name) is getattr(m, name) for name in STACK_DIMS)
        skewed = replace(finit, sigma=finit.sigma + [[0.0, 1e-10], [0.0, 0.0]])
        stored = replace(m, follower_init=skewed).follower_init
        assert stored is not skewed and skewed.sigma[0, 1] == 0.5 + 1e-10
        assert stored.sigma[0, 1] == stored.sigma[1, 0] == (skewed.sigma[0, 1] + 0.5) / 2

    def test_zero_horizon_rejected(self, example2):
        # Stacks of no t used to construct: solve_riccati called the model feasible,
        # optimal_value gave 0.0 and simulate ended in a numpy AxisError.
        with pytest.raises(ModelError, match="^horizon must be >= 1, got 0$"):
            replace(example2, **{name: getattr(example2, name)[:0] for name in STACK_DIMS})

    @pytest.mark.parametrize("dim", ["x", "u"])
    def test_zero_dimension_rejected(self, example2, dim):
        # A state or action dimension of 0 used to end in numpy's "zero-size array to
        # reduction operation" at the first symmetry or convexity check.
        size = {"x": 1, "u": 1, dim: 0}
        T = example2.horizon
        stacks = {name: np.zeros((T, size[rows], size[cols]))
                  for name, (rows, cols) in STACK_DIMS.items()}
        starts = {key: InitSpec(kind="deterministic", values=np.zeros((1, size["x"])))
                  for key in ("leader_init", "follower_init")}
        field = {"x": "state_dim", "u": "action_dim"}[dim]
        with pytest.raises(ModelError, match=f"^{field} must be >= 1, got 0$"):
            replace(example2, **stacks, **starts)

    @pytest.mark.parametrize("name", TestDerivedDimensions.STACKS)
    def test_every_stack_is_checked(self, name):
        m = mixed_dims_model()
        stack = getattr(m, name)
        bad = stack[0] if name in ("A0", "B0") else stack[:-1]  # A0 and B0 set T, lx and lu
        with pytest.raises(ModelError, match=f"^{name}: expected "):
            replace(m, **{name: bad})

    def test_numpy_integer_population_is_accepted(self, example2):
        assert replace(example2, n_followers=np.int64(7)).n_followers == 7

    def test_population_is_stored_as_a_python_int(self, example2):
        # An np.int8 population used to be kept, and simulate overflowed in int8 sizing
        # its blocks.
        m = replace(example2.with_gamma(EX2_GAMMA), n_followers=np.int8(100))
        assert type(m.n_followers) is int and m.n_followers == 100
        records = simulate(m, compute_gains(m, solve_riccati(m)), SimConfig(master_seed=1))
        assert np.isfinite(records[0].total_cost)

    @pytest.mark.parametrize("which", ["example1", "example2", "vector"])
    @pytest.mark.parametrize("gamma", [0.5, 4.0, 1e9, np.float64(2.5)])
    def test_with_gamma_equals_replace(self, request, which, gamma):
        m = vector_model() if which == "vector" else request.getfixturevalue(which)
        got, want = m.with_gamma(gamma), replace(m, gamma=float(gamma))
        assert type(got.gamma) is float
        for f in dataclasses.fields(m):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a is b or a == b, f.name

    def test_with_gamma_does_not_recheck_convexity(self, example2, monkeypatch):
        calls = []
        monkeypatch.setattr(model_module, "validate_convexity",
                            lambda m: calls.append(m) or validate_convexity(m))
        example2.with_gamma(3.0)
        assert calls == []
        replace(example2, gamma=3.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_with_gamma_rejects_a_bad_gamma(self, example2, gamma):
        with pytest.raises(ModelError, match=f"^gamma must be positive and finite, got {gamma!r}$"):
            example2.with_gamma(gamma)

    @pytest.mark.parametrize("gamma", [1e155, 1e300, np.float64(1e300)])
    def test_gamma_whose_square_overflows_rejected(self, example2, gamma):
        # 1e300 used to be accepted and reported feasible; compute_gains then raised
        # OverflowError from gamma ** 2.
        message = "^" + re.escape(f"gamma: its square overflows a float, got {gamma!r}") + "$"
        with pytest.raises(ModelError, match=message):
            example2.with_gamma(gamma)
        with pytest.raises(ModelError, match=message):
            replace(example2, gamma=gamma)
        assert example2.with_gamma(1.34e154).gamma == 1.34e154  # its square is finite

    @pytest.mark.parametrize("gamma", ["2", True, np.bool_(True), None])
    def test_gamma_that_is_not_a_number_rejected(self, example2, gamma):
        # with_gamma used to convert first: "2" gave gamma 2.0 and True gave 1.0.
        with pytest.raises(ModelError, match=f"^gamma must be a number, got {gamma!r}$"):
            example2.with_gamma(gamma)
        with pytest.raises(ModelError, match="^gamma must be a number"):
            replace(example2, gamma=gamma)


def _leaves(node, path=()):
    """The key path of every scalar in a parsed config, lists entered by index."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in _leaves(child, path + (key,))]


def _bundled(which, **sections):
    raw = yaml.safe_load(bundled_config_path(which).read_text(encoding="utf-8"))
    return {**raw, **sections}


LOADER_BASES = [
    _bundled(1), _bundled(2),
    _bundled(2, leader_init={"gaussian": {"mean": 10.0, "cov": 25.0}},
             follower_init={"gaussian": {"mean": 4.0, "cov": 40.0}}),
]
# Integers stay <= 50, so a mutated horizon or dimension allocates small stacks.
LEAF_MUTANTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, None, True, False, "x", [],
                     [1.0, 2.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [[1.0], [2.0]], [[[1.0]]]]),
    st.integers(-2, 50))


@settings(max_examples=60)
@given(data=st.data())
def test_mutated_bundled_config_loads_finite_initials_or_raises_model_error(data):
    raw = copy.deepcopy(data.draw(st.sampled_from(LOADER_BASES)))
    *parents, key = data.draw(st.sampled_from(_leaves(raw)))
    node = raw
    for parent in parents:
        node = node[parent]
    node[key] = data.draw(LEAF_MUTANTS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a symmetrized matrix only warns
        try:
            m = load_model(yaml.safe_dump(raw))
        except ModelError:
            return
    lx = m.state_dim
    for init in (m.leader_init, m.follower_init):
        for arr in (init.values, init.mu, init.sigma, init.low, init.high):
            assert arr is None or np.all(np.isfinite(arr))
        assert init.mean().shape == (lx,) and init.cov().shape == (lx, lx)
    assert m.leader_init.kind != "deterministic" or m.leader_init.values.shape == (1, lx)


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
        # A model is checked when it is made; the first violation names its matrix and t.
        weights = dict(T=3, n=2, gamma=5.0, A0=1.0, B0=1.0, S0=0.0, A=1.0, B=1.0,
                       S=0.0, E=0.0, Q=-1.0, Q0=0.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0)
        with pytest.raises(ModelError, match=r"^Q at t=1 is not positive semi-definite "
                                             r"\(min eig -1\)$"):
            make_model(**weights)
        # Q >= 0 alone is not enough: Q_bar holds Q0 + F in its leader block
        with pytest.raises(ModelError, match=r"^Q_bar at t=1 is not positive semi-definite"):
            make_model(**{**weights, "Q": 1.0, "Q0": -1.0})

    def test_indefinite_looking_cross_block_still_psd(self):
        # Q0=1, F=4, Q=P=0 -> Q_bar = [[5,-4],[-4,4]], det 4 > 0: PSD.
        m = make_model(T=2, n=2, gamma=5.0, A0=1.0, B0=1.0, S0=0.0, A=1.0, B=1.0,
                       S=0.0, E=0.0, Q=0.0, Q0=1.0, F=4.0, P=0.0, R=1.0, R0=1.0, H=0.0)
        aug = build_augmented(m)
        assert np.allclose(aug.Q_bar[0], [[5.0, -4.0], [-4.0, 4.0]])
        evs = np.linalg.eigvalsh(aug.Q_bar[0])
        assert evs.min() > 0  # brute-force eigenvalue check
        assert validate_convexity(m).ok


class TestDisturbancePolicy:
    def test_sinusoid_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown target 'bogus'"):
            DisturbancePolicy.sinusoid(1.0, "bogus")

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "sinusoid", "amplitude": 0.5, "applied_to": "all"}, "^unknown target 'all'$"),
        ({"kind": "worst-case"}, "^unknown disturbance kind 'worst-case'$"),
        ({"kind": "sinusoid", "amplitude": math.inf},
         "^amplitude must be a finite number, got inf$"),
        ({"kind": "sinusoid", "amplitude": "0.5"},
         "^amplitude must be a finite number, got '0.5'$"),
        ({"kind": "worst_case", "use_estimate": "no"}, "^use_estimate must be a bool, got 'no'$"),
        ({"kind": "worst_case", "use_estimate": 1}, "^use_estimate must be a bool, got 1$"),
    ], ids=["unknown-target", "hyphenated-kind", "infinite-amplitude", "string-amplitude",
            "string-use_estimate", "int-use_estimate"])
    def test_checked_where_made(self, fields, message):
        # An unknown target used to run as the zero policy, the hyphenated kind
        # failed only at t = 1 inside simulate, and use_estimate "no" read as True.
        with pytest.raises(ModelError, match=message):
            DisturbancePolicy(**fields)

    @pytest.mark.parametrize("flag", [True, False, np.bool_(True), np.bool_(False)])
    def test_use_estimate_takes_python_and_numpy_bools(self, flag):
        assert DisturbancePolicy.worst_case(use_estimate=flag).use_estimate == flag


class TestInfoStructure:
    def test_mfs_observes_everything(self):
        info = InfoStructure.mfs()
        assert all(info.observed(t) for t in range(1, 6))

    def test_no_sharing_is_empty_imfs(self):
        assert InfoStructure().observation_times == frozenset()
        assert InfoStructure.imfs([]).observation_times == frozenset()

    @pytest.mark.parametrize("time", [True, 1.5, 0, -3, "2"])
    def test_imfs_rejects_a_time_that_is_not_a_whole_number_from_1(self, time):
        rule = "must be >= 1" if type(time) is int else "must be an integer"
        with pytest.raises(ValueError, match=f"^observation time {rule}, got {time!r}$"):
            InfoStructure.imfs([4, time])

    @pytest.mark.parametrize("times, message", [
        (frozenset({1.5}), "^observation time must be an integer, got 1.5$"),
        (frozenset({0, 3}), "^observation time must be >= 1, got 0$"),
        (frozenset({"2"}), "^observation time must be an integer, got '2'$"),
        ([1, 2], r"^observation_times must be a frozenset or None, got \[1, 2\]$"),
    ], ids=["fraction", "zero", "string", "list"])
    def test_made_directly_checks_each_time(self, times, message):
        # A time of 1.5 used to be accepted and never observed: a silent no-sharing run.
        with pytest.raises(ValueError, match=message):
            InfoStructure(times)

    def test_imfs_checks_the_times_before_merging_them(self):
        # frozenset({1, 1.0}) is {1}: the list is checked, not the set.
        with pytest.raises(ValueError, match="^observation time must be an integer, got 1.0$"):
            InfoStructure.imfs([1, 1.0])

    def test_imfs_takes_numpy_integers_and_iterators(self):
        want = frozenset({2, 5})
        assert InfoStructure.imfs(np.array([2, 5])).observation_times == want
        assert InfoStructure.imfs(t for t in (5, 2, 5)).observation_times == want

    def test_imfs_full_equals_mfs_set(self):
        full, mfs = InfoStructure.imfs(range(1, 8)), InfoStructure.mfs()
        assert all(full.observed(t) == mfs.observed(t) for t in range(1, 8))
