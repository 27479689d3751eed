"""Metamorphic relations: transforms of a model with a known effect on every output.

No reference implementation is involved.  Scaling the cost by c = 4 and
gamma by 2 is exact in floating point, so its relations hold bit for bit;
other scalings, orthogonal coordinates and a permuted follower list hold to
rounding.
"""

from dataclasses import replace

import numpy as np
import pytest

from mfminmax import oracle
from mfminmax.model import DisturbancePolicy, InfoStructure, InitSpec
from mfminmax.oracle import point_model, saddle_check, stacked_saddle_solve
from mfminmax.sim import SimConfig, simulate
from mfminmax.synthesis import compute_gains, critical_gamma, optimal_value, solve_riccati

from conftest import EX1_GAMMA, EX2_GAMMA, mixed_dims_model, rotate, scale_cost, vector_model

C = 4.0
MODELS = ["example1", "example2", "vector", "mixed_dims"]
# (lo, hi) brackets around each model's critical gamma
BRACKETS = {"example1": (10.0, 20.0), "example2": (1.0, 4.0), "vector": (1.0, 3.5),
            "mixed_dims": (1.0, 5.0)}
GAIN_FIELDS = ("L_brev", "L_bar", "K_brev", "K_bar")
STATE_FIELDS = ("x0", "xbar", "mhat", "u0", "ubar", "xi")


@pytest.fixture(params=MODELS)
def case(request):
    """(name, a feasible model) for each of the four models."""
    name = request.param
    if name == "example1":
        return name, request.getfixturevalue("example1").with_gamma(EX1_GAMMA)
    if name == "example2":
        return name, request.getfixturevalue("example2").with_gamma(EX2_GAMMA)
    return name, vector_model() if name == "vector" else mixed_dims_model()


def bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def gain_bits(gains):
    return bits(*(getattr(gains, f) for f in GAIN_FIELDS))


def assert_close(got, want, rel):
    """``got`` equals ``want`` to ``rel`` times the largest magnitude in ``want``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestCostScaling:
    def test_recursions_scale_and_gains_do_not_move(self, case):
        _, m = case
        m_c = scale_cost(m, C)
        ric, ric_c = solve_riccati(m), solve_riccati(m_c)
        assert bits(ric_c.M_brev, ric_c.M_bar) == bits(C * ric.M_brev, C * ric.M_bar)
        assert gain_bits(compute_gains(m_c, ric_c)) == gain_bits(compute_gains(m, ric))
        assert optimal_value(m_c, ric_c) == C * optimal_value(m, ric)

    def test_any_scale_holds_to_rounding(self, case):
        # c = 2.25 and gamma times 1.5 are not exact, so each output is c times
        # (the gains: equal to) the unscaled one to rounding.
        _, m = case
        c = 2.25
        m_c = scale_cost(m, c)
        ric, ric_c = solve_riccati(m), solve_riccati(m_c)
        for f in ("M_brev", "M_bar", "c_brev", "c_bar", "margin_brev", "margin_bar"):
            assert_close(getattr(ric_c, f), c * getattr(ric, f), rel=1e-14)
        gains, gains_c = compute_gains(m, ric), compute_gains(m_c, ric_c)
        for f in GAIN_FIELDS:
            assert_close(getattr(gains_c, f), getattr(gains, f), rel=1e-14)
        assert_close(optimal_value(m_c, ric_c), c * optimal_value(m, ric), rel=1e-14)

    def test_critical_gamma_doubles(self, case):
        name, m = case
        lo, hi = BRACKETS[name]
        gstar = critical_gamma(m, lo, hi, tol=1e-6)
        assert critical_gamma(scale_cost(m, C), 2 * lo, 2 * hi, tol=2e-6) == 2 * gstar

    def test_simulated_states_match_and_stage_costs_scale(self, case):
        _, m = case
        m_c = scale_cost(m, C)
        gains = compute_gains(m, solve_riccati(m))
        gains_c = compute_gains(m_c, solve_riccati(m_c))
        arms = (InfoStructure.mfs(), InfoStructure(), InfoStructure.imfs([1, 3]))
        for disturbance in (DisturbancePolicy.worst_case(),
                            DisturbancePolicy.sinusoid(0.5, "both")):
            cfg = SimConfig(master_seed=5, num_runs=2, retain_full_states=True,
                            disturbance=disturbance)
            for records, records_c in zip(simulate(m, gains, cfg, arms=arms),
                                          simulate(m_c, gains_c, cfg, arms=arms)):
                for rec, rec_c in zip(records, records_c):
                    assert not rec.failed and not rec_c.failed
                    assert (bits(*(getattr(rec_c, f) for f in STATE_FIELDS))
                            == bits(*(getattr(rec, f) for f in STATE_FIELDS)))
                    assert bits(rec_c.stage_costs) == bits(C * rec.stage_costs)


class TestPopulationSize:
    def test_gains_do_not_depend_on_n(self, case):
        _, m = case
        n = m.n_followers
        other = replace(m, n_followers=7 * n + 3)
        gains = compute_gains(m, solve_riccati(m))
        assert gain_bits(compute_gains(other, solve_riccati(other))) == gain_bits(gains)


def orthogonal(dim: int, seed: int = 3) -> np.ndarray:
    """A random orthogonal matrix, neither a permutation nor a sign flip."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def start(kind: str, lx: int, shift: float) -> InitSpec:
    if kind == "deterministic":
        return InitSpec(kind=kind, values=np.array([[1.0 + shift, -2.0]]))
    return InitSpec(kind=kind, mu=np.array([0.5, -1.0 + shift]),
                    sigma=np.array([[2.0, 0.3], [0.3, 1.0 + shift]]))


class TestOrthogonalCoordinates:
    @pytest.mark.parametrize("kind", ["deterministic", "gaussian"])
    @pytest.mark.parametrize("make", [vector_model, mixed_dims_model], ids=["vector", "mixed_dims"])
    def test_value_and_margins_hold_and_gains_rotate(self, make, kind):
        # x -> U x: the value, margins and noise constants do not move; u = L x
        # becomes L U' (U x) and d = K x becomes U K U' (U x).
        m = make()
        m = replace(m, leader_init=start(kind, m.state_dim, 0.5),
                    follower_init=start(kind, m.state_dim, 0.0))
        U = orthogonal(m.state_dim)
        m_u = rotate(m, U)
        ric, ric_u = solve_riccati(m), solve_riccati(m_u)
        assert_close(optimal_value(m_u, ric_u), optimal_value(m, ric), rel=1e-12)
        for f in ("margin_brev", "margin_bar", "c_brev", "c_bar"):
            assert_close(getattr(ric_u, f), getattr(ric, f), rel=1e-12)
        gains, gains_u = compute_gains(m, ric), compute_gains(m_u, ric_u)
        U2 = np.kron(np.eye(2), U)  # on [leader; mean]
        assert_close(gains_u.L_brev, gains.L_brev @ U.T, rel=1e-12)
        assert_close(gains_u.L_bar, gains.L_bar @ U2.T, rel=1e-12)
        assert_close(gains_u.K_brev, U @ gains.K_brev @ U.T, rel=1e-12)
        assert_close(gains_u.K_bar, U2 @ gains.K_bar @ U2.T, rel=1e-12)
        assert np.abs(gains_u.L_brev - gains.L_brev).max() > 1e-3  # the coordinates did move

    def test_a_uniform_box_does_not_rotate(self):
        with pytest.raises(ValueError, match="uniform"):
            rotate(vector_model(), orthogonal(2))


def agent_order(perm, dim):
    """Stacked indices of [agent 0; followers in ``perm`` order], ``dim`` entries each."""
    return np.concatenate([np.arange(dim) + k * dim for k in [0] + [1 + p for p in perm]])


class TestFollowerPermutation:
    PERM = [3, 0, 4, 1, 2]

    @pytest.mark.parametrize("which", ["example2", "vector", "mixed_dims"])
    def test_stacked_value_and_saddle_check_hold(self, request, monkeypatch, which):
        base = (request.getfixturevalue("example2").with_gamma(EX2_GAMMA) if which == "example2"
                else vector_model() if which == "vector" else mixed_dims_model())
        lx, lu = base.state_dim, base.action_dim
        followers = np.random.default_rng(0).uniform(-5.0, 5.0, (5, lx))
        m = point_model(base, np.ones(lx), followers)
        m_p = point_model(base, np.ones(lx), followers[self.PERM])
        value = stacked_saddle_solve(m).value(m)
        assert_close(stacked_saddle_solve(m_p).value(m_p), value, rel=1e-14)

        gains = compute_gains(m, solve_riccati(m))
        report = saddle_check(m, gains, num_directions=6)
        # saddle_check draws its directions in agent order, so the permuted model is
        # checked along the same directions with their agent blocks permuted likewise.
        rows_u, rows_x = agent_order(self.PERM, lu), agent_order(self.PERM, lx)
        default_rng = np.random.default_rng

        class PermutedDraws:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, shape):
                rows = rows_u if shape[1] == rows_u.size else rows_x
                return self.rng.standard_normal(shape)[:, rows][:, :, rows_x]

        monkeypatch.setattr(oracle.np.random, "default_rng", PermutedDraws)
        report_p = saddle_check(m_p, gains, num_directions=6)
        assert report.ok and report_p.ok
        assert_close(report_p.base_cost, report.base_cost, rel=1e-14)
        # Each delta is a difference of two costs, so its rounding is that of the
        # costs: hold it to 1e-14 of the base cost.
        deltas = [[d for *_, d in r.perturbations] for r in (report, report_p)]
        assert np.abs(np.subtract(*deltas)).max() <= 1e-14 * abs(report.base_cost)
        assert [p[:3] for p in report_p.perturbations] == [p[:3] for p in report.perturbations]
