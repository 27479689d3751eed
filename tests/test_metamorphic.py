"""Metamorphic relations: transforms of a model with a known effect on every output.

No reference implementation is involved.  Scaling the cost by c = 4 and
gamma by 2 is exact in floating point, so its relations hold bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from mfminmax.model import DisturbancePolicy, InfoStructure
from mfminmax.sim import SimConfig, simulate
from mfminmax.synthesis import compute_gains, critical_gamma, optimal_value, solve_riccati

from conftest import EX1_GAMMA, EX2_GAMMA, mixed_dims_model, scale_cost, vector_model

C = 4.0
MODELS = ["example1", "example2", "vector", "mixed_dims"]
# (lo, hi) brackets around each model's critical gamma
BRACKETS = {"example1": (10.0, 20.0), "example2": (1.0, 4.0), "vector": (1.0, 3.5),
            "mixed_dims": (1.0, 5.0)}
GAIN_FIELDS = ("L_brev", "L_bar", "K_brev", "K_bar")
STATE_FIELDS = ("x0", "xbar", "mhat", "u0", "ubar", "d0", "xi", "ui", "di")


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


class TestCostScaling:
    def test_recursions_scale_and_gains_do_not_move(self, case):
        _, m = case
        m_c = scale_cost(m, C)
        ric, ric_c = solve_riccati(m), solve_riccati(m_c)
        assert bits(ric_c.M_brev, ric_c.M_bar) == bits(C * ric.M_brev, C * ric.M_bar)
        assert gain_bits(compute_gains(m_c, ric_c)) == gain_bits(compute_gains(m, ric))
        assert optimal_value(m_c, ric_c) == C * optimal_value(m, ric)

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
