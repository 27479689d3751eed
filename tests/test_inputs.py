"""Every integer and bool input of the package, each tried with the same eight values.

An integer field takes a Python or numpy integer, not a bool, of at least its least
value, and stores it as a Python int; a bool field takes a Python or numpy bool and
stores a Python bool; a gamma takes a positive finite real and stores a float; a field
of any other type takes none of the values.  Every value a field does not take is a
ModelError whose text starts with the field's name.  The other malformed inputs the
package checks (an empty sequence of arms or sizes, gains or a solution of another
model, a start point of the wrong shape) are ModelErrors too.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mfminmax.cli import EXIT_FAIL, bundled_config_path, main
from mfminmax.model import DisturbancePolicy, Experiment, InfoStructure, ModelError
from mfminmax.oracle import imfs_gap_study, point_model, saddle_check
from mfminmax.sim import SimConfig, simulate
from mfminmax.synthesis import compute_gains, optimal_value, solve_riccati

from conftest import EX2_GAMMA, zero_weight_model

VALUES = [None, True, "3", 2.5, 2.0, np.int8(3), -1, 0]
VALUE_IDS = ["None", "True", "str", "2.5", "2.0", "int8", "-1", "0"]

# A function argument whose stored form is not visible: taking it is all it shows.
TAKEN = object()


def _want(rule, value):
    """What a field under ``rule`` stores for ``value``, or None if it must reject it."""
    kind, least = rule
    if kind == "count":
        whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        return int(value) if whole and value >= least else None
    if kind == "flag":
        return bool(value) if isinstance(value, (bool, np.bool_)) else None
    if kind == "gamma":
        real = isinstance(value, (int, float, np.number)) and not isinstance(value, bool)
        return float(value) if real and value > 0 else None
    return None  # a field of another type


# (field, rule, the name its texts start with, how a value reaches it)
FIELDS = [
    ("ModelSpec.n_followers", ("count", 1), "n_followers",
     lambda s, v: replace(s.model, n_followers=v).n_followers),
    ("ModelSpec.experiment", ("type", None), "experiment",
     lambda s, v: replace(s.model, experiment=v)),
    ("Experiment.seed", ("count", 0), "experiment.seed", lambda s, v: Experiment(seed=v).seed),
    ("Experiment.runs", ("count", 1), "experiment.runs", lambda s, v: Experiment(runs=v).runs),
    ("Experiment.gamma_list", ("type", None), "experiment.gamma_list",
     lambda s, v: Experiment(gamma_list=v)),
    ("Experiment.gamma_list-entry", ("gamma", None), "experiment.gamma_list entry",
     lambda s, v: Experiment(gamma_list=[v]).gamma_list[0]),
    ("Experiment.disturbance", ("type", None), "experiment.disturbance",
     lambda s, v: Experiment(disturbance=v)),
    ("InfoStructure.imfs", ("count", 1), "observation time",
     lambda s, v: min(InfoStructure.imfs([v]).observation_times)),
    ("InfoStructure-direct", ("count", 1), "observation time",
     lambda s, v: min(InfoStructure(frozenset([v])).observation_times)),
    ("SimConfig.master_seed", ("count", 0), "master_seed",
     lambda s, v: SimConfig(master_seed=v).master_seed),
    ("SimConfig.num_runs", ("count", 1), "num_runs",
     lambda s, v: SimConfig(0, num_runs=v).num_runs),
    ("SimConfig.retain_full_states", ("flag", None), "retain_full_states",
     lambda s, v: SimConfig(0, retain_full_states=v).retain_full_states),
    ("SimConfig.use_worst_case_dbar", ("flag", None), "use_worst_case_dbar",
     lambda s, v: SimConfig(0, use_worst_case_dbar=v).use_worst_case_dbar),
    ("DisturbancePolicy.use_estimate", ("flag", None), "use_estimate",
     lambda s, v: DisturbancePolicy.worst_case(use_estimate=v).use_estimate),
    ("saddle_check.num_directions", ("count", 1), "num_directions",
     lambda s, v: 1 + max(k for _, k, _, _ in
                          saddle_check(s.point, s.point_gains, num_directions=v).perturbations)),
    ("saddle_check.seed", ("count", 0), "seed",
     lambda s, v: saddle_check(s.point, s.point_gains, num_directions=1, seed=v) and TAKEN),
    ("imfs_gap_study.n_list", ("count", 1), "population size",
     lambda s, v: imfs_gap_study(s.model, s.gains, [v], 0, 1)[0]["n"]),
    ("imfs_gap_study.info", ("type", None), "arms[1]",
     lambda s, v: imfs_gap_study(s.model, s.gains, [2], 0, 1, info=v)),
    ("simulate.arms", ("type", None), "arms[0]",
     lambda s, v: simulate(s.model, s.gains, SimConfig(0), arms=[v])),
    ("simulate.sizes", ("count", 1), "sizes[0]",
     lambda s, v: simulate(s.model, s.gains, SimConfig(0, retain_full_states=True),
                           sizes=[v])[0][0].xi.shape[1]),
]


@pytest.fixture(scope="module")
def setting(example2):
    model = example2.with_gamma(EX2_GAMMA)
    point = point_model(model, [10.0], [[2.0], [6.0]])
    short = zero_weight_model()  # T = 5 against example 2's 30
    return SimpleNamespace(model=model, gains=compute_gains(model, solve_riccati(model)),
                           point=point, point_gains=compute_gains(point, solve_riccati(point)),
                           short_gains=compute_gains(short, solve_riccati(short)))


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("field, rule, name, reach", FIELDS, ids=[f[0] for f in FIELDS])
def test_each_value_is_stored_or_rejected_naming_the_field(setting, field, rule, name, reach,
                                                           value):
    want = _want(rule, value)
    if want is None:
        with pytest.raises(ModelError) as caught:
            reach(setting, value)
        assert str(caught.value).startswith(f"{name} "), str(caught.value)
    else:
        got = reach(setting, value)
        assert got is TAKEN or (got == want and type(got) is type(want))


# (a malformed input that is not an integer or bool field, the start of its text, the call)
MALFORMED = [
    ("simulate-no-arms", "arms must hold at least one information structure",
     lambda s: simulate(s.model, s.gains, SimConfig(0), arms=())),
    ("simulate-late-observation", "observation time 99 is past the horizon 30",
     lambda s: simulate(s.model, s.gains, SimConfig(0, info=InfoStructure.imfs([99])))),
    ("simulate-no-sizes", "sizes must hold at least one population size",
     lambda s: simulate(s.model, s.gains, SimConfig(0), sizes=[])),
    ("simulate-size-off-the-list", "follower_init.values must list 1 or n_followers states",
     lambda s: simulate(s.point, s.point_gains, SimConfig(0), sizes=[2, 3])),
    ("simulate-gains-of-another-horizon", "the gains' L_brev has shape (5, 1, 1)",
     lambda s: simulate(s.model, s.short_gains, SimConfig(0))),
    ("compute_gains-solution-of-another-gamma", "the solution is for gamma=",
     lambda s: compute_gains(s.model, solve_riccati(s.model.with_gamma(5.0)))),
    ("optimal_value-solution-of-another-horizon", "the solution's M_brev has shape (6, 1, 1)",
     lambda s: optimal_value(s.model, solve_riccati(replace(zero_weight_model(),
                                                            gamma=s.model.gamma)))),
    ("point_model-leader", "leader must hold lx = 1 values",
     lambda s: point_model(s.model, [1.0, 2.0], [[1.0]])),
    ("point_model-followers", "followers must be (n, lx) = (n, 1)",
     lambda s: point_model(s.model, [1.0], [[1.0, 2.0]])),
]


@pytest.mark.parametrize("text, call", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_is_a_model_error(setting, text, call):
    with pytest.raises(ModelError) as caught:
        call(setting)
    assert type(caught.value) is ModelError
    assert str(caught.value).startswith(text), str(caught.value)


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--seed", "-1"], "--seed"),
    (["simulate", "--runs", "0"], "--runs"),
    (["verify", "--directions", "0"], "--directions"),
    (["gap-study", "--n", "0"], "--n"),
], ids=["seed", "runs", "directions", "n"])
def test_cli_count_faults_name_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    code = main(argv + ["--config", str(bundled_config_path(2)), "--out", str(out)])
    assert code == EXIT_FAIL
    assert capsys.readouterr().err.startswith(f"error: {flag} ")
    assert not out.exists()
