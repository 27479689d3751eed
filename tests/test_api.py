"""The public surface, and the calls the benchmark in perfbench/ makes, in the form it makes them.

A refactor that would break the benchmark's set-up or workloads fails here first.
"""

import importlib

import numpy as np
import pytest

import mfminmax as mf
import mfminmax.cli  # noqa: F401  (the package does not import its CLI)

MODULES = ["mfminmax", "mfminmax.model", "mfminmax.synthesis", "mfminmax.strategy",
           "mfminmax.sim", "mfminmax.oracle"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [key for key in module.__all__ if not hasattr(module, key)] == []


@pytest.mark.parametrize("which", [1, 2])
def test_setup_loads_and_validates_each_bundled_config(which):
    # perfbench/run.py SETUP_CODE, in a fresh interpreter there
    path = mf.cli.bundled_config_path(which)
    assert path.is_file()
    assert mf.validate_convexity(mf.load_model_file(path)).ok is True


def test_rng_reference_is_the_keyed_philox_stream():
    # perfbench/run.py compares its replica of the substream scheme with sim._rng
    want = np.random.Generator(np.random.Philox(np.random.SeedSequence((7, 3, 5))))
    assert np.array_equal(mf.sim._rng(7, 3, 5).random(8), want.random(8))


def test_workload_calls():
    model = mf.load_model_file(mf.cli.bundled_config_path(2)).with_gamma(4.0)
    gains = mf.compute_gains(model, mf.solve_riccati(model))
    rows = mf.imfs_gap_study(model, gains, [2, 3], 7, 2,
                             disturbance=mf.DisturbancePolicy.worst_case())
    assert [row["n"] for row in rows] == [2, 3]
    assert all(np.isfinite(row["gap"]) for row in rows)
    assert 2.02 < mf.critical_gamma(model, 1.0, 4.0, tol=1e-3) < 2.04
    cfg = mf.SimConfig(master_seed=7, num_runs=1, disturbance=mf.DisturbancePolicy.worst_case())
    assert len(mf.simulate(model, gains, cfg)) == 1
