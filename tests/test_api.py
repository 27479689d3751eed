"""The public surface, and the calls the benchmark in perfbench/ makes, in the form it makes them.

A refactor that would break the benchmark's set-up or workloads fails here first.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

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


# perfbench/run.py SETUP_CODE's steps, then the package's modules at that point and
# the first use of a name and a submodule of a lazily loaded layer.
FRESH_SETUP = """
import json, sys
import mfminmax
for path in sys.argv[1:]:
    if not mfminmax.validate_convexity(mfminmax.load_model_file(path)).ok:
        raise SystemExit("convexity check failed: " + path)
loaded = lambda: sorted(name for name in sys.modules if name.split(".")[0] == "mfminmax")
print(json.dumps([mfminmax.__file__, loaded()]), flush=True)
same = mfminmax.sim.simulate is mfminmax.simulate
print(json.dumps([same, mfminmax.cli.__name__, loaded()]))
"""


@pytest.mark.parametrize("which", [1, 2])
def test_setup_loads_the_model_layer_alone(which):
    paths = [str(Path(mf.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    config = str(mf.cli.bundled_config_path(which))
    proc = subprocess.run([sys.executable, "-c", FRESH_SETUP, config], env=env,
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert json.loads(lines[0]) == [mf.__file__, ["mfminmax", "mfminmax.model"]]
    assert proc.returncode == 0, proc.stderr
    same, cli_name, after_use = json.loads(lines[1])
    assert same is True and cli_name == "mfminmax.cli"
    assert after_use == sorted(MODULES + ["mfminmax.cli"])


def test_dir_and_star_import_hold_every_exported_name():
    assert [name for name in mf.__all__ if name not in dir(mf)] == []
    namespace = {}
    exec("from mfminmax import *", namespace)
    assert [name for name in mf.__all__ if name not in namespace] == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'mfminmax' has no attribute 'no_such_name'$"):
        mf.no_such_name


def test_a_name_reaches_its_home_modules_binding(monkeypatch):
    # perfbench/spans.Tracer replaces a function in its home module and later restores it;
    # the package's name must follow both, so it may hold no copy of its own.
    original = mf.synthesis.solve_riccati
    monkeypatch.setattr(mf.synthesis, "solve_riccati", len)
    assert mf.solve_riccati is len
    monkeypatch.undo()
    assert mf.solve_riccati is original


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


def test_workflow_digest_loops_list_every_workload():
    # The workflow's digest loops name the workloads by hand; each must list exactly
    # perfbench/workloads.py's NAMES, read from its source without importing it.
    root = Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["NAMES"])
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tests.yml").read_text())
    loops = [line.split(" in ", 1)[1].removesuffix("; do").split()
             for job in workflow["jobs"].values() for step in job["steps"]
             for line in step.get("run", "").splitlines()
             if line.strip().startswith("for workload in ")]
    assert len(loops) == 2
    assert all(tuple(loop) == names for loop in loops), loops
