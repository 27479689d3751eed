"""The four benchmark workloads: what one pass calls and how its outputs are checked.

A workload is a list of operations.  Each operation calls the package from
outside, through its public functions or ``mfminmax.cli.main``, writes only
into the directory it is given, and returns a value.  The checks run after
the timed region and look at that value and at the files written.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import numpy as np
import yaml

NAMES = ("mc-gap", "mc-large-n", "example1-csv", "verify-boundary")

GAMMA2 = 4.0                # example 2's feasible point in criteria 2 and 6
GAP_N = (10, 50, 250)
GAP_RUNS = 20               # criterion 6 uses 500; 20 keeps one pass near 1.5 s
LARGE_N = 10_000
LARGE_RUNS = 50
CSV_RUNS = 20               # about 5 MB of trajectory CSV per pass
VERIFY_N = 4
# Criterion 7: the bisection bracket, and the window that must hold gamma*.
BOUNDARY = {1: ((5.0, 50.0), (13.25, 13.36)), 2: ((0.5, 20.0), (1.98, 2.08))}
GRID_STEP = 0.002
TOL = 1e-6
# Runs per population size for the simulation-rate probe (see probe_rates);
# the smallest and largest sizes give sim.ns_per_follower_step.
PROBE_RUNS = {10: 10, 50: 10, 250: 10, 10_000: 4}
PROBE_REPEATS = 5


@dataclass
class Op:
    name: str
    call: Callable[[Path], object]          # writes only under the given directory
    check: Callable[[object, Path], list]   # problems found in the value and the files


@dataclass
class Workload:
    model_paths: list   # what the set-up measurement loads and validates
    ops: list
    draws: list         # (seed, runs, model): Monte Carlo configs, each distinct substream once
    probe_model: object  # feasible model for the per-n simulation rates
    work: dict          # work per pass, from the workload definition


def make(name: str, mf, seed: int, workdir: Path) -> Workload:
    """Build workload ``name`` for ``seed``; generated inputs go under ``workdir``."""
    return {
        "mc-gap": _mc_gap,
        "mc-large-n": _mc_large_n,
        "example1-csv": _example1_csv,
        "verify-boundary": _verify_boundary,
    }[name](mf, seed, workdir)


def _cli(mf, argv: list) -> tuple:
    """``mfminmax.cli.main`` with its printed output captured: (exit code, text)."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = mf.cli.main(argv)
    return code, text.getvalue()


def _exit_problems(value) -> list:
    code, text = value
    return [] if code == 0 else [f"exit code {code}: {text.strip()[-300:]}"]


def _summary_problems(out: Path, gammas: int) -> list:
    path = out / "summary.csv"
    if not path.is_file():
        return ["summary.csv missing"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = [] if len(rows) == gammas else [f"summary has {len(rows)} rows, expected {gammas}"]
    for row in rows:
        if row["feasible"] != "True" or not math.isfinite(float(row["mean_cost"])):
            problems.append(f"gamma {row['gamma']}: feasible={row['feasible']} "
                            f"mean_cost={row['mean_cost']}")
    return problems


def _mc_gap(mf, seed, workdir):
    path = mf.cli.bundled_config_path(2)
    model = mf.load_model_file(path).with_gamma(GAMMA2)

    def call(out):
        gains = mf.compute_gains(model, mf.solve_riccati(model))
        return mf.imfs_gap_study(model, gains, list(GAP_N), seed, GAP_RUNS,
                                 disturbance=mf.DisturbancePolicy.worst_case())

    def check(rows, out):
        if [row["n"] for row in rows] != list(GAP_N):
            return [f"gap study rows cover n={[row['n'] for row in rows]}"]
        return [f"n={row['n']}: non-finite cost {row}" for row in rows
                if not all(math.isfinite(row[k]) for k in ("j_mfs", "j_imfs", "gap"))]

    arm_steps = GAP_RUNS * model.horizon  # both arms, full and no sharing, at each n
    return Workload(
        model_paths=[path], ops=[Op("gap-study", call, check)],
        draws=[(seed, GAP_RUNS, replace(model, n_followers=n)) for n in GAP_N],
        probe_model=model,
        work={"run_steps": 2 * arm_steps * len(GAP_N),
              "follower_steps": 2 * arm_steps * sum(GAP_N)})


def _mc_large_n(mf, seed, workdir):
    raw = yaml.safe_load(Path(mf.cli.bundled_config_path(1)).read_text(encoding="utf-8"))
    raw["n_followers"] = LARGE_N
    path = workdir / f"example1_n{LARGE_N}.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    model = mf.load_model_file(path)
    argv = ["simulate", "--config", str(path), "--disturbance", "worst-case",
            "--observe", "all", "--seed", str(seed), "--runs", str(LARGE_RUNS)]

    def call(out):
        return _cli(mf, argv + ["--out", str(out)])

    def check(value, out):
        return _exit_problems(value) or _summary_problems(out, 1)

    steps = LARGE_RUNS * model.horizon
    return Workload(
        model_paths=[path], ops=[Op("simulate", call, check)],
        draws=[(seed, LARGE_RUNS, model)], probe_model=model,
        work={"run_steps": steps, "follower_steps": steps * LARGE_N})


def _example1_csv(mf, seed, workdir):
    path = mf.cli.bundled_config_path(1)
    model = mf.load_model_file(path)
    gammas = len(yaml.safe_load(path.read_text(encoding="utf-8"))["experiment"]["gamma_list"])
    argv = ["run-example", "1", "--seed", str(seed), "--runs", str(CSV_RUNS)]

    def call(out):
        return _cli(mf, argv + ["--out", str(out)])

    def check(value, out):
        problems = _exit_problems(value) or _summary_problems(out, gammas)
        found = len(list(out.glob("trajectories_gamma_*.csv")))
        if found != gammas:
            problems.append(f"{found} trajectory files, expected {gammas}")
        return problems

    steps = gammas * CSV_RUNS * model.horizon
    return Workload(
        model_paths=[path], ops=[Op("run-example-1", call, check)],
        draws=[(seed, CSV_RUNS, model)], probe_model=model,
        work={"run_steps": steps, "follower_steps": steps * model.n_followers})


def _verify_boundary(mf, seed, workdir):
    paths = {k: mf.cli.bundled_config_path(k) for k in BOUNDARY}
    models = {k: mf.load_model_file(p) for k, p in paths.items()}
    verify_argv = ["verify", "--config", str(paths[2]), "--gamma", str(GAMMA2),
                   "--n", str(VERIFY_N), "--seed", str(seed)]

    def verify(out):
        return _cli(mf, verify_argv + ["--out", str(out)])

    def verify_check(value, out):
        problems = _exit_problems(value)
        report = out / "report.txt"
        if not report.is_file() or "verdict: PASS" not in report.read_text(encoding="utf-8"):
            problems.append("verify did not report PASS")
        return problems

    def boundary(k):
        base = models[k]
        bracket, window = BOUNDARY[k]
        # The seed shifts the grid within one cell, so each seed probes other gammas.
        offset = float(np.random.default_rng((seed, k)).uniform(0.0, GRID_STEP))
        grid = np.arange(window[0] + offset, window[1], GRID_STEP)

        def call(out):
            gstar = mf.critical_gamma(base, *bracket, tol=TOL)
            flags = [mf.solve_riccati(base.with_gamma(float(g))).feasible for g in grid]
            return gstar, grid.tolist(), flags

        def check(value, out):
            gstar, cells, flags = value
            if not window[0] < gstar < window[1]:
                return [f"critical gamma {gstar!r} outside {window}"]
            if flags[0] or not flags[-1]:
                return [f"grid over {window} does not straddle the boundary"]
            first = flags.index(True)
            if not all(flags[first:]):
                return ["feasibility is not monotone on the grid"]
            if not cells[first - 1] <= gstar <= cells[first] + 1e-12:
                return [f"critical gamma {gstar!r} outside grid cell "
                        f"[{cells[first - 1]!r}, {cells[first]!r}]"]
            return []

        return Op(f"boundary-example{k}", call, check), grid.size

    ops, points = [Op("verify", verify, verify_check)], 0
    for k in BOUNDARY:
        op, size = boundary(k)
        ops.append(op)
        points += size
    return Workload(
        model_paths=list(paths.values()), ops=ops, draws=[],
        probe_model=models[2].with_gamma(GAMMA2),
        work={"run_steps": 0, "follower_steps": 0, "grid_points": points,
              "oracle_followers": VERIFY_N})


def _init_draw(gen: np.random.Generator, init, count):
    """Consume what ``InitSpec.sample`` consumes, without the model code."""
    shape = (init.dim,) if count is None else (count, init.dim)
    if init.kind == "uniform":
        gen.uniform(init.low, init.high, size=shape)
    elif init.kind == "gaussian":
        gen.standard_normal(shape)


def substream(seed: int, run: int, t: int) -> np.random.Generator:
    """The simulator's RNG scheme: one Philox stream per (seed, run, t); t=0 draws initials."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, run, t))))


def rng_floor(draws) -> float:
    """Seconds to rebuild every substream of ``draws`` and draw the simulator's shapes.

    Per run: t=0 draws the initial states, and each t in 1..T draws the
    leader noise (lx,) and the follower noise (n, lx).  Standard normals
    stand in for ``multivariate_normal``, which consumes the same stream.
    """
    start = perf_counter()
    for seed, runs, model in draws:
        n, lx = model.n_followers, model.state_dim
        for run in range(runs):
            gen = substream(seed, run, 0)
            _init_draw(gen, model.leader_init, None)
            _init_draw(gen, model.follower_init, n)
            for t in range(1, model.horizon + 1):
                gen = substream(seed, run, t)
                gen.standard_normal(lx)
                gen.standard_normal((n, lx))
    return perf_counter() - start


def probe_rates(mf, model, seed: int) -> dict:
    """Microseconds per run-step of ``simulate`` at each population size of PROBE_RUNS.

    Worst-case disturbance, full sharing; the median of PROBE_REPEATS
    timings.  The sizes take turns, so a change in host speed during the
    probe moves every size alike and cancels in sim.ns_per_follower_step.
    """
    gains = mf.compute_gains(model, mf.solve_riccati(model))
    cfg = {n: mf.SimConfig(master_seed=seed, num_runs=runs,
                           disturbance=mf.DisturbancePolicy.worst_case())
           for n, runs in PROBE_RUNS.items()}
    models = {n: replace(model, n_followers=n) for n in PROBE_RUNS}
    times = {n: [] for n in PROBE_RUNS}
    for _ in range(PROBE_REPEATS):
        for n in PROBE_RUNS:
            start = perf_counter()
            mf.simulate(models[n], gains, cfg[n])
            times[n].append(perf_counter() - start)
    return {n: 1e6 * median(times[n]) / (runs * model.horizon) for n, runs in PROBE_RUNS.items()}
