"""Command-line front end.

Subcommands: run-example, synthesize, simulate, sweep-gamma, verify,
gap-study, critical-gamma.  Every command is deterministic given (config,
seed): re-running writes byte-identical CSVs.  Outputs land in --out
(default ./out).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import oracle as oracle_mod
from . import synthesis as synth_mod
from .model import InfoStructure, ModelSpec, load_model_file
from .sim import DisturbancePolicy, SimConfig, evaluate_cost, simulate, trajectory_csv
from .synthesis import InfeasibleError, compute_gains, critical_gamma, riccati_csv, solve_riccati

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INFEASIBLE = 3


def bundled_config_path(which: int) -> Path:
    return Path(resources.files("mfminmax") / "configs" / f"example{which}.yaml")


def parse_schedule(text: str, horizon: int) -> InfoStructure:
    """Observation schedules: 'all', 'none', or '1,5,10-12'."""
    text = text.strip().lower()
    if text == "all":
        return InfoStructure.mfs(horizon)
    if text == "none":
        return InfoStructure.no_sharing()
    times = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk:
            lo, hi = chunk.split("-", 1)
            times.update(range(int(lo), int(hi) + 1))
        else:
            times.add(int(chunk))
    bad = [t for t in times if not 1 <= t <= horizon]
    if bad:
        raise ValueError(f"observation times outside 1..{horizon}: {sorted(bad)}")
    return InfoStructure.imfs(times)


def _disturbance_from(sect: dict) -> DisturbancePolicy:
    kind = sect.get("kind", "zero")
    if kind == "zero":
        return DisturbancePolicy.zero()
    if kind == "sinusoid":
        return DisturbancePolicy.sinusoid(float(sect.get("amplitude", 0.0)),
                                          sect.get("applied_to", "followers"))
    if kind in ("worst_case", "worst-case"):
        return DisturbancePolicy.worst_case()
    raise ValueError(f"unknown disturbance kind '{kind}'")


def _seed_and_runs(args, sect: dict) -> tuple:
    """--seed/--runs if given, else the config's experiment values, else 0 and 1.

    The loader has checked that the experiment values are integers.
    """
    seed = args.seed if args.seed is not None else sect.get("seed", 0)
    runs = args.runs if args.runs is not None else sect.get("runs", 1)
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    return seed, runs


def _gamma_tag(gamma: float) -> str:
    return format(float(gamma), "g")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _sweep(model: ModelSpec, gamma_list, seed: int, runs: int, out: Path,
           disturbance: DisturbancePolicy, info_text: str, retain: bool) -> int:
    """Shared core of run-example / sweep-gamma / simulate."""
    summary_rows = []
    report_lines = []
    any_feasible = False
    for gamma in gamma_list:
        mdl = model.with_gamma(gamma)
        ric = solve_riccati(mdl)
        row = {
            "gamma": gamma,
            "feasible": ric.feasible,
            "min_margin_brev": float(ric.margin_brev.min()),
            "min_margin_bar": float(ric.margin_bar.min()),
            "runs": runs,
            "seed": seed,
            "mean_cost": float("nan"),
            "stderr": float("nan"),
        }
        if not ric.feasible:
            report_lines.append(
                f"gamma={gamma:g}: INFEASIBLE (min margin {ric.min_margin():.6g} "
                f"at t in {list(ric.infeasible_times)[:6]})")
            summary_rows.append(row)
            continue
        any_feasible = True
        gains = compute_gains(mdl, ric)
        info = parse_schedule(info_text, mdl.horizon)
        cfg = SimConfig(master_seed=seed, num_runs=runs, retain_full_states=retain,
                        disturbance=disturbance, info=info)
        records = simulate(mdl, gains, cfg)
        cost = evaluate_cost(mdl, records)
        row["mean_cost"], row["stderr"] = cost.mean, cost.stderr
        summary_rows.append(row)
        _write(out / f"trajectories_gamma_{_gamma_tag(gamma)}.csv",
               trajectory_csv(records, mdl.state_dim, mdl.action_dim))
        _write(out / f"riccati_gamma_{_gamma_tag(gamma)}.csv", riccati_csv(ric, gains))
        report_lines.append(
            f"gamma={gamma:g}: feasible, min margin {ric.min_margin():.6g}, "
            f"mean cost {cost.mean:.6g} (stderr {cost.stderr:.3g}, {runs} runs, "
            f"{cost.failed_runs} failed)")

    header = ["gamma", "feasible", "min_margin_brev", "min_margin_bar",
              "runs", "seed", "mean_cost", "stderr"]
    lines = [",".join(header)]
    for row in summary_rows:
        lines.append(",".join([
            repr(float(row["gamma"])), str(row["feasible"]),
            repr(row["min_margin_brev"]), repr(row["min_margin_bar"]),
            str(row["runs"]), str(row["seed"]),
            repr(row["mean_cost"]), repr(row["stderr"]),
        ]))
    _write(out / "summary.csv", "\n".join(lines) + "\n")
    _write(out / "report.txt", "\n".join(report_lines) + "\n")
    for line in report_lines:
        print(line)
    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


def cmd_run_example(args) -> int:
    which = int(args.which)
    config = bundled_config_path(which)
    model = load_model_file(config)
    sect = model.experiment
    gamma_list = args.gamma if args.gamma else [float(g) for g in sect.get("gamma_list", [model.gamma])]
    seed, runs = _seed_and_runs(args, sect)
    disturbance = _disturbance_from(sect.get("disturbance") or {})
    return _sweep(model, gamma_list, seed, runs, Path(args.out), disturbance,
                  args.observe, retain=True)


def cmd_synthesize(args) -> int:
    model = load_model_file(args.config)
    if args.gamma is not None:
        model = model.with_gamma(args.gamma)
    ric = solve_riccati(model)
    out = Path(args.out)
    gains = None
    if ric.feasible:
        gains = compute_gains(model, ric)
        value = synth_mod.optimal_value(model, ric)
        lines = [f"gamma={model.gamma:g}: feasible, min margin {ric.min_margin():.6g}",
                 f"optimal value {value!r}"]
    else:
        lines = [f"gamma={model.gamma:g}: INFEASIBLE (min margin {ric.min_margin():.6g} "
                 f"at t in {list(ric.infeasible_times)[:6]})"]
    _write(out / "riccati.csv", riccati_csv(ric, gains))
    _write(out / "report.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK if ric.feasible else EXIT_INFEASIBLE


def cmd_simulate(args) -> int:
    model = load_model_file(args.config)
    seed, runs = _seed_and_runs(args, model.experiment)
    gamma_list = args.gamma if args.gamma else [model.gamma]
    if args.disturbance == "config":
        disturbance = _disturbance_from(model.experiment.get("disturbance") or {})
    elif args.disturbance == "sinusoid":
        disturbance = DisturbancePolicy.sinusoid(args.amplitude, args.applied_to)
    elif args.disturbance == "worst-case":
        disturbance = DisturbancePolicy.worst_case()
    else:
        disturbance = DisturbancePolicy.zero()
    return _sweep(model, gamma_list, seed, runs, Path(args.out),
                  disturbance, args.observe, retain=args.retain_states)


def cmd_sweep_gamma(args) -> int:
    if not args.gamma:
        print("sweep-gamma requires --gamma", file=sys.stderr)
        return EXIT_FAIL
    return cmd_simulate(args)


def cmd_verify(args) -> int:
    model = load_model_file(args.config)
    if args.gamma is not None:
        model = model.with_gamma(args.gamma)
    n = args.n
    if not 1 <= n <= oracle_mod.MAX_ORACLE_FOLLOWERS:
        raise ValueError(f"--n must be in 1..{oracle_mod.MAX_ORACLE_FOLLOWERS}, got {n}")
    if args.directions < 1:
        raise ValueError(f"--directions must be >= 1, got {args.directions}")
    out = Path(args.out)
    ric = solve_riccati(model)
    if not ric.feasible:
        msg = (f"model infeasible at gamma={model.gamma:g} "
               f"(min margin {ric.min_margin():.6g}); nothing to verify")
        _write(out / "report.txt", msg + "\n")
        print(msg)
        return EXIT_INFEASIBLE
    gains = compute_gains(model, ric)
    if args.corrupt_gains:
        gains = synth_mod.StrategyGains(
            L_brev=-gains.L_brev, L_bar=gains.L_bar, K_brev=gains.K_brev,
            K_bar=gains.K_bar, state_dim=gains.state_dim, action_dim=gains.action_dim)

    # deterministic comparison point: population spread around its mean
    lx = model.state_dim
    x0_init = model.leader_init.mean()
    mean = model.follower_init.mean()
    offsets = np.linspace(-1.0, 1.0, n)[:, None] * np.ones((1, lx))
    followers_init = mean[None, :] + offsets
    mdl_n = replace(model, n_followers=n,
                    follower_init=model_mod.InitSpec(kind="deterministic", dim=lx,
                                                     values=followers_init),
                    leader_init=model_mod.InitSpec(kind="deterministic", dim=lx,
                                                   values=np.atleast_2d(x0_init)),
                    noise_leader=np.zeros_like(model.noise_leader),
                    noise_follower=np.zeros_like(model.noise_follower))
    ric_n = solve_riccati(mdl_n)
    value = synth_mod.optimal_value(mdl_n, ric_n)
    eq = oracle_mod.verify_equivalence(mdl_n, gains, n, x0_init, followers_init, value)
    sc = oracle_mod.saddle_check(mdl_n, gains, num_directions=args.directions,
                                 seed=args.seed or 0, x0_init=x0_init,
                                 followers_init=followers_init, n=n)
    eq.perturbations = sc.perturbations
    eq.control_min_delta = sc.control_min_delta
    eq.disturbance_max_delta = sc.disturbance_max_delta
    passed = eq.ok and sc.ok
    lines = [
        f"value gap: {float(eq.value_gap)!r}",
        f"max gain discrepancy: {float(eq.max_gain_discrepancy)!r}",
        f"saddle base cost: {float(sc.base_cost)!r}",
        f"control min delta: {float(sc.control_min_delta)!r}",
        f"disturbance max delta: {float(sc.disturbance_max_delta)!r}",
        f"equivalence ok: {eq.ok}",
        f"saddle ok: {sc.ok}",
        f"verdict: {'PASS' if passed else 'FAIL'}",
    ]
    _write(out / "saddle_report.csv", oracle_mod.saddle_report_csv(eq))
    _write(out / "report.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_gap_study(args) -> int:
    model = load_model_file(args.config)
    if args.gamma is not None:
        model = model.with_gamma(args.gamma)
    seed, runs = _seed_and_runs(args, {})  # the experiment section is not read here
    n_list = args.n_list or [10, 50, 250]
    oracle_mod.check_population_sizes(n_list)
    ric = solve_riccati(model)
    if not ric.feasible:
        print(f"model infeasible at gamma={model.gamma:g}; gap study needs a saddle point")
        return EXIT_INFEASIBLE
    gains = compute_gains(model, ric)
    times = () if args.observe == "none" else tuple(
        sorted(parse_schedule(args.observe, model.horizon).observation_times))
    rows = oracle_mod.imfs_gap_study(model, gains, n_list, seed, runs, observation_times=times)
    out = Path(args.out)
    _write(out / "gap_study.csv", oracle_mod.gap_table_csv(rows))
    for row in rows:
        print(f"n={row['n']:5d}: gap={row['gap']:.6g}  gap*n={row['gap_times_n']:.6g}")
    return EXIT_OK


def cmd_critical_gamma(args) -> int:
    model = load_model_file(args.config)
    try:
        gstar = critical_gamma(model, args.lo, args.hi, args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(repr(gstar))
    return EXIT_OK


def _add_flags(p, *flags, gammas="*", runs_default=None):
    """The shared ``flags`` a subcommand reads, plus --out; ``gammas`` is the --gamma nargs."""
    specs = {
        "config": dict(type=Path, help="model config path"),
        "gamma": dict(type=float, nargs=gammas, default=None,
                      help="attenuation values" if gammas else "attenuation value"),
        "seed": dict(type=int, default=None),
        "runs": dict(type=int, default=runs_default),
        "observe": dict(default="all",
                        help="observation schedule: 'all', 'none', or e.g. '1,5,10-12'"),
        "workers": dict(type=int, default=1,
                        help="accepted for compatibility; has no effect on the results"),
    }
    for flag in flags:
        p.add_argument(f"--{flag}", **specs[flag])
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfminmax",
                                     description="leader-follower mean-field minmax toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-example", help="reproduce a bundled example")
    p.add_argument("which", choices=["1", "2"])
    _add_flags(p, "gamma", "seed", "runs", "observe", "workers")
    p.set_defaults(func=cmd_run_example)

    p = sub.add_parser("synthesize", help="recursions, margins, gains, value")
    _add_flags(p, "config", "gamma", gammas=None)
    p.set_defaults(func=cmd_synthesize)

    for name in ("simulate", "sweep-gamma"):
        p = sub.add_parser(name, help="closed-loop Monte Carlo")
        _add_flags(p, "config", "gamma", "seed", "runs", "observe", "workers")
        p.add_argument("--disturbance", choices=["config", "zero", "sinusoid", "worst-case"],
                       default="config")
        p.add_argument("--amplitude", type=float, default=0.0)
        p.add_argument("--applied-to", choices=["followers", "leader", "both"],
                       default="followers")
        p.add_argument("--retain-states", action="store_true")
        p.set_defaults(func=cmd_simulate if name == "simulate" else cmd_sweep_gamma)

    p = sub.add_parser("verify", help="stacked-oracle equivalence + saddle perturbations")
    _add_flags(p, "config", "gamma", "seed", gammas=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--directions", type=int, default=50)
    p.add_argument("--corrupt-gains", action="store_true",
                   help="negative control: sign-flip the deviation gain")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gap-study", help="intermittent-vs-full sharing cost gap across n")
    _add_flags(p, "config", "gamma", "seed", "runs", "observe", "workers", gammas=None,
               runs_default=500)
    p.add_argument("--n", dest="n_list", type=int, nargs="*", default=None)
    p.set_defaults(func=cmd_gap_study, observe="none")

    p = sub.add_parser("critical-gamma", help="bisect the feasibility boundary")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_critical_gamma)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "config", None) is None and args.command != "run-example":
        print("--config is required", file=sys.stderr)
        return EXIT_FAIL
    try:
        return args.func(args)
    except (model_mod.ModelError, InfeasibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
