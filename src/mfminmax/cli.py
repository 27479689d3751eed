"""Command-line front end.

Subcommands: run-example, synthesize, simulate, verify, gap-study,
critical-gamma.  Every command is deterministic given (config, seed):
re-running writes byte-identical CSVs.  Outputs land in --out (default
./out).
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
from .model import DisturbancePolicy, Experiment, InfoStructure, ModelSpec, _count, load_model_file
from .sim import SimConfig, evaluate_cost, simulate, trajectory_csv
from .synthesis import InfeasibleError, compute_gains, critical_gamma, riccati_csv, solve_riccati

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INFEASIBLE = 3


def bundled_config_path(which: int) -> Path:
    return Path(resources.files("mfminmax") / "configs" / f"example{which}.yaml")


def parse_schedule(text: str, horizon: int) -> InfoStructure:
    """Observation schedules: 'all', 'none', or '1,5,10-12'.

    Each comma-separated entry is a time t or a range lo-hi with lo <= hi,
    all in 1..horizon, each written in ASCII digits 0-9 (spaces around an
    entry or its dash are allowed); any other entry is a ValueError naming it.
    """
    text = text.strip().lower()
    if text == "all":
        return InfoStructure.mfs()
    if text == "none":
        return InfoStructure()
    times = set()
    for entry in text.split(","):
        entry = entry.strip()
        lo, dash, hi = (part.strip() for part in entry.partition("-"))
        ends = (lo, hi) if dash else (lo,)
        span = range(0)
        if all(end.isascii() and end.isdigit() for end in ends):
            span = range(int(lo), int(ends[-1]) + 1)
        if not span:
            raise ValueError(f"--observe entry {entry!r} is not a time t "
                             f"or a range lo-hi with lo <= hi")
        if span[0] < 1 or span[-1] > horizon:
            raise ValueError(f"--observe entry {entry!r} has times outside 1..{horizon}")
        times.update(span)
    return InfoStructure.imfs(times)


def _seed_and_runs(args, defaults: Experiment) -> tuple:
    """--seed/--runs if given, else the ``defaults`` the Experiment checked."""
    seed = defaults.seed if args.seed is None else _count("--seed", args.seed, 0)
    runs = defaults.runs if args.runs is None else _count("--runs", args.runs, 1)
    return seed, runs


def _gamma_tag(gamma: float) -> str:
    return format(float(gamma), "g")


def _write(path: Path, chunks) -> None:
    """Write ``chunks``, one string or an iterable of them, to ``path`` as they come."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines((chunks,) if isinstance(chunks, str) else chunks)


def _sweep(model: ModelSpec, gamma_list, seed: int, runs: int, out: Path,
           disturbance: DisturbancePolicy, info_text: str, retain: bool) -> int:
    """Shared core of run-example / simulate.

    The schedule and every gamma are checked before any work: each gamma
    must be valid and name its own output files.
    """
    cfg = SimConfig(master_seed=seed, num_runs=runs, retain_full_states=retain,
                    disturbance=disturbance, info=parse_schedule(info_text, model.horizon))
    models = [model.with_gamma(gamma) for gamma in gamma_list]
    tags = [_gamma_tag(gamma) for gamma in gamma_list]
    for k, tag in enumerate(tags):
        if tag in tags[:k]:
            raise ValueError(f"gamma values {float(gamma_list[tags.index(tag)])!r} and "
                             f"{float(gamma_list[k])!r} would both write *_gamma_{tag}.csv")
    summary = ["gamma,feasible,min_margin_brev,min_margin_bar,runs,seed,mean_cost,stderr"]
    report_lines = []
    any_feasible = False
    for gamma, mdl in zip(gamma_list, models):
        ric = solve_riccati(mdl)
        mean = stderr = float("nan")
        if ric.feasible:
            any_feasible = True
            gains = compute_gains(mdl, ric)
            records = simulate(mdl, gains, cfg)
            cost = evaluate_cost(records)
            mean, stderr = cost.mean, cost.stderr
            _write(out / f"trajectories_gamma_{_gamma_tag(gamma)}.csv", trajectory_csv(records))
            del records  # no gamma's records outlive its trajectory file
            _write(out / f"riccati_gamma_{_gamma_tag(gamma)}.csv", riccati_csv(ric, gains))
            report_lines.append(
                f"gamma={gamma:g}: feasible, min margin {ric.min_margin():.6g}, "
                f"mean cost {cost.mean:.6g} (stderr {cost.stderr:.3g}, {runs} runs, "
                f"{cost.failed_runs} failed)")
        else:
            report_lines.append(
                f"gamma={gamma:g}: INFEASIBLE (min margin {ric.min_margin():.6g} "
                f"at t in {list(ric.infeasible_times)[:6]})")
        summary.append(",".join([
            repr(float(gamma)), str(ric.feasible), repr(float(ric.margin_brev.min())),
            repr(float(ric.margin_bar.min())), str(runs), str(seed), repr(mean), repr(stderr)]))
    _write(out / "summary.csv", "\n".join(summary) + "\n")
    _write(out / "report.txt", "\n".join(report_lines) + "\n")
    for line in report_lines:
        print(line)
    return EXIT_OK if any_feasible else EXIT_INFEASIBLE


def cmd_run_example(args) -> int:
    model = load_model_file(bundled_config_path(int(args.which)))
    experiment = model.experiment
    gamma_list = args.gamma or experiment.gamma_list or [model.gamma]
    seed, runs = _seed_and_runs(args, experiment)
    return _sweep(model, gamma_list, seed, runs, Path(args.out), experiment.disturbance,
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
    for flag, value in (("--amplitude", args.amplitude), ("--applied-to", args.applied_to)):
        if value is not None and args.disturbance != "sinusoid":
            raise ValueError(f"{flag} applies to --disturbance sinusoid only")
    if args.amplitude is not None and not np.isfinite(args.amplitude):
        raise ValueError(f"--amplitude must be finite, got {args.amplitude!r}")
    model = load_model_file(args.config)
    seed, runs = _seed_and_runs(args, model.experiment)
    gamma_list = args.gamma if args.gamma else [model.gamma]
    disturbance = model.experiment.disturbance
    if args.disturbance != "config":
        flags = {"amplitude": args.amplitude, "applied_to": args.applied_to}
        disturbance = DisturbancePolicy(kind=args.disturbance.replace("-", "_"), **{
            key: value for key, value in flags.items() if value is not None})
    return _sweep(model, gamma_list, seed, runs, Path(args.out),
                  disturbance, args.observe, retain=args.retain_states)


def cmd_verify(args) -> int:
    model = load_model_file(args.config)
    if args.gamma is not None:
        model = model.with_gamma(args.gamma)
    n = args.n
    if not 1 <= n <= oracle_mod.MAX_ORACLE_FOLLOWERS:
        raise ValueError(f"--n must be in 1..{oracle_mod.MAX_ORACLE_FOLLOWERS}, got {n}")
    _count("--directions", args.directions, 1)
    if args.seed is not None:
        _count("--seed", args.seed, 0)
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
        gains = replace(gains, L_brev=-gains.L_brev)

    # deterministic comparison point: population spread around its mean
    offsets = np.linspace(-1.0, 1.0, n)[:, None] * np.ones((1, model.state_dim))
    point = oracle_mod.point_model(model, model.leader_init.mean(),
                                   model.follower_init.mean()[None, :] + offsets)
    eq = oracle_mod.verify_equivalence(point, gains)
    sc = oracle_mod.saddle_check(point, gains, num_directions=args.directions,
                                 seed=args.seed or 0)
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
    _write(out / "saddle_report.csv", oracle_mod.saddle_report_csv(sc))
    _write(out / "report.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_gap_study(args) -> int:
    model = load_model_file(args.config)
    if args.gamma is not None:
        model = model.with_gamma(args.gamma)
    seed, runs = _seed_and_runs(args, Experiment())  # the experiment section is not read here
    n_list = [_count("--n", n, 1) for n in args.n_list or [10, 50, 250]]  # before the solve
    info = parse_schedule(args.observe, model.horizon)
    ric = solve_riccati(model)
    if not ric.feasible:
        print(f"model infeasible at gamma={model.gamma:g}; gap study needs a saddle point")
        return EXIT_INFEASIBLE
    gains = compute_gains(model, ric)
    rows = oracle_mod.imfs_gap_study(model, gains, n_list, seed, runs, info=info)
    out = Path(args.out)
    _write(out / "gap_study.csv", oracle_mod.gap_table_csv(rows))
    for row in rows:
        print(f"n={row['n']:5d}: gap={row['gap']:.6g}  gap*n={row['gap_times_n']:.6g}")
    return EXIT_OK


def cmd_critical_gamma(args) -> int:
    model = load_model_file(args.config)
    print(repr(critical_gamma(model, args.lo, args.hi, args.tol)))
    return EXIT_OK


def _add_flags(p, *flags, gammas="+", runs_default=None):
    """The shared ``flags`` a subcommand reads, plus --out; ``gammas`` is the --gamma nargs."""
    specs = {
        "config": dict(type=Path, required=True, help="model config path"),
        "gamma": dict(type=float, nargs=gammas, default=None,
                      help="attenuation values" if gammas else "attenuation value"),
        "seed": dict(type=int, default=None),
        "runs": dict(type=int, default=runs_default),
        "observe": dict(default="all",
                        help="observation schedule: 'all', 'none', or e.g. '1,5,10-12'"),
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
    _add_flags(p, "gamma", "seed", "runs", "observe")
    p.set_defaults(func=cmd_run_example)

    p = sub.add_parser("synthesize", help="recursions, margins, gains, value")
    _add_flags(p, "config", "gamma", gammas=None)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="closed-loop Monte Carlo")
    _add_flags(p, "config", "gamma", "seed", "runs", "observe")
    p.add_argument("--disturbance", choices=["config", "zero", "sinusoid", "worst-case"],
                   default="config")
    p.add_argument("--amplitude", type=float, default=None,
                   help="sinusoid amplitude (default 0.0); --disturbance sinusoid only")
    p.add_argument("--applied-to", choices=["followers", "leader", "both"], default=None,
                   help="sinusoid target (default followers); --disturbance sinusoid only")
    p.add_argument("--retain-states", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="stacked-oracle equivalence + saddle perturbations")
    _add_flags(p, "config", "gamma", "seed", gammas=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--directions", type=int, default=50)
    p.add_argument("--corrupt-gains", action="store_true",
                   help="negative control: sign-flip the deviation gain")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gap-study", help="intermittent-vs-full sharing cost gap across n")
    _add_flags(p, "config", "gamma", "seed", "runs", "observe", gammas=None, runs_default=500)
    p.add_argument("--n", dest="n_list", type=int, nargs="+", default=None)
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
    try:
        return args.func(args)
    except (model_mod.ModelError, InfeasibleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
