"""Benchmark one mfminmax workload for one seed; see perfbench/README.md.

    python3 perfbench/run.py --workload mc-gap --seed 7 --seconds 20 --trace 0

Run it from anywhere inside a source checkout: it imports the package from
the checkout's ``src/``.  One caller drives the package in a closed loop:
a warm-up pass, then timed passes until ``--seconds`` is spent.  Every
pass is checked.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Reports and spans go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from statistics import median, median_low
from time import perf_counter, process_time

import numpy as np

import machine
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 7
HELD_OUT_SEED = 2838
SETUP_PROCS = 9
MIN_PASSES = 3        # timed passes with --trace 0
MIN_PAIRS = 2         # untraced/traced pass pairs with --trace 1

# Runs in a fresh interpreter: import the package, load and validate each model.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
import mfminmax
for path in sys.argv[2:]:
    if not mfminmax.validate_convexity(mfminmax.load_model_file(path)).ok:
        raise SystemExit("convexity check failed: " + path)
elapsed = time.perf_counter() - start
if not mfminmax.__file__.startswith(sys.argv[1]):
    raise SystemExit("imported mfminmax from " + mfminmax.__file__)
print(repr(elapsed))
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time; default run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store this seed's output digests in perfbench/digests.json")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def canonical(value):
    """Plain JSON-able form, so a digest does not depend on container or scalar types."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(value, out: Path) -> str:
    """sha256 over the returned value and every file written, by relative path."""
    h = hashlib.sha256(json.dumps(canonical(value), sort_keys=True).encode())
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def attempt(op, out: Path):
    """(value, warning texts, traceback or None) of one operation."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = op.call(out)
        return value, [str(w.message) for w in caught], None
    except Exception:  # a failing operation is counted, and the run goes on
        return None, [], traceback.format_exc()


class Checker:
    """Counts operations and failures; holds every pass to the first and to recorded digests."""

    def __init__(self, recorded: dict):
        self.recorded = recorded
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, where: str, messages: list) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append({"where": where, "problems": messages})

    def check(self, pass_no: int, op, outcome, out: Path) -> None:
        self.attempted += 1
        value, caught, error = outcome
        if error:
            self.fail(f"pass {pass_no} {op.name}", [error])
            return
        try:
            problems = op.check(value, out)
        except Exception:  # malformed output is a failure of the operation
            problems = [traceback.format_exc()]
        code = digest((value, caught), out)
        if self.first.setdefault(op.name, code) != code:
            problems.append("output differs from the first pass")
        if op.name in self.recorded and self.recorded[op.name] != code:
            problems.append("output differs from the digest recorded for this seed")
        if problems:
            self.fail(f"pass {pass_no} {op.name}", problems)


def measure_setup(paths) -> list:
    """Seconds to import mfminmax and load and validate ``paths``, each in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_PROCS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def budgeted(seconds: float, minimum: int, step) -> list:
    """Call ``step`` until the next call would overrun ``seconds``; at least ``minimum`` calls."""
    start = perf_counter()
    results = []
    while True:
        results.append(step())
        elapsed = perf_counter() - start
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


class Runner:
    """Runs checked passes of one workload in a scratch directory."""

    def __init__(self, workload, workdir: Path, checker: Checker):
        self.workload, self.workdir, self.checker = workload, workdir, checker
        self.passes = 0

    def run(self, tracer=None) -> dict:
        """One pass; wall and CPU seconds cover the package calls only."""
        passdir = self.workdir / f"pass{self.passes}"
        outs = {op.name: passdir / op.name for op in self.workload.ops}
        for out in outs.values():
            out.mkdir(parents=True)
        gc.collect()
        outcomes = {}
        if tracer is not None:
            tracer.install()
        try:
            wall0, cpu0 = perf_counter(), process_time()
            for op in self.workload.ops:
                outcomes[op.name] = attempt(op, outs[op.name])
            wall, cpu = perf_counter() - wall0, process_time() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        for op in self.workload.ops:
            self.checker.check(self.passes, op, outcomes[op.name], outs[op.name])
        written = sum(p.stat().st_size for p in passdir.rglob("*") if p.is_file())
        shutil.rmtree(passdir)
        self.passes += 1
        return {"wall_s": wall, "cpu_s": cpu, "bytes_written": written}


def declared(section: str) -> tuple:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}, bench["run_seconds"]


def end_to_end(runner, seconds, setup) -> tuple:
    passes = budgeted(seconds, MIN_PASSES, runner.run)
    checker = runner.checker
    metrics = {
        "setup_s": median(setup),
        "wall_s": median(p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (checker.attempted - checker.failed) / checker.attempted,
    }
    return metrics, {"passes": passes}


def per_layer(runner, seconds, mf, seed) -> tuple:
    wl = runner.workload
    present = spans.present()
    traced_spans, layer_samples = [], []

    def pair():
        plain = runner.run()
        tracer = spans.Tracer()
        traced = runner.run(tracer)
        traced_spans.append(tracer.spans)
        layer_samples.append(spans.layer_metrics(tracer.spans, present))
        return plain, traced

    pairs = budgeted(seconds, MIN_PAIRS, pair)
    plain_wall = median(p["wall_s"] for p, _ in pairs)
    traced_wall = median(t["wall_s"] for _, t in pairs)
    metrics = {}
    for key in layer_samples[0]:
        samples = [s[key] for s in layer_samples]
        metrics[key] = (median_low if isinstance(samples[0], int) else median)(samples)

    # Untraced, on every size, so the rates do not depend on what the workload simulates.
    us = workloads.probe_rates(mf, wl.probe_model, seed)
    for n, rate in us.items():
        metrics[f"sim.us_per_run_step.n{n}"] = rate
    lo, hi = min(us), max(us)
    metrics["sim.ns_per_follower_step"] = 1e3 * (us[hi] - us[lo]) / (hi - lo)
    runner.checker.attempted += 1
    mismatch = rng_scheme_mismatch(mf, seed)
    if mismatch:
        runner.checker.fail("sim.rng_floor_s", [mismatch])
    else:
        metrics["sim.rng_floor_s"] = median(workloads.rng_floor(wl.draws) for _ in range(3))
    metrics["cli.out_bytes"] = median_low(t["bytes_written"] for _, t in pairs)
    metrics["trace.overhead_s"] = traced_wall - plain_wall

    self_times = {k[:-len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    dominant = max(self_times, key=self_times.get)
    extra = {
        "pairs": [{"untraced": p, "traced": t} for p, t in pairs],
        "dominant": {"layer": dominant, "self_s": self_times[dominant],
                     "share_of_traced_wall": self_times[dominant] / traced_wall},
        "self_share": {k: v / traced_wall for k, v in
                       sorted(self_times.items(), key=lambda kv: -kv[1])},
    }
    return metrics, extra, traced_spans


def rng_scheme_mismatch(mf, seed):
    """Why workloads.substream is not the simulator's substream scheme, or None if it is.

    sim.rng_floor_s is only the floor of the Monte Carlo work while the
    replica draws what the simulator's own (seed, run, t) streams draw.
    """
    try:
        same = all(np.array_equal(mf.sim._rng(seed, run, t).random(8),
                                  workloads.substream(seed, run, t).random(8))
                   for run, t in ((0, 0), (3, 5)))
    except (AttributeError, TypeError) as exc:
        return f"cannot compare with mfminmax.sim._rng: {exc!r}"
    return None if same else "workloads.substream draws differ from mfminmax.sim._rng"


def write_spans(path: Path, traced_spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k, recorded in enumerate(traced_spans):
            for name, start, end, parent, _ in recorded:
                fh.write(json.dumps({"pass": k, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file() or not (SRC / "mfminmax" / "__init__.py").is_file():
        print(f"error: {ROOT} is not an mfminmax source checkout "
              "(needs BENCHMARK.json and src/mfminmax)", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units, run_seconds = declared(section)
    seconds = run_seconds if args.seconds is None else args.seconds

    sys.path.insert(0, str(SRC))
    import mfminmax as mf
    import mfminmax.cli  # noqa: F401  (the package does not import its CLI)
    if not Path(mf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported mfminmax from {mf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    digests = load_digests()
    recorded = {} if args.record_digests else digests.get(args.workload, {}).get(str(args.seed), {})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"run-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, mf, args.seed, workdir)
        setup = [] if args.trace else measure_setup(wl.model_paths)
        runner = Runner(wl, workdir, Checker(recorded))
        warmup = runner.run()
        if args.record_digests:
            digests.setdefault(args.workload, {})[str(args.seed)] = dict(runner.checker.first)
            DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
        if args.trace:
            metrics, extra, traced_spans = per_layer(runner, seconds, mf, args.seed)
            write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", traced_spans)
        else:
            metrics, extra = end_to_end(runner, seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {name: metrics[name] for name in units if name in metrics}
    checker = runner.checker
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": seconds,
        "machine": machine.record(), "work_per_pass": wl.work, "warmup": warmup,
        "setup_s_samples": setup, "digests": checker.first, "digests_recorded": bool(recorded),
        "attempted": checker.attempted, "failed": checker.failed, "problems": checker.problems,
        "metrics": metrics, **extra,
    }
    (WORK / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for problem in checker.problems:
        text = " | ".join(problem["problems"][0].strip().splitlines())
        print(f"FAILED {problem['where']}: {text[-400:]}")
    if args.trace:
        dom = extra["dominant"]
        print(f"dominant {dom['layer']} {dom['share_of_traced_wall']:.1%} of traced wall_s")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
