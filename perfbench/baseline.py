"""Regenerate perfbench/baseline.json and print every metric by name and unit.

    python3 perfbench/baseline.py [--record-digests]

Runs each workload twice at the default seed, for run_seconds of
BENCHMARK.json: untraced (end-to-end metrics) and traced (per-layer
metrics).  With --record-digests it first stores the
output digests of the default and the held-out seed in
perfbench/digests.json; do that only when outputs are meant to change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, trace: int, seconds, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args()

    if args.record_digests:
        for name in workloads.NAMES:
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                bench(name, seed, 0, 1, "--record-digests")

    seed, seconds = run.DEFAULT_SEED, run.declared("end_to_end")[1]
    out = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in workloads.NAMES:
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(name, seed, trace, seconds)
            report = json.loads((run.WORK / f"report-{name}-seed{seed}-trace{trace}.json")
                                .read_text(encoding="utf-8"))
            out["machine"] = report["machine"]
            entry.update({"work_per_pass": report["work_per_pass"],
                          f"correct_trace{trace}": result["correct"],
                          f"attempted_trace{trace}": result["attempted"],
                          f"failed_trace{trace}": result["failed"],
                          section: result["metrics"]})
            if trace:
                entry["dominant"] = report["dominant"]
            for metric, m in result["metrics"].items():
                print(f"{name} {metric} {m['value']!r} {m['unit']}")
        print(f"{name} dominant {entry['dominant']['layer']} "
              f"{entry['dominant']['share_of_traced_wall']:.1%}")
        out["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"machine {json.dumps(out['machine'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
