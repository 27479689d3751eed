"""Spans around the package's public functions, and the per-layer metrics made from them.

``Tracer.install`` replaces each listed function with a wrapper wherever
the package binds it: in its defining module, and under every other name a
``from ... import`` gave it (``cli.simulate_run``, ``sim.follower_action``,
the re-exports in ``mfminmax/__init__``).  Spans (name, start, end,
parent) stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "mfminmax"

# Layer = package module; the functions wrapped in each.
LAYERS = {
    "model": ("load_model_file", "validate_convexity", "build_augmented"),
    "synthesis": ("solve_riccati", "compute_gains", "critical_gamma", "riccati_csv"),
    "strategy": ("leader_action", "follower_action", "estimator_step"),
    "sim": ("simulate", "simulate_run", "trajectory_csv"),
    "oracle": ("build_stacked", "rollout_joint", "stacked_saddle_solve", "saddle_check",
               "verify_equivalence", "imfs_gap_study"),
    "cli": ("main",),
}

# Functions reported under one metric prefix.
GROUPS = {
    "strategy.leader_action": "strategy",
    "strategy.follower_action": "strategy",
    "strategy.estimator_step": "strategy",
    "sim.simulate_run": "sim.simulate",
}


def metric_key(name: str) -> str:
    return GROUPS.get(name, name)


# Counts taken from a call's arguments and result: characters of trajectory CSV.
TAGS = {"sim.trajectory_csv": lambda args, kwargs, result: len(result)}


def present() -> set:
    """Metric keys whose functions exist in the package."""
    keys = set()
    for layer, funcs in LAYERS.items():
        home = sys.modules.get(f"{PACKAGE}.{layer}")
        keys.update(metric_key(f"{layer}.{f}") for f in funcs if hasattr(home, f))
    return keys


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index or -1, tags or None]
        self._stack = []
        self._restore = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, funcs in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for func in funcs:
                orig = getattr(home, func, None)
                if orig is None:
                    continue
                wrapped = self._wrap(f"{layer}.{func}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack, tag = self.spans, self._stack, TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if tag is not None:
                try:
                    span[4] = tag(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the tag, not the call
            return result

        return traced


def layer_metrics(spans, present) -> dict:
    """Per-layer metrics of one traced pass.

    A span's self time is its duration minus that of its direct children,
    so nested calls (``simulate`` -> ``simulate_run``) are never counted
    twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    csv_bytes = 0
    for i, (name, start, end, parent, tags) in enumerate(spans):
        key = metric_key(name)
        calls[key] += 1
        self_s[key] += end - start - child[i]
        if tags is not None:
            csv_bytes += tags
    metrics = {}
    for key in sorted(present):
        metrics[f"{key}.calls"] = calls[key]
        metrics[f"{key}.self_s"] = self_s[key]
    if "sim.trajectory_csv" in present:
        metrics["sim.trajectory_csv.bytes"] = csv_bytes
    return metrics
