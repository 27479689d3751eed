"""Robust minmax control for leader-follower mean-field teams.

Synthesis (two backward recursions), executable policies for full /
intermittent mean-field sharing, seeded Monte Carlo simulation, and an
independent stacked-state verification oracle.

``import mfminmax`` loads the model layer alone; the other layers load on
first use of one of their names (PEP 562).
"""

from importlib import import_module

from .model import (
    AugmentedSystem,
    DisturbancePolicy,
    InfoStructure,
    InitSpec,
    ModelError,
    ModelSpec,
    build_augmented,
    load_model,
    load_model_file,
    validate_convexity,
)

__version__ = "0.1.0"

# Each public name outside the model layer, by its home module.
_LAZY = {
    "InfeasibleError": "synthesis", "RiccatiSolution": "synthesis",
    "StrategyGains": "synthesis", "compute_gains": "synthesis", "critical_gamma": "synthesis",
    "feasible": "synthesis", "optimal_value": "synthesis", "solve_riccati": "synthesis",
    "estimator_step": "strategy", "follower_action": "strategy", "leader_action": "strategy",
    "worst_case_disturbance": "strategy",
    "SimConfig": "sim", "TrajectoryRecord": "sim", "evaluate_cost": "sim", "simulate": "sim",
    "imfs_gap_study": "oracle", "point_model": "oracle", "saddle_check": "oracle",
    "stacked_saddle_solve": "oracle", "verify_equivalence": "oracle",
}

_SUBMODULES = ("synthesis", "strategy", "sim", "oracle", "cli")

# The model layer's names imported above (``model`` is bound by that import), then the rest.
__all__ = [*(name for name in model.__all__ if name in globals()), *_LAZY, "__version__"]


def __getattr__(name: str):
    # Not cached in this namespace: every lookup reaches the home module's current
    # binding, which a tracer may replace and later restore.
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)
