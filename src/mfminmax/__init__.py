"""Robust minmax control for leader-follower mean-field teams.

Synthesis (two backward recursions), executable policies for full /
intermittent mean-field sharing, seeded Monte Carlo simulation, and an
independent stacked-state verification oracle.
"""

from .model import (
    AugmentedSystem,
    InfoStructure,
    InitSpec,
    ModelError,
    ModelSpec,
    build_augmented,
    load_model,
    load_model_file,
    validate_convexity,
)
from .oracle import imfs_gap_study, saddle_check, stacked_saddle_solve, verify_equivalence
from .sim import DisturbancePolicy, SimConfig, TrajectoryRecord, evaluate_cost, simulate
from .strategy import estimator_step, follower_action, leader_action, worst_case_disturbance
from .synthesis import (
    InfeasibleError,
    RiccatiSolution,
    StrategyGains,
    compute_gains,
    critical_gamma,
    optimal_value,
    solve_riccati,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedSystem", "InfoStructure", "InitSpec", "ModelError", "ModelSpec",
    "build_augmented", "load_model", "load_model_file",
    "validate_convexity",
    "InfeasibleError", "RiccatiSolution", "StrategyGains", "compute_gains",
    "critical_gamma", "optimal_value", "solve_riccati",
    "estimator_step", "follower_action", "leader_action", "worst_case_disturbance",
    "DisturbancePolicy", "SimConfig", "TrajectoryRecord", "evaluate_cost", "simulate",
    "imfs_gap_study", "saddle_check", "stacked_saddle_solve", "verify_equivalence",
    "__version__",
]
