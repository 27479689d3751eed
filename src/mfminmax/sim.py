"""Seeded Monte Carlo simulation of the leader-follower network.

Each run owns a counter-based RNG substream keyed by (master seed, run
index, t); follower i reads row i of the per-(run, t) batch, so a run's
results are bit-identical whichever other runs are simulated with it.
Stage costs are accumulated online (sufficient statistics), full
per-follower state retention is opt-in.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .model import InfoStructure, ModelSpec
from .strategy import (PolicyState, estimator_step, follower_action, leader_action,
                       worst_case_disturbance)
from .synthesis import StrategyGains

__all__ = [
    "DisturbancePolicy",
    "SimConfig",
    "TrajectoryRecord",
    "CostSummary",
    "simulate",
    "simulate_run",
    "stage_cost",
    "evaluate_cost",
    "trajectory_csv",
]


@dataclass(frozen=True)
class DisturbancePolicy:
    """How the disturbance d is generated during a run.

    kind: "zero" | "sinusoid" | "worst_case".
    Sinusoid applies amplitude*sin(t) (t in radians, starting at 1) to
    every component, identically across followers.  Worst-case feedback
    uses the true states unless ``use_estimate`` routes the mean through
    the policy estimate.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    applied_to: str = "followers"  # "followers" | "leader" | "both"
    use_estimate: bool = False

    @staticmethod
    def zero() -> "DisturbancePolicy":
        return DisturbancePolicy(kind="zero")

    @staticmethod
    def sinusoid(amplitude: float, applied_to: str = "followers") -> "DisturbancePolicy":
        if applied_to not in ("followers", "leader", "both"):
            raise ValueError(f"unknown target '{applied_to}'")
        return DisturbancePolicy(kind="sinusoid", amplitude=float(amplitude), applied_to=applied_to)

    @staticmethod
    def worst_case(use_estimate: bool = False) -> "DisturbancePolicy":
        return DisturbancePolicy(kind="worst_case", use_estimate=use_estimate)


@dataclass(frozen=True)
class SimConfig:
    master_seed: int
    num_runs: int = 1
    retain_full_states: bool = False
    disturbance: DisturbancePolicy = field(default_factory=DisturbancePolicy.zero)
    info: InfoStructure | None = None  # None -> full mean-field sharing
    use_worst_case_dbar: bool = True   # estimator propagation switch

    def __post_init__(self):
        if self.num_runs < 1:
            raise ValueError("num_runs must be >= 1")


@dataclass
class TrajectoryRecord:
    """One run: aggregate series for t = 1..T plus the realized cost."""

    run: int
    seed: int
    x0: np.ndarray          # (T, lx)
    xbar: np.ndarray        # (T, lx)
    mhat: np.ndarray        # (T, lx)
    u0: np.ndarray          # (T, lu)
    ubar: np.ndarray        # (T, lu)
    d0: np.ndarray          # (T, lx)
    dbar: np.ndarray        # (T, lx)
    stage_costs: np.ndarray  # (T,)
    total_cost: float
    xi: np.ndarray | None = None  # (T, n, lx) when retained
    ui: np.ndarray | None = None  # (T, n, lu) when retained
    di: np.ndarray | None = None  # (T, n, lx) when retained
    failed: bool = False
    failed_at: int | None = None


@dataclass(frozen=True)
class CostSummary:
    per_run: np.ndarray
    mean: float
    stderr: float
    failed_runs: int = 0


def _rng(seed: int, run: int, t: int) -> np.random.Generator:
    """Substream keyed by (master seed, run, t); t=0 is the initial draw."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, run, t))))


def _quad_mean(X: np.ndarray, W: np.ndarray) -> float:
    """mean_i x_i' W x_i for rows x_i of X."""
    return float(np.einsum("ij,jk,ik->i", X, W, X).mean())


def _quad(v: np.ndarray, W: np.ndarray) -> float:
    return float(v @ W @ v)


def stage_cost(model: ModelSpec, t: int, x0: np.ndarray, u0: np.ndarray, d0: np.ndarray,
               xf: np.ndarray, uf: np.ndarray, df: np.ndarray,
               xbar: np.ndarray, ubar: np.ndarray) -> float:
    """Social-welfare stage cost at time t, averaged over the n followers.

    ``xf``/``uf``/``df`` are the (n, lx|lu) follower batches and
    ``xbar``/``ubar`` their means, passed in because the caller already has
    them.  Disturbances enter with weight -gamma^2.
    """
    g2 = model.gamma ** 2
    return (
        _quad_mean(xf, model.Q[t - 1]) + _quad_mean(uf, model.R[t - 1])
        - g2 * float((df * df).sum(axis=1).mean())
        + _quad(x0, model.Q0[t - 1]) + _quad(u0, model.R0[t - 1]) - g2 * float(d0 @ d0)
        + _quad(xbar - x0, model.F[t - 1]) + _quad(xbar, model.P[t - 1])
        + _quad(ubar, model.H[t - 1])
    )


def _disturbances(policy: DisturbancePolicy, t: int, model: ModelSpec, gains: StrategyGains,
                  x0: np.ndarray, xbar: np.ndarray, xf: np.ndarray, m_hat: np.ndarray):
    """Realized (d0, per-follower df) at time t."""
    lx, n = model.state_dim, xf.shape[0]
    if policy.kind == "zero":
        return np.zeros(lx), np.zeros((n, lx))
    if policy.kind == "sinusoid":
        pulse = policy.amplitude * math.sin(t)
        d0 = np.full(lx, pulse) if policy.applied_to in ("leader", "both") else np.zeros(lx)
        df = (np.full((n, lx), pulse) if policy.applied_to in ("followers", "both")
              else np.zeros((n, lx)))
        return d0, df
    if policy.kind == "worst_case":
        return worst_case_disturbance(gains, t, x0, m_hat if policy.use_estimate else xbar, xf)
    raise ValueError(f"unknown disturbance kind '{policy.kind}'")


def simulate_run(model: ModelSpec, gains: StrategyGains, cfg: SimConfig, run: int) -> TrajectoryRecord:
    """One seeded run; deterministic in (master_seed, run) alone."""
    T, n, lx, lu = model.horizon, model.n_followers, model.state_dim, model.action_dim
    info = cfg.info if cfg.info is not None else InfoStructure.mfs(T)

    init_rng = _rng(cfg.master_seed, run, 0)
    x0 = model.leader_init.sample(init_rng)
    xf = model.follower_init.sample(init_rng, n)
    policy = PolicyState.start(model, gains, info, xbar1=xf.mean(axis=0),
                               use_worst_case_dbar=cfg.use_worst_case_dbar)

    rec = TrajectoryRecord(
        run=run, seed=cfg.master_seed,
        x0=np.zeros((T, lx)), xbar=np.zeros((T, lx)), mhat=np.zeros((T, lx)),
        u0=np.zeros((T, lu)), ubar=np.zeros((T, lu)),
        d0=np.zeros((T, lx)), dbar=np.zeros((T, lx)),
        stage_costs=np.full(T, np.nan), total_cost=np.nan,
        xi=np.zeros((T, n, lx)) if cfg.retain_full_states else None,
        ui=np.zeros((T, n, lu)) if cfg.retain_full_states else None,
        di=np.zeros((T, n, lx)) if cfg.retain_full_states else None,
    )

    for t in range(1, T + 1):
        xbar = xf.mean(axis=0)
        u0 = leader_action(policy, x0)
        uf = follower_action(policy, xf, x0)
        ubar = uf.mean(axis=0)
        d0, df = _disturbances(cfg.disturbance, t, model, gains, x0, xbar, xf, policy.m_hat)
        dbar = df.mean(axis=0)

        rec.x0[t - 1], rec.xbar[t - 1], rec.mhat[t - 1] = x0, xbar, policy.m_hat
        rec.u0[t - 1], rec.ubar[t - 1] = u0, ubar
        rec.d0[t - 1], rec.dbar[t - 1] = d0, dbar
        rec.stage_costs[t - 1] = stage_cost(model, t, x0, u0, d0, xf, uf, df, xbar, ubar)
        if rec.xi is not None:
            rec.xi[t - 1], rec.ui[t - 1], rec.di[t - 1] = xf, uf, df

        noise_rng = _rng(cfg.master_seed, run, t)
        w0 = noise_rng.multivariate_normal(np.zeros(lx), model.noise_leader[t - 1])
        wf = noise_rng.multivariate_normal(np.zeros(lx), model.noise_follower[t - 1], size=n)

        with np.errstate(over="ignore", invalid="ignore"):
            x0_next = (model.A0[t - 1] @ x0 + model.B0[t - 1] @ u0
                       + model.S0[t - 1] @ xbar + d0 + w0)
            xf_next = (xf @ model.A[t - 1].T + uf @ model.B[t - 1].T
                       + model.S[t - 1] @ xbar + model.E[t - 1] @ x0 + df + wf)

        if not (np.all(np.isfinite(x0_next)) and np.all(np.isfinite(xf_next))):
            rec.failed, rec.failed_at = True, t
            return rec

        if t < T:
            observed = xf_next.mean(axis=0) if info.observed(t + 1) else None
            estimator_step(policy, x0, observed=observed)
        x0, xf = x0_next, xf_next

    rec.total_cost = float(rec.stage_costs.sum())
    return rec


def simulate(model: ModelSpec, gains: StrategyGains, cfg: SimConfig) -> list[TrajectoryRecord]:
    """All runs, in run-index order."""
    return [simulate_run(model, gains, cfg, run) for run in range(cfg.num_runs)]


def evaluate_cost(model: ModelSpec, records: list[TrajectoryRecord]) -> CostSummary:
    """Monte Carlo mean and standard error of the realized cost."""
    per_run = np.array([r.total_cost for r in records])
    ok = np.isfinite(per_run)
    vals = per_run[ok]
    if vals.size == 0:
        raise ValueError("no successful runs to aggregate")
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return CostSummary(per_run=per_run, mean=mean, stderr=stderr,
                       failed_runs=int((~ok).sum()))


def trajectory_csv(records: list[TrajectoryRecord], state_dim: int = 1, action_dim: int = 1) -> str:
    """Long-format CSV (run, t, series, agent, value), plot-ready.

    Scalar models emit bare series names; vector components get a _k
    suffix.  Follower series ``xi`` carry 1-based agent indices.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["run", "t", "series", "agent", "value"])

    def series_name(base: str, k: int, dim: int) -> str:
        return base if dim == 1 else f"{base}_{k}"

    for rec in records:
        T = rec.x0.shape[0]
        for t in range(1, T + 1):
            for base, arr, dim in (("x0", rec.x0, state_dim), ("xbar", rec.xbar, state_dim),
                                   ("mhat", rec.mhat, state_dim), ("u0", rec.u0, action_dim),
                                   ("ubar", rec.ubar, action_dim)):
                for k in range(dim):
                    writer.writerow([rec.run, t, series_name(base, k, dim), "",
                                     repr(float(arr[t - 1, k]))])
            writer.writerow([rec.run, t, "cost_stage", "", repr(float(rec.stage_costs[t - 1]))])
            if rec.xi is not None:
                for i in range(rec.xi.shape[1]):
                    for k in range(state_dim):
                        writer.writerow([rec.run, t, series_name("xi", k, state_dim), i + 1,
                                         repr(float(rec.xi[t - 1, i, k]))])
    return buf.getvalue()
