"""Seeded Monte Carlo simulation of the leader-follower network.

One engine steps a block of runs together, with the run as the leading
array axis: leader states (R, lx), followers (R, n, lx), estimates
(R, lx).  The engine owns the estimates m_hat: it resets them to the
observed mean at observation times and otherwise propagates them with
``strategy.estimator_step``.  A block holds at most ``BLOCK_STATES``
follower states, so ``simulate`` walks ``max(1, BLOCK_STATES // n)`` runs
at a time, and ``simulate_run`` is a block of one.

Each run owns a counter-based RNG substream keyed by (master seed, run
index, t); follower i reads row i of the per-(run, t) batch.  Every
batched operation gives each run the bits it gets alone, so a run's
results are bit-identical whichever other runs are simulated with it.  A
run whose next state is not finite is marked failed at that t and leaves
the block, its later rows left nan; the others step on.  Stage costs are
accumulated online (sufficient statistics), full per-follower state
retention is opt-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import InfoStructure, ModelSpec
from .strategy import (estimator_step, follower_action, leader_action, matvec,
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


BLOCK_STATES = 2 ** 13
"""Most follower states one block of runs holds: bounds the working arrays at large n."""


def _colouring(cov: np.ndarray) -> np.ndarray:
    """The factor F for which ``z @ F + 0`` on standard normals z has the bits of
    ``Generator.multivariate_normal(0, cov)`` on the same stream.

    It is numpy's own factor from ``svd(cov)``, made once per t instead of
    once per draw, without numpy's PSD check (the loader checks PSD).
    """
    u, s, _ = np.linalg.svd(cov)
    return (u * np.sqrt(s)).T


def _dot(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """v . w for each pair of vectors along the last axes."""
    return np.matmul(V[..., None, :], W[..., :, None])[..., 0, 0]


def _quad(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """v' W v for each vector v along the last axis of V."""
    return _dot(np.matmul(V[..., None, :], W)[..., 0, :], V)


def _quad_mean(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """mean_i x_i' W x_i over the rows x_i of each (n, l) batch in X.

    Sums the terms (x_j W_jk) x_k in the order numpy's
    ``einsum("ij,jk,ik->i")`` sums them for one batch: in one sequence,
    except for l = 2 and n <= 2, where each row j is summed apart first.
    einsum itself picks that order from the size of the whole block, so it
    would give a run other bits beside other runs.
    """
    l = X.shape[-1]
    rowwise = l == 2 and X.shape[-2] <= 2
    total = np.zeros(X.shape[:-1])
    for j in range(l):
        row = np.zeros(X.shape[:-1]) if rowwise else total
        for k in range(l):
            row = row + (X[..., j] * W[j, k]) * X[..., k]
        total = total + row if rowwise else row
    return total.mean(axis=-1)


def stage_cost(model: ModelSpec, t: int, x0: np.ndarray, u0: np.ndarray, d0: np.ndarray,
               xf: np.ndarray, uf: np.ndarray, df: np.ndarray,
               xbar: np.ndarray, ubar: np.ndarray):
    """Social-welfare stage cost at time t, averaged over the n followers.

    ``xf``/``uf``/``df`` are the (n, lx|lu) follower batches and
    ``xbar``/``ubar`` their means, passed in because the caller already has
    them; with a leading run axis on every argument the result is one cost
    per run.  Disturbances enter with weight -gamma^2.
    """
    g2 = model.gamma ** 2
    return (
        _quad_mean(xf, model.Q[t - 1]) + _quad_mean(uf, model.R[t - 1])
        - g2 * (df * df).sum(axis=-1).mean(axis=-1)
        + _quad(x0, model.Q0[t - 1]) + _quad(u0, model.R0[t - 1]) - g2 * _dot(d0, d0)
        + _quad(xbar - x0, model.F[t - 1]) + _quad(xbar, model.P[t - 1])
        + _quad(ubar, model.H[t - 1])
    )


def _disturbances(policy: DisturbancePolicy, t: int, gains: StrategyGains,
                  x0: np.ndarray, xbar: np.ndarray, xf: np.ndarray, m_hat: np.ndarray):
    """Realized (d0, per-follower df) at time t, shaped like (x0, xf)."""
    if policy.kind == "zero":
        return np.zeros(x0.shape), np.zeros(xf.shape)
    if policy.kind == "sinusoid":
        pulse = policy.amplitude * math.sin(t)
        d0 = (np.full(x0.shape, pulse) if policy.applied_to in ("leader", "both")
              else np.zeros(x0.shape))
        df = (np.full(xf.shape, pulse) if policy.applied_to in ("followers", "both")
              else np.zeros(xf.shape))
        return d0, df
    if policy.kind == "worst_case":
        return worst_case_disturbance(gains, t, x0, m_hat if policy.use_estimate else xbar, xf)
    raise ValueError(f"unknown disturbance kind '{policy.kind}'")


def _simulate_block(model: ModelSpec, gains: StrategyGains, cfg: SimConfig, runs: range,
                    colour: list) -> list[TrajectoryRecord]:
    """The runs ``runs`` stepped together; ``colour`` holds (leader, follower) factors per t."""
    T, n, lx, lu = model.horizon, model.n_followers, model.state_dim, model.action_dim
    R, seed = len(runs), cfg.master_seed
    info = cfg.info if cfg.info is not None else InfoStructure.mfs(T)

    x0, xf = np.empty((R, lx)), np.empty((R, n, lx))
    for k, run in enumerate(runs):
        init_rng = _rng(seed, run, 0)
        x0[k] = model.leader_init.sample(init_rng)
        xf[k] = model.follower_init.sample(init_rng, n)
    m_hat = (xf.mean(axis=1) if info.observed(1)
             else np.broadcast_to(model.follower_init.mean(), (R, lx)).copy())

    # rows after a run fails stay nan, as its stage costs do
    series = {name: np.full((R, T, dim), np.nan) for name, dim in (
        ("x0", lx), ("xbar", lx), ("mhat", lx), ("u0", lu), ("ubar", lu), ("d0", lx),
        ("dbar", lx))}
    stage_costs = np.full((R, T), np.nan)
    keep = cfg.retain_full_states
    full = {name: np.full((R, T, n, dim), np.nan) if keep else [None] * R
            for name, dim in (("xi", lx), ("ui", lu), ("di", lx))}
    failed_at = [None] * R
    active = np.arange(R)  # block rows of the runs still stepping

    for t in range(1, T + 1):
        xbar = xf.mean(axis=1)
        u0 = leader_action(gains, t, x0, m_hat)
        uf = follower_action(gains, t, xf, x0, m_hat)
        ubar = uf.mean(axis=1)
        d0, df = _disturbances(cfg.disturbance, t, gains, x0, xbar, xf, m_hat)
        dbar = df.mean(axis=1)

        for name, value in (("x0", x0), ("xbar", xbar), ("mhat", m_hat), ("u0", u0),
                            ("ubar", ubar), ("d0", d0), ("dbar", dbar)):
            series[name][active, t - 1] = value
        stage_costs[active, t - 1] = stage_cost(model, t, x0, u0, d0, xf, uf, df, xbar, ubar)
        if keep:
            full["xi"][active, t - 1], full["ui"][active, t - 1] = xf, uf
            full["di"][active, t - 1] = df

        z0, zf = np.empty((active.size, lx)), np.empty((active.size, n, lx))
        for k, row in enumerate(active):
            noise_rng = _rng(seed, runs[row], t)
            z0[k] = noise_rng.standard_normal(lx)
            zf[k] = noise_rng.standard_normal((n, lx))
        f0, ff = colour[t - 1]
        w0 = (z0[:, None, :] @ f0)[:, 0] + np.zeros(lx)
        wf = zf @ ff + np.zeros(lx)

        with np.errstate(over="ignore", invalid="ignore"):
            x0_next = (matvec(model.A0[t - 1], x0) + matvec(model.B0[t - 1], u0)
                       + matvec(model.S0[t - 1], xbar) + d0 + w0)
            xf_next = (xf @ model.A[t - 1].T + uf @ model.B[t - 1].T
                       + matvec(model.S[t - 1], xbar)[:, None, :]
                       + matvec(model.E[t - 1], x0)[:, None, :] + df + wf)

        ok = np.isfinite(x0_next).all(axis=1) & np.isfinite(xf_next).all(axis=(1, 2))
        if not ok.all():
            for row in active[~ok]:
                failed_at[row] = t
            active, x0, m_hat = active[ok], x0[ok], m_hat[ok]
            x0_next, xf_next = x0_next[ok], xf_next[ok]
            if active.size == 0:
                break

        if t < T:
            m_hat = (xf_next.mean(axis=1) if info.observed(t + 1)
                     else estimator_step(model, gains, t, x0, m_hat, cfg.use_worst_case_dbar))
        x0, xf = x0_next, xf_next

    return [
        TrajectoryRecord(
            run=run, seed=seed, **{name: arr[k] for name, arr in series.items()},
            stage_costs=stage_costs[k],
            total_cost=np.nan if failed_at[k] is not None else float(stage_costs[k].sum()),
            xi=full["xi"][k], ui=full["ui"][k], di=full["di"][k],
            failed=failed_at[k] is not None, failed_at=failed_at[k])
        for k, run in enumerate(runs)
    ]


def _colourings(model: ModelSpec) -> list:
    """(leader, follower) noise factors for each t."""
    return [(_colouring(model.noise_leader[t]), _colouring(model.noise_follower[t]))
            for t in range(model.horizon)]


def simulate_run(model: ModelSpec, gains: StrategyGains, cfg: SimConfig, run: int) -> TrajectoryRecord:
    """One seeded run, a block of one; deterministic in (master_seed, run) alone."""
    return _simulate_block(model, gains, cfg, range(run, run + 1), _colourings(model))[0]


def simulate(model: ModelSpec, gains: StrategyGains, cfg: SimConfig) -> list[TrajectoryRecord]:
    """All runs, in run-index order, in blocks of at most BLOCK_STATES follower states."""
    colour = _colourings(model)
    per_block = max(1, BLOCK_STATES // model.n_followers)
    records = []
    for first in range(0, cfg.num_runs, per_block):
        records += _simulate_block(model, gains, cfg,
                                   range(first, min(first + per_block, cfg.num_runs)), colour)
    return records


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
    suffix.  Follower series ``xi`` carry 1-based agent indices.  Values
    are ``repr`` of each float, rows end in a bare newline.
    """
    def names(base: str, dim: int) -> list[str]:
        return [base] if dim == 1 else [f"{base}_{k}" for k in range(dim)]

    chunks = ["run,t,series,agent,value\n"]  # one per record, to bound the peak
    xi_names = names("xi", state_dim)
    for rec in records:
        aggregates = [(names(base, dim), arr.tolist()) for base, arr, dim in (
            ("x0", rec.x0, state_dim), ("xbar", rec.xbar, state_dim),
            ("mhat", rec.mhat, state_dim), ("u0", rec.u0, action_dim),
            ("ubar", rec.ubar, action_dim))]
        costs = rec.stage_costs.tolist()
        xi = None if rec.xi is None else rec.xi.tolist()
        lines = []
        for t, cost in enumerate(costs):
            head = f"{rec.run},{t + 1},"
            for series, values in aggregates:
                lines.extend(f"{head}{name},,{v!r}\n" for name, v in zip(series, values[t]))
            lines.append(f"{head}cost_stage,,{cost!r}\n")
            if xi is not None:
                for i, state in enumerate(xi[t], start=1):
                    lines.extend(f"{head}{name},{i},{v!r}\n" for name, v in zip(xi_names, state))
        chunks.append("".join(lines))
    return "".join(chunks)
