"""Independent verification against the full joint problem.

Everything here deliberately avoids the deviation/aggregate change of
coordinates: the joint state is the raw stack [x0; x1; ...; xn], the
backward minmax recursion solves the joint stage stationarity system
directly, and costs are accumulated from the raw per-agent sum.  Agreement
with the decomposed synthesis is therefore evidence, not tautology.  Each
check reads n and its start point from the model (see ``point_model``).
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .model import DisturbancePolicy, InfoStructure, InitSpec, ModelSpec
from .sim import SimConfig, _count, evaluate_cost, simulate, stage_cost
from .strategy import matvec
from .synthesis import StrategyGains, _check_gains, optimal_value, solve_riccati

__all__ = [
    "StackedProblem",
    "StackedSolution",
    "SaddleReport",
    "point_model",
    "build_stacked",
    "stacked_saddle_solve",
    "decomposed_joint_gains",
    "rollout_joint",
    "saddle_check",
    "verify_equivalence",
    "imfs_gap_study",
    "saddle_report_csv",
    "gap_table_csv",
]

MAX_ORACLE_FOLLOWERS = 64

BLOCK_GAIN_ENTRIES = 2 ** 18
"""Most perturbed gain entries one batched saddle-check rollout holds: bounds its memory at large n."""

SADDLE_STEPS = (1e-3, 1e-2)
"""Step lengths of the saddle check along each unit perturbation direction."""


@dataclass(frozen=True)
class StackedProblem:
    """Joint system on the stacked (n+1)-agent state.

    AA/BB are (T, N, N)/(T, N, Nu) transition stacks with N = (n+1) lx;
    QQ/RR the joint quadratic weights; Wd the diagonal disturbance-penalty
    weight (leader channel 1, each follower channel 1/n).
    """

    AA: np.ndarray
    BB: np.ndarray
    QQ: np.ndarray
    RR: np.ndarray
    Wd: np.ndarray
    noise_cov: np.ndarray  # (T, N, N)


@dataclass(frozen=True)
class StackedSolution:
    prob: StackedProblem  # the joint system solved
    KU: np.ndarray        # (T, Nu, N) joint control feedback
    KD: np.ndarray        # (T, N, N) joint disturbance feedback
    M1: np.ndarray        # (N, N) joint value matrix at t=1
    c1: float
    feasible: bool

    def value(self, model: ModelSpec) -> float:
        """Value x1' M1 x1 + c1 at the model's start point x1."""
        x1 = _start_point(model)
        return float(x1 @ self.M1 @ x1 + self.c1)


@dataclass
class SaddleReport:
    value_gap: float = float("nan")
    max_gain_discrepancy: float = float("nan")
    base_cost: float = float("nan")
    perturbations: list = field(default_factory=list)  # (side, index, step, delta)
    control_min_delta: float = float("nan")
    disturbance_max_delta: float = float("nan")
    ok: bool = False


def point_model(model: ModelSpec, leader, followers) -> ModelSpec:
    """``model`` with n = len(followers), deterministic starts ``leader`` and
    ``followers`` and zero noise; gamma and the dynamics are kept.  A leader
    that is not lx values or followers that are not (n, lx) are a ValueError."""
    lx = model.state_dim
    leader, followers = np.asarray(leader, dtype=float), np.asarray(followers, dtype=float)
    if leader.size != lx:
        raise ValueError(f"leader must hold lx = {lx} values, got shape {leader.shape}")
    if followers.ndim == 0 or followers.size != len(followers) * lx:
        raise ValueError(f"followers must be (n, lx) = (n, {lx}), got shape {followers.shape}")
    n = len(followers)
    leader, followers = leader.reshape(1, lx), followers.reshape(n, lx)
    return replace(model, n_followers=n,
                   leader_init=InitSpec(kind="deterministic", values=leader),
                   follower_init=InitSpec(kind="deterministic", values=followers),
                   noise_leader=np.zeros_like(model.noise_leader),
                   noise_follower=np.zeros_like(model.noise_follower))


def _start_point(model: ModelSpec) -> np.ndarray:
    """The stacked start [x0; x1..xn]: the leader's mean, then a deterministic
    follower list broadcast to n, or the follower mean repeated n times."""
    init, n = model.follower_init, model.n_followers
    followers = (init.sample(None, n) if init.kind == "deterministic"
                 else np.tile(init.mean(), (n, 1)))
    return np.concatenate([model.leader_init.mean(), followers.ravel()])


def build_stacked(model: ModelSpec) -> StackedProblem:
    """Assemble the joint matrices for ``model.n_followers`` from the raw dynamics and cost.

    Each stack is filled as (T, n+1, dim, n+1, dim), whose [:, i, :, j] is the
    block of agents i and j (0 = leader), for all t and followers at once; each
    entry gets a per-agent loop's writes in its order, signs of zeros included.
    """
    n = model.n_followers
    if n > MAX_ORACLE_FOLLOWERS:
        raise ValueError(f"oracle capped at n <= {MAX_ORACLE_FOLLOWERS} followers")
    T, lx, lu = model.horizon, model.state_dim, model.action_dim
    N, Nu = (n + 1) * lx, (n + 1) * lu
    f = np.arange(1, n + 1)  # [:, f, :, f] are the n follower diagonal blocks
    AA, QQ, noise = (np.zeros((T, n + 1, lx, n + 1, lx)) for _ in range(3))
    BB = np.zeros((T, n + 1, lx, n + 1, lu))
    RR = np.zeros((T, n + 1, lu, n + 1, lu))
    AA[:, 0, :, 0] = model.A0
    AA[:, 0, :, 1:] += (model.S0 / n)[:, :, None]
    AA[:, 1:, :, 0] = model.E[:, None]
    AA[:, f, :, f] += model.A
    AA[:, 1:, :, 1:] += (model.S / n)[:, None, :, None]
    BB[:, 0, :, 0] = model.B0
    BB[:, f, :, f] = model.B
    QQ[:, 0, :, 0] = model.Q0 + model.F
    QQ[:, 0, :, 1:] += (-model.F / n)[:, :, None]
    QQ[:, 1:, :, 0] += (-model.F / n)[:, None]
    QQ[:, f, :, f] += model.Q / n
    QQ[:, 1:, :, 1:] += ((model.F + model.P) / n**2)[:, None, :, None]
    RR[:, 0, :, 0] = model.R0
    RR[:, f, :, f] += model.R / n
    RR[:, 1:, :, 1:] += (model.H / n**2)[:, None, :, None]
    noise[:, 0, :, 0] = model.noise_leader
    noise[:, f, :, f] = model.noise_follower
    Wd = np.diag(np.concatenate([np.ones(lx), np.full(n * lx, 1.0 / n)]))
    return StackedProblem(AA=AA.reshape(T, N, N), BB=BB.reshape(T, N, Nu),
                          QQ=QQ.reshape(T, N, N), RR=RR.reshape(T, Nu, Nu), Wd=Wd,
                          noise_cov=noise.reshape(T, N, N))


def stacked_saddle_solve(model: ModelSpec) -> StackedSolution:
    """Backward joint minmax recursion on the stacked state.

    At each step the joint stage quadratic is optimized by solving the
    stationarity linear system in (U, D); the Hessian signature (control
    block positive definite, disturbance block negative definite) is
    verified and failure marks the solution infeasible.
    """
    prob = build_stacked(model)
    T = model.horizon
    N, Nu = prob.AA.shape[1], prob.BB.shape[2]
    g2 = model.gamma ** 2
    M = np.zeros((N, N))
    c = 0.0
    KU = np.zeros((T, Nu, N))
    KD = np.zeros((T, N, N))
    feasible = True
    for t in range(T, 0, -1):
        AA, BB = prob.AA[t - 1], prob.BB[t - 1]
        Huu = prob.RR[t - 1] + BB.T @ M @ BB
        Hdd = M - g2 * prob.Wd
        min_u = float(np.min(np.linalg.eigvalsh(Huu)))
        min_d = float(np.min(np.linalg.eigvalsh(-Hdd)))
        if min_u <= 0 or min_d <= 0:
            feasible = False
        H = np.block([[Huu, BB.T @ M], [M @ BB, Hdd]])
        rhs = -np.vstack([BB.T @ M @ AA, M @ AA])
        try:
            K = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            feasible = False
            K = np.linalg.lstsq(H, rhs, rcond=None)[0]
        KU[t - 1], KD[t - 1] = K[:Nu], K[Nu:]
        Phi = AA + BB @ KU[t - 1] + KD[t - 1]
        c += float(np.trace(M @ prob.noise_cov[t - 1]))
        M = (prob.QQ[t - 1] + KU[t - 1].T @ prob.RR[t - 1] @ KU[t - 1]
             - g2 * KD[t - 1].T @ prob.Wd @ KD[t - 1] + Phi.T @ M @ Phi)
        M = (M + M.T) / 2.0
    return StackedSolution(prob=prob, KU=KU, KD=KD, M1=M, c1=c, feasible=feasible)


def decomposed_joint_gains(model: ModelSpec, gains: StrategyGains):
    """Map the decomposed feedback to joint-state gain matrices.

    The induced joint feedback is linear in the stack, so the decomposed
    strategy is directly comparable, entry by entry, with the joint
    recursion's unique saddle-point gains.  Each stack is filled as
    (T, n+1, dim, n+1, lx), the layout of ``build_stacked``.
    """
    T, lx, lu, n = model.horizon, model.state_dim, model.action_dim, model.n_followers
    f = np.arange(1, n + 1)  # [:, f, :, f] are the n follower diagonal blocks
    joint = []
    for own, bar, dim in ((gains.L_brev, gains.L_bar, lu), (gains.K_brev, gains.K_bar, lx)):
        b11, b12 = bar[:, :dim, :lx], bar[:, :dim, lx:]
        b21, b22 = bar[:, dim:, :lx], bar[:, dim:, lx:]
        shared = (b22 - own) / n  # each follower's gain on every follower, itself included
        G = np.zeros((T, n + 1, dim, n + 1, lx))
        G[:, 0, :, 0] = b11
        G[:, 0, :, 1:] = (b12 / n)[:, :, None]
        G[:, 1:, :, 0] = b21[:, None]
        G[:, 1:, :, 1:] = (shared + 0.0)[:, None, :, None]
        G[:, f, :, f] = shared + own
        joint.append(G.reshape(T, (n + 1) * dim, (n + 1) * lx))
    return tuple(joint)


def rollout_joint(model: ModelSpec, prob: StackedProblem, KU: np.ndarray, KD: np.ndarray):
    """Noise-free closed loop under joint feedback from the model's start point; raw costs.

    With gains KU (T, Nu, N) and KD (T, N, N), returns (total cost,
    trajectory (T, N)).  Gain stacks with a leading batch axis, KU
    (P, T, Nu, N) and/or KD (P, T, N, N), step P closed loops together from
    the same initial state and return costs (P,) and trajectories
    (P, T, N); each loop gets the bits it gets alone.  The cost is the
    plain per-agent sum, no deviation or aggregate shortcut.
    """
    T, lx, lu, n = model.horizon, model.state_dim, model.action_dim, model.n_followers
    batch = np.broadcast_shapes(KU.shape[:-3], KD.shape[:-3])  # () or (P,)
    X = np.broadcast_to(_start_point(model), batch + (prob.AA.shape[1],))
    traj = np.zeros(batch + (T, X.shape[-1]))
    total = np.zeros(batch)
    for t in range(1, T + 1):
        U = matvec(KU[..., t - 1, :, :], X)
        D = matvec(KD[..., t - 1, :, :], X)
        xf = X[..., lx:].reshape(batch + (n, lx))
        uf = U[..., lu:].reshape(batch + (n, lu))
        df = D[..., lx:].reshape(batch + (n, lx))
        total = total + stage_cost(model, t, X[..., :lx], U[..., :lu], D[..., :lx], xf, uf, df,
                                   xf.mean(axis=-2), uf.mean(axis=-2))
        traj[..., t - 1, :] = X
        X = matvec(prob.AA[t - 1], X) + matvec(prob.BB[t - 1], U) + D
    return (total if batch else float(total)), traj


def verify_equivalence(model: ModelSpec, gains: StrategyGains) -> SaddleReport:
    """Joint-vs-decomposed value, gains and noise-free trajectory of a ``point_model``."""
    loose = [f"{name} is {getattr(model, name).kind}" for name in ("leader_init", "follower_init")
             if getattr(model, name).kind != "deterministic"]
    loose += [f"{name} is nonzero" for name in ("noise_leader", "noise_follower")
              if np.any(getattr(model, name))]
    if loose:
        raise ValueError(f"{loose[0]}: verify_equivalence needs a deterministic start and zero "
                         f"noise; build the model with oracle.point_model")
    _check_gains(model, gains)
    decomposed_value = optimal_value(model, solve_riccati(model))
    sol = stacked_saddle_solve(model)
    report = SaddleReport()
    if not sol.feasible:
        report.value_gap = float("inf")
        return report
    joint_value = sol.value(model)
    report.value_gap = float(abs(joint_value - decomposed_value))
    KUd, KDd = decomposed_joint_gains(model, gains)
    report.max_gain_discrepancy = max(
        float(np.max(np.abs(KUd - sol.KU))), float(np.max(np.abs(KDd - sol.KD))))
    costs, trajs = rollout_joint(model, sol.prob, np.stack([sol.KU, KUd]),
                                 np.stack([sol.KD, KDd]))
    cost_joint, cost_dec = float(costs[0]), float(costs[1])
    report.base_cost = cost_dec
    scale = max(1.0, abs(joint_value))
    traj_gap = float(np.max(np.abs(trajs[0] - trajs[1])))
    report.ok = (report.value_gap <= 1e-8 * scale
                 and abs(cost_joint - joint_value) <= 1e-8 * scale
                 and abs(cost_joint - cost_dec) <= 1e-8 * scale
                 and traj_gap <= 1e-8 * max(1.0, float(np.max(np.abs(trajs[0])))))
    return report


def saddle_check(model: ModelSpec, gains: StrategyGains, num_directions: int = 50,
                 seed: int = 0) -> SaddleReport:
    """Random gain perturbations around the saddle point, from the model's start point.

    Control-side perturbations must not decrease the deterministic cost
    (beyond -1e-9), disturbance-side perturbations must not increase it
    (beyond +1e-9).  All deltas are recorded.  Each side's perturbed gains
    are rolled out as one batch, or in blocks of directions holding at most
    ``BLOCK_GAIN_ENTRIES`` gain entries each.  ``num_directions`` must be an
    integer >= 1 and ``seed`` one >= 0; gains of another horizon or other
    dimensions than ``model``'s are a ValueError.
    """
    num_directions = _count("num_directions (verify --directions)", num_directions, 1)
    seed = _count("seed", seed, 0)
    _check_gains(model, gains)
    KU0, KD0 = decomposed_joint_gains(model, gains)
    prob = build_stacked(model)
    base, _ = rollout_joint(model, prob, KU0, KD0)
    rng = np.random.default_rng(seed)
    step_axis = np.asarray(SADDLE_STEPS)[:, None, None, None]

    report = SaddleReport(base_cost=base)
    for side, K0 in (("control", KU0), ("disturbance", KD0)):
        block = max(1, BLOCK_GAIN_ENTRIES // (len(SADDLE_STEPS) * K0.size))
        for first in range(0, num_directions, block):
            ks = range(first, min(first + block, num_directions))
            perturbed = np.empty((len(ks), len(SADDLE_STEPS)) + K0.shape)
            for row in perturbed:
                direction = rng.standard_normal(K0.shape)
                direction /= np.linalg.norm(direction)
                row[:] = K0 + step_axis * direction
            perturbed = perturbed.reshape((-1,) + K0.shape)  # rows in (direction, step) order
            KU, KD = (perturbed, KD0) if side == "control" else (KU0, perturbed)
            costs, _ = rollout_joint(model, prob, KU, KD)
            report.perturbations.extend(
                (side, k, step, float(delta))
                for (k, step), delta in zip(itertools.product(ks, SADDLE_STEPS), costs - base))
    control = [d for s, _, _, d in report.perturbations if s == "control"]
    disturb = [d for s, _, _, d in report.perturbations if s == "disturbance"]
    report.control_min_delta = min(control)
    report.disturbance_max_delta = max(disturb)
    report.ok = (report.control_min_delta >= -1e-9 and report.disturbance_max_delta <= 1e-9)
    return report


def check_population_sizes(n_list) -> None:
    """Raise ValueError unless every population size is a whole number of at least 1, not a bool."""
    bad = [n for n in n_list if isinstance(n, bool) or not isinstance(n, numbers.Real)
           or not float(n).is_integer() or n < 1]
    if bad:
        raise ValueError(f"--n population sizes must be whole numbers >= 1, got {bad}")


def imfs_gap_study(model: ModelSpec, gains: StrategyGains, n_list, seed: int, runs: int,
                   disturbance: DisturbancePolicy = DisturbancePolicy.worst_case(),
                   info: InfoStructure = InfoStructure()) -> list[dict]:
    """|J(info) - J(full sharing)| across population sizes; ``info`` defaults to no sharing.

    Common random numbers: both arms are simulated in one ``simulate``
    call per n, as two arms of the same runs, so initial states and noises
    coincide run by run.  The per-follower coefficients are n-independent,
    so the same gains drive every population size.
    """
    n_list = list(n_list)
    check_population_sizes(n_list)
    cfg = SimConfig(master_seed=seed, num_runs=runs, disturbance=disturbance)
    arms = (InfoStructure.mfs(), info)
    rows = []
    for n in map(int, n_list):
        mdl = replace(model, n_followers=n)
        j_mfs, j_imfs = (evaluate_cost(records)
                         for records in simulate(mdl, gains, cfg, arms=arms))
        gap = abs(j_imfs.mean - j_mfs.mean)
        rows.append({"n": n, "runs": runs, "j_mfs": j_mfs.mean, "j_imfs": j_imfs.mean,
                     "gap": gap, "gap_times_n": gap * n})
    return rows


def saddle_report_csv(report: SaddleReport) -> str:
    """One row per perturbation (side, direction, step, delta); one ``%`` template."""
    values = [v for side, k, step, delta in report.perturbations
              for v in (side, k, float(step), float(delta))]
    table = "%s,%s,%r,%r\n" * len(report.perturbations)
    return "side,direction,step,delta\n" + table % tuple(values)


def gap_table_csv(rows: list[dict]) -> str:
    """One row per population size of ``imfs_gap_study``; one ``%`` template."""
    values = [v for row in rows for v in (
        row["n"], row["runs"], float(row["j_mfs"]), float(row["j_imfs"]), float(row["gap"]),
        float(row["gap_times_n"]))]
    table = "%s,%s,%r,%r,%r,%r\n" * len(rows)
    return "n,runs,j_mfs,j_imfs,gap,gap_times_n\n" + table % tuple(values)
