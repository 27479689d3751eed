"""Independent verification against the full joint problem.

Everything here deliberately avoids the deviation/aggregate change of
coordinates: the joint state is the raw stack [x0; x1; ...; xn], the
backward minmax recursion solves the joint stage stationarity system
directly, and costs are accumulated from the raw per-agent sum.  Agreement
with the decomposed synthesis is therefore evidence, not tautology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .model import DisturbancePolicy, InfoStructure, ModelSpec
from .sim import SimConfig, evaluate_cost, simulate, stage_cost
from .strategy import matvec
from .synthesis import StrategyGains

__all__ = [
    "StackedProblem",
    "StackedSolution",
    "SaddleReport",
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

MAX_ORACLE_FOLLOWERS = 16

BLOCK_GAIN_ENTRIES = 2 ** 18
"""Most perturbed gain entries one batched saddle-check rollout holds: bounds its memory at large n."""


@dataclass(frozen=True)
class StackedProblem:
    """Joint system on the stacked (n+1)-agent state.

    AA/BB are (T, N, N)/(T, N, Nu) transition stacks with N = (n+1) lx;
    QQ/RR the joint quadratic weights; Wd the diagonal disturbance-penalty
    weight (leader channel 1, each follower channel 1/n).
    """

    n: int
    AA: np.ndarray
    BB: np.ndarray
    QQ: np.ndarray
    RR: np.ndarray
    Wd: np.ndarray
    noise_cov: np.ndarray  # (T, N, N)


@dataclass(frozen=True)
class StackedSolution:
    KU: np.ndarray        # (T, Nu, N) joint control feedback
    KD: np.ndarray        # (T, N, N) joint disturbance feedback
    M1: np.ndarray        # (N, N) joint value matrix at t=1
    c1: float
    feasible: bool

    def value(self, x0: np.ndarray, followers: np.ndarray) -> float:
        """Deterministic-initials value x1' M1 x1 + c1."""
        x1 = np.concatenate([np.atleast_1d(x0), np.asarray(followers, dtype=float).ravel()])
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


def build_stacked(model: ModelSpec, n: int) -> StackedProblem:
    """Assemble the joint matrices from the raw dynamics and cost.

    Each stack is filled as (T, n+1, dim, n+1, dim), whose [:, i, :, j] is the
    block of agents i and j (0 = leader), for all t and followers at once; each
    entry gets a per-agent loop's writes in its order, signs of zeros included.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
    return StackedProblem(n=n, AA=AA.reshape(T, N, N), BB=BB.reshape(T, N, Nu),
                          QQ=QQ.reshape(T, N, N), RR=RR.reshape(T, Nu, Nu), Wd=Wd,
                          noise_cov=noise.reshape(T, N, N))


def stacked_saddle_solve(model: ModelSpec, n: int) -> StackedSolution:
    """Backward joint minmax recursion on the stacked state.

    At each step the joint stage quadratic is optimized by solving the
    stationarity linear system in (U, D); the Hessian signature (control
    block positive definite, disturbance block negative definite) is
    verified and failure marks the solution infeasible.
    """
    prob = build_stacked(model, n)
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
    return StackedSolution(KU=KU, KD=KD, M1=M, c1=c, feasible=feasible)


def decomposed_joint_gains(model: ModelSpec, gains: StrategyGains, n: int):
    """Map the decomposed feedback to joint-state gain matrices.

    The induced joint feedback is linear in the stack, so the decomposed
    strategy is directly comparable, entry by entry, with the joint
    recursion's unique saddle-point gains.
    """
    T, lx, lu = model.horizon, model.state_dim, model.action_dim
    N, Nu = (n + 1) * lx, (n + 1) * lu
    KU = np.zeros((T, Nu, N))
    KD = np.zeros((T, N, N))
    for t in range(1, T + 1):
        L = gains.L_brev[t - 1]
        K = gains.K_brev[t - 1]
        l11, l12, l21, l22 = gains.l11(t), gains.l12(t), gains.l21(t), gains.l22(t)
        kb = gains.K_bar[t - 1]
        k11, k12 = kb[:lx, :lx], kb[:lx, lx:]
        k21, k22 = kb[lx:, :lx], kb[lx:, lx:]
        KU[t - 1, :lu, :lx] = l11
        KD[t - 1, :lx, :lx] = k11
        for j in range(1, n + 1):
            KU[t - 1, :lu, j * lx:(j + 1) * lx] = l12 / n
            KD[t - 1, :lx, j * lx:(j + 1) * lx] = k12 / n
        for i in range(1, n + 1):
            KU[t - 1, i * lu:(i + 1) * lu, :lx] = l21
            KD[t - 1, i * lx:(i + 1) * lx, :lx] = k21
            for j in range(1, n + 1):
                KU[t - 1, i * lu:(i + 1) * lu, j * lx:(j + 1) * lx] = (l22 - L) / n + (L if i == j else 0.0)
                KD[t - 1, i * lx:(i + 1) * lx, j * lx:(j + 1) * lx] = (k22 - K) / n + (K if i == j else 0.0)
    return KU, KD


def rollout_joint(model: ModelSpec, prob: StackedProblem, KU: np.ndarray, KD: np.ndarray,
                  x0_init: np.ndarray, followers_init: np.ndarray):
    """Noise-free closed loop under joint feedback; raw cost accounting.

    With gains KU (T, Nu, N) and KD (T, N, N), returns (total cost,
    trajectory (T, N)).  Gain stacks with a leading batch axis, KU
    (P, T, Nu, N) and/or KD (P, T, N, N), step P closed loops together from
    the same initial state and return costs (P,) and trajectories
    (P, T, N); each loop gets the bits it gets alone.  The cost is the
    plain per-agent sum, no deviation or aggregate shortcut.
    """
    T, lx, lu, n = model.horizon, model.state_dim, model.action_dim, prob.n
    batch = np.broadcast_shapes(KU.shape[:-3], KD.shape[:-3])  # () or (P,)
    X = np.concatenate([np.atleast_1d(x0_init),
                        np.asarray(followers_init, dtype=float).reshape(n * lx)])
    X = np.broadcast_to(X, batch + X.shape)
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


def verify_equivalence(model: ModelSpec, gains: StrategyGains, n: int,
                       x0_init, followers_init, decomposed_value: float) -> SaddleReport:
    """Joint-vs-decomposed agreement: value, gains, closed-loop trajectory."""
    sol = stacked_saddle_solve(model, n)
    report = SaddleReport()
    if not sol.feasible:
        report.value_gap = float("inf")
        return report
    joint_value = sol.value(np.atleast_1d(x0_init), followers_init)
    report.value_gap = float(abs(joint_value - decomposed_value))
    KUd, KDd = decomposed_joint_gains(model, gains, n)
    report.max_gain_discrepancy = max(
        float(np.max(np.abs(KUd - sol.KU))), float(np.max(np.abs(KDd - sol.KD))))
    prob = build_stacked(model, n)
    costs, trajs = rollout_joint(model, prob, np.stack([sol.KU, KUd]), np.stack([sol.KD, KDd]),
                                 x0_init, followers_init)
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
                 steps=(1e-3, 1e-2), seed: int = 0,
                 x0_init=None, followers_init=None, n: int | None = None) -> SaddleReport:
    """Random gain perturbations around the saddle point.

    Control-side perturbations must not decrease the deterministic cost
    (beyond -1e-9), disturbance-side perturbations must not increase it
    (beyond +1e-9).  All deltas are recorded.  Each side's perturbed gains
    are rolled out as one batch, or in blocks of directions holding at most
    ``BLOCK_GAIN_ENTRIES`` gain entries each.
    """
    if num_directions < 1:
        raise ValueError(f"--directions must be >= 1, got {num_directions}")
    n = model.n_followers if n is None else n
    if x0_init is None:
        x0_init = model.leader_init.mean()
    if followers_init is None:
        followers_init = np.atleast_2d(model.follower_init.mean()).repeat(n, axis=0)
    KU0, KD0 = decomposed_joint_gains(model, gains, n)
    prob = build_stacked(model, n)
    base, _ = rollout_joint(model, prob, KU0, KD0, x0_init, followers_init)
    rng = np.random.default_rng(seed)
    step_axis = np.asarray(steps, dtype=float)[:, None, None, None]

    report = SaddleReport(base_cost=base)
    for side, K0 in (("control", KU0), ("disturbance", KD0)):
        block = max(1, BLOCK_GAIN_ENTRIES // (len(steps) * K0.size))
        for first in range(0, num_directions, block):
            ks = range(first, min(first + block, num_directions))
            perturbed = np.empty((len(ks), len(steps)) + K0.shape)
            for row in perturbed:
                direction = rng.standard_normal(K0.shape)
                direction /= np.linalg.norm(direction)
                row[:] = K0 + step_axis * direction
            perturbed = perturbed.reshape((-1,) + K0.shape)  # rows in (direction, step) order
            KU, KD = (perturbed, KD0) if side == "control" else (KU0, perturbed)
            costs, _ = rollout_joint(model, prob, KU, KD, x0_init, followers_init)
            report.perturbations.extend(
                (side, k, step, float(delta))
                for (k, step), delta in zip(itertools.product(ks, steps), costs - base))
    control = [d for s, _, _, d in report.perturbations if s == "control"]
    disturb = [d for s, _, _, d in report.perturbations if s == "disturbance"]
    report.control_min_delta = min(control)
    report.disturbance_max_delta = max(disturb)
    report.ok = (report.control_min_delta >= -1e-9 and report.disturbance_max_delta <= 1e-9)
    return report


def check_population_sizes(n_list) -> None:
    """Raise ValueError unless every population size is at least 1."""
    bad = [int(n) for n in n_list if int(n) < 1]
    if bad:
        raise ValueError(f"--n population sizes must be >= 1, got {bad}")


def imfs_gap_study(model: ModelSpec, gains: StrategyGains, n_list, seed: int, runs: int,
                   disturbance: DisturbancePolicy | None = None,
                   observation_times=()) -> list[dict]:
    """|J(intermittent) - J(full sharing)| across population sizes.

    Common random numbers: both arms are simulated in one ``simulate``
    call per n, as two arms of the same runs, so initial states and noises
    coincide run by run.  The per-follower coefficients are n-independent,
    so the same gains drive every population size.
    """
    check_population_sizes(n_list)
    if disturbance is None:
        disturbance = DisturbancePolicy.worst_case()
    cfg = SimConfig(master_seed=seed, num_runs=runs, disturbance=disturbance)
    arms = (InfoStructure.mfs(model.horizon), InfoStructure.imfs(observation_times))
    rows = []
    for n in n_list:
        mdl = replace(model, n_followers=int(n))
        j_mfs, j_imfs = (evaluate_cost(mdl, records)
                         for records in simulate(mdl, gains, cfg, arms=arms))
        gap = abs(j_imfs.mean - j_mfs.mean)
        rows.append({"n": int(n), "runs": runs, "j_mfs": j_mfs.mean, "j_imfs": j_imfs.mean,
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
