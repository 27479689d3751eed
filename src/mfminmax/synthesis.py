"""Backward recursions, feasibility test, saddle-point gains, optimal value.

Two decoupled Riccati-type recursions drive everything: one on the
follower deviation system (lx) and one on the augmented [leader; mean]
system (2lx).  Backward from t = T with zero terminal weight:

    Delta_t = I + B R^{-1} B' M_{t+1} - gamma^{-2} M_{t+1}
    M_t     = Q + A' M_{t+1} Delta_t^{-1} A

A finite saddle point exists iff gamma^2 I - M_{t+1} is positive definite
at every step (the inner maximization stays strictly concave); margins are
the smallest eigenvalues of those tests.  When the test fails the
recursion still runs, flagged, so the margin profile is reportable.  One
walk carries any number of gamma at once (``feasible``, ``critical_gamma``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelError, ModelSpec, _attenuation, build_augmented

__all__ = [
    "InfeasibleError",
    "RiccatiSolution",
    "StrategyGains",
    "solve_riccati",
    "feasible",
    "compute_gains",
    "optimal_value",
    "critical_gamma",
    "riccati_csv",
]

# Strict-PD margin for gamma^2 I - M (feasibility) and symmetry guard.
FEAS_TOL = 1e-10
SYM_TOL = 1e-10
# Bisection steps critical_gamma evaluates per walk: up to 2^k - 1 midpoints.
BISECT_DEPTH = 5


class InfeasibleError(RuntimeError):
    """No finite saddle point at this attenuation level."""


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward-recursion output for both subsystems, t = 1..T+1.

    M stacks have T+1 entries (index [t-1]; the last is the zero terminal
    matrix), Delta stacks and margins have T entries.  c_brev is stored
    once (identical across followers for i.i.d. noise).  A solution is
    feasible when no t is flagged.
    """

    gamma: float
    M_brev: np.ndarray       # (T+1, lx, lx)
    M_bar: np.ndarray        # (T+1, 2lx, 2lx)
    Delta_brev: np.ndarray   # (T, lx, lx)
    Delta_bar: np.ndarray    # (T, 2lx, 2lx)
    c_brev: np.ndarray       # (T+1,)
    c_bar: np.ndarray        # (T+1,)
    margin_brev: np.ndarray  # (T,) min eig of gamma^2 I - M_brev[t+1]
    margin_bar: np.ndarray   # (T,)
    infeasible_times: tuple = ()

    @property
    def feasible(self) -> bool:
        return not self.infeasible_times

    def min_margin(self) -> float:
        return float(min(self.margin_brev.min(), self.margin_bar.min()))


@dataclass(frozen=True)
class StrategyGains:
    """Feedback gains of the saddle point, t = 1..T (index [t-1]).

    L_bar rows split into leader-action and mean-action blocks; K gains
    are the worst-case disturbance feedbacks on the deviation and
    augmented states.
    """

    L_brev: np.ndarray  # (T, lu, lx)
    L_bar: np.ndarray   # (T, 2lu, 2lx)
    K_brev: np.ndarray  # (T, lx, lx)
    K_bar: np.ndarray   # (T, 2lx, 2lx)

    @property
    def state_dim(self) -> int:
        return self.L_brev.shape[2]

    @property
    def action_dim(self) -> int:
        return self.L_brev.shape[1]

    def l11(self, t: int) -> np.ndarray:
        return self.L_bar[t - 1, : self.action_dim, : self.state_dim]

    def l12(self, t: int) -> np.ndarray:
        return self.L_bar[t - 1, : self.action_dim, self.state_dim :]

    def l21(self, t: int) -> np.ndarray:
        return self.L_bar[t - 1, self.action_dim :, : self.state_dim]

    def l22(self, t: int) -> np.ndarray:
        return self.L_bar[t - 1, self.action_dim :, self.state_dim :]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a non-finite t is flagged
def _backward(A, B, Q, R, W, gammas: np.ndarray):
    """One soft-constrained recursion and its noise constants for G gammas at once.

    Never raises on infeasibility.  Returns, with a leading gamma axis, M
    (G, T+1, dim, dim), Delta (G, T, dim, dim), c (G, T+1), the margins and a
    (G, T) mask of the flagged t (index t-1): a margin at or below FEAS_TOL,
    a singular Delta, an asymmetric M, or a non-finite entry in M_t, Delta_t
    or the margin's test matrix, whose margin is nan.  Each gamma's rows carry
    the bits of its own walk: every product and inverse is taken matrix by
    matrix, so a gamma whose walk overflows (gamma**2 near 0, say) flags
    only its own rows.
    """
    T, dim = A.shape[0], A.shape[1]
    G = gammas.shape[0]
    M = np.zeros((G, T + 1, dim, dim))
    M_raw = np.zeros((G, T, dim, dim))  # M_t before symmetrization
    Delta = np.zeros((G, T, dim, dim))
    bad = np.zeros((G, T), dtype=bool)
    eye = np.eye(dim)
    g2 = (gammas * gammas)[:, None, None]
    # B R^{-1} B' - I / gamma^2 for every (gamma, t)
    BRBg = (B @ np.linalg.solve(R, np.swapaxes(B, -1, -2)))[None] - (eye / g2)[:, None]
    for t in range(T, 0, -1):
        Mn = M[:, t]  # M_{t+1} lives at index t
        D = eye + BRBg[:, t - 1] @ Mn
        try:
            Dinv = np.linalg.inv(D)
        except np.linalg.LinAlgError:
            Dinv = np.empty_like(D)
            for g in range(G):
                try:
                    Dinv[g] = np.linalg.inv(D[g])
                except np.linalg.LinAlgError:
                    # Singular Delta: continue on the pseudo-inverse, flagged.
                    bad[g, t - 1] = True
                    Dinv[g] = np.linalg.pinv(D[g])
        Mt = Q[t - 1] + A[t - 1].T @ (Mn @ Dinv) @ A[t - 1]
        M_raw[:, t - 1] = Mt
        M[:, t - 1] = (Mt + np.swapaxes(Mt, -1, -2)) / 2.0
        Delta[:, t - 1] = D
    asym = np.abs(M_raw - np.swapaxes(M_raw, -1, -2)).max(axis=(-2, -1))
    scale = np.fmax(1.0, np.abs(M[:, :-1]).max(axis=(-2, -1)))  # a nan max reads as 1.0
    bad |= asym > SYM_TOL * scale
    # c_t = c_{t+1} + tr(M_{t+1} W_t), summed from c_{T+1} = +0.0
    traces = np.trace(M[:, 1:] @ W, axis1=-2, axis2=-1)
    c = np.cumsum(np.concatenate([np.zeros((G, 1)), traces[:, ::-1]], axis=1), axis=1)[:, ::-1]
    test = g2[:, None] * eye - M[:, 1:]  # gamma^2 I - M_{t+1}
    finite = np.isfinite(np.concatenate([test, M[:, :-1], Delta], axis=-1)).all(axis=(-2, -1))
    margins = np.full((G, T), np.nan)
    margins[finite] = np.linalg.eigvalsh(test[finite]).min(axis=-1)
    return M, Delta, c, margins, bad | ~finite | (margins <= FEAS_TOL)


def _walk(model: ModelSpec, gammas: np.ndarray):
    """The deviation and the augmented ``_backward`` outputs of ``model`` for every gamma."""
    aug = build_augmented(model)
    T, n, lx = model.horizon, model.n_followers, model.state_dim
    # The deviation noise w^i - wbar has covariance (1 - 1/n) Cov(w^i); the
    # stacked [w0; wbar] covariance is block diagonal with Cov(w^i)/n in the
    # mean block (i.i.d. followers).
    cov_dev = (1.0 - 1.0 / n) * model.noise_follower
    cov_aug = np.zeros((T, 2 * lx, 2 * lx))
    cov_aug[:, :lx, :lx] = model.noise_leader
    cov_aug[:, lx:, lx:] = model.noise_follower / n
    return (_backward(model.A, model.B, model.Q, model.R, cov_dev, gammas),
            _backward(aug.A_bar, aug.B_bar, aug.Q_bar, aug.R_bar, cov_aug, gammas))


def solve_riccati(model: ModelSpec) -> RiccatiSolution:
    """Both backward recursions plus the noise constants and margins."""
    dev, aug = _walk(model, np.array([model.gamma]))
    Mb, Db, c_brev, marg_b, bad_b = (out[0] for out in dev)
    MB, DB, c_bar, marg_B, bad_B = (out[0] for out in aug)
    bad = bad_b | bad_B
    return RiccatiSolution(
        gamma=model.gamma, M_brev=Mb, M_bar=MB, Delta_brev=Db, Delta_bar=DB,
        c_brev=c_brev, c_bar=c_bar, margin_brev=marg_b, margin_bar=marg_B,
        infeasible_times=tuple((np.flatnonzero(bad) + 1).tolist()),
    )


def feasible(model: ModelSpec, gammas) -> np.ndarray:
    """Whether a saddle point exists at each of ``gammas``, from one walk per recursion.

    Entry k equals ``solve_riccati(model.with_gamma(gammas[k])).feasible``;
    each gamma must be positive and finite.
    """
    levels = np.array([_attenuation(g) for g in gammas], dtype=float)
    (*_, bad_dev), (*_, bad_aug) = _walk(model, levels)
    return ~(bad_dev | bad_aug).any(axis=1)


def _check_solution(model: ModelSpec, ric: RiccatiSolution) -> None:
    """Reject a solution of another gamma, horizon or state dimension than ``model``'s."""
    if ric.gamma != model.gamma:
        raise ModelError(f"the solution is for gamma={ric.gamma!r}, the model has "
                         f"gamma={model.gamma!r}")
    shape = (model.horizon + 1, model.state_dim, model.state_dim)
    if ric.M_brev.shape != shape:
        raise ModelError(f"the solution's M_brev has shape {ric.M_brev.shape}, "
                         f"the model's (T+1, lx, lx) is {shape}")


def _check_gains(model: ModelSpec, gains: StrategyGains) -> None:
    """Reject gains of another horizon or other dimensions than ``model``'s."""
    shape = (model.horizon, model.action_dim, model.state_dim)
    if gains.L_brev.shape != shape:
        raise ModelError(f"the gains' L_brev has shape {gains.L_brev.shape}, "
                         f"the model's (T, lu, lx) is {shape}")


def compute_gains(model: ModelSpec, ric: RiccatiSolution) -> StrategyGains:
    """Control gains and worst-case disturbance gains from the recursions of this model;
    a solution of another gamma, horizon or state dimension is a ModelError."""
    _check_solution(model, ric)
    if not ric.feasible:
        raise InfeasibleError(
            f"no saddle point at gamma={ric.gamma:g}: "
            f"margin {ric.min_margin():.3g} at t in {list(ric.infeasible_times)[:6]}",
        )
    aug = build_augmented(model)
    g2 = model.gamma ** 2
    # M_{t+1} Delta_t^{-1} A_t for every t at once
    MDA = ric.M_brev[1:] @ np.linalg.solve(ric.Delta_brev, model.A)
    MDA_bar = ric.M_bar[1:] @ np.linalg.solve(ric.Delta_bar, aug.A_bar)
    return StrategyGains(
        L_brev=-np.linalg.solve(model.R, np.swapaxes(model.B, -1, -2) @ MDA),
        L_bar=-np.linalg.solve(aug.R_bar, np.swapaxes(aug.B_bar, -1, -2) @ MDA_bar),
        K_brev=MDA / g2, K_bar=MDA_bar / g2)


def optimal_value(model: ModelSpec, ric: RiccatiSolution) -> float:
    """Saddle-point performance from the initial second moments.

    Uses E[zz'] = Cov(z) + mean mean' throughout; for i.i.d. follower
    initials the deviation from the sample mean has zero mean and
    covariance (1 - 1/n) Cov(x^i_1), while a deterministic population
    list contributes its empirical deviation second moment.  A solution of
    another gamma, horizon or state dimension than ``model``'s is a ModelError.
    """
    _check_solution(model, ric)
    if not ric.feasible:
        raise InfeasibleError(
            f"optimal value undefined at gamma={ric.gamma:g} (margin {ric.min_margin():.3g})",
        )
    n, lx = model.n_followers, model.state_dim
    finit = model.follower_init
    with np.errstate(over="ignore", invalid="ignore"):  # a moment that overflows is rejected below
        if finit.kind == "deterministic":
            vals = finit.sample(None, n)
            dev = vals - vals.mean(axis=0)
            dev_sm = dev.T @ dev / n
            mean_cov = np.zeros((lx, lx))
        else:
            dev_sm = (1.0 - 1.0 / n) * finit.cov()
            mean_cov = finit.cov() / n
        mu = np.concatenate([model.leader_init.mean(), finit.mean()])
        cov = np.zeros((2 * lx, 2 * lx))
        cov[:lx, :lx] = model.leader_init.cov()
        cov[lx:, lx:] = mean_cov
        second = cov + np.outer(mu, mu)
        for key, moments in (("leader_init", [second[:lx, :lx]]),
                             ("follower_init", [dev_sm, second[lx:, lx:]])):
            if not all(np.isfinite(m).all() for m in moments):
                raise ModelError(f"{key}: initial second moments are not finite")
        value = float(np.trace(ric.M_brev[0] @ dev_sm)) + float(ric.c_brev[0])
        value += float(np.trace(ric.M_bar[0] @ second)) + float(ric.c_bar[0])
    if not math.isfinite(value):
        raise ModelError("leader_init, follower_init: the optimal value of these initial "
                         "states is not finite")
    return value


def _bisection_tree(lo: float, hi: float, tol: float, depth: int) -> list:
    """Every midpoint the next ``depth`` bisection steps from (lo, hi) could visit."""
    if depth == 0 or not hi - lo > tol:
        return []
    mid = 0.5 * (lo + hi)
    if not lo < mid < hi:
        return []
    return ([mid] + _bisection_tree(lo, mid, tol, depth - 1)
            + _bisection_tree(mid, hi, tol, depth - 1))


def critical_gamma(model: ModelSpec, gamma_lo: float, gamma_hi: float, tol: float = 1e-6) -> float:
    """Bisect the feasibility boundary between an infeasible and a feasible gamma.

    Requires gamma_lo < gamma_hi, infeasibility at gamma_lo and feasibility
    at gamma_hi.  Every infeasible point seen stays at or below ``lo`` and
    every feasible one at or above ``hi``.  The bisection stops once
    hi - lo <= tol, or once the midpoint rounds onto an end of the bracket.

    Each ``feasible`` walk evaluates every midpoint of the next BISECT_DEPTH
    steps (the bracket ends join the first); the bisection then follows the
    one path it would take testing one gamma at a time, so it returns the
    same bits.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not gamma_lo < gamma_hi:
        raise ValueError(f"bisection bracket invalid: gamma_lo={gamma_lo:g} "
                         f"is not below gamma_hi={gamma_hi:g}")

    seen = {}

    def evaluate(gammas: list) -> None:
        seen.update(zip(gammas, feasible(model, gammas).tolist()))

    evaluate([gamma_lo, gamma_hi] + _bisection_tree(gamma_lo, gamma_hi, tol, BISECT_DEPTH))
    lo_ok, hi_ok = seen[gamma_lo], seen[gamma_hi]
    if lo_ok or not hi_ok:
        raise ValueError(
            f"bisection bracket invalid: feasible(gamma_lo={gamma_lo:g})={lo_ok}, "
            f"feasible(gamma_hi={gamma_hi:g})={hi_ok}"
        )
    lo, hi = gamma_lo, gamma_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid not in seen:
            evaluate(_bisection_tree(lo, hi, tol, BISECT_DEPTH))
        if seen[mid]:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def riccati_csv(ric: RiccatiSolution, gains: StrategyGains | None = None) -> str:
    """Long-format dump (t, matrix, row, col, value) for golden-file diffs.

    Values are ``repr`` of each float; the rows are one ``%`` template.
    """
    stacks = [("M_brev", ric.M_brev), ("M_bar", ric.M_bar),
              ("Delta_brev", ric.Delta_brev), ("Delta_bar", ric.Delta_bar)]
    stacks += [(name, getattr(ric, name).reshape(-1, 1, 1))
               for name in ("c_brev", "c_bar", "margin_brev", "margin_bar")]
    if gains is not None:
        stacks += [(name, getattr(gains, name)) for name in ("L_brev", "L_bar", "K_brev", "K_bar")]
    template = "".join(f"{t},{name},{i},{j},%r\n" for name, stack in stacks
                       for t in range(1, stack.shape[0] + 1)
                       for i in range(stack.shape[1]) for j in range(stack.shape[2]))
    values = np.concatenate([stack.ravel() for _, stack in stacks]).tolist()
    return "t,matrix,row,col,value\n" + template % tuple(values)
