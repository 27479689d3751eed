"""Executable policies for each information structure.

The saddle-point actions feed back on the own state, the leader state and
the follower mean.  When the mean is unobserved (intermittent sharing) the
policy runs on the estimate m_hat, propagated through the closed-loop mean
dynamics and reset to the true mean at observation times.  The propagation
includes the worst-case mean disturbance evaluated at (x0, m_hat) by
default -- the true mean is not measurable there -- with a nominal (zero
disturbance) ablation switch.

Every function takes one run or a block of runs stacked on a leading
axis: x0 and m_hat (lx,) or (R, lx), follower states (lx,), (n, lx) or
(R, n, lx).  Each run of a block gets the bits it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import InfoStructure, ModelSpec
from .synthesis import StrategyGains

__all__ = [
    "PolicyState",
    "leader_action",
    "follower_action",
    "worst_case_disturbance",
    "estimator_step",
]


def matvec(K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """K v for each vector v along the last axis of V.

    Bit for bit the 1-D ``K @ v`` of each vector alone, which ``V @ K.T``
    and ``einsum`` are not.
    """
    return np.matmul(K, V[..., None])[..., 0]


@dataclass
class PolicyState:
    """Mutable policy context of one run or a block: gains, info structure, m_hat, time.

    One PolicyState per simulation block; it is advanced sequentially in t.
    Under full sharing m_hat is simply the observed mean at every step.
    """

    model: ModelSpec
    gains: StrategyGains
    info: InfoStructure
    m_hat: np.ndarray = field(default=None)
    t: int = 1
    use_worst_case_dbar: bool = True

    @classmethod
    def start(cls, model: ModelSpec, gains: StrategyGains, info: InfoStructure,
              xbar1: np.ndarray | None = None, use_worst_case_dbar: bool = True) -> "PolicyState":
        """Policy at t=1: the known initial mean, or the observed one.

        ``xbar1`` (lx,) or (R, lx) also sets the run axis: the known mean
        is repeated for each of its runs.
        """
        if info.observed(1):
            if xbar1 is None:
                raise ValueError("t=1 is an observation time but no mean was supplied")
            m1 = np.asarray(xbar1, dtype=float).copy()
        else:
            m1 = model.follower_init.mean()
            if xbar1 is not None:
                m1 = np.broadcast_to(m1, np.shape(xbar1)).copy()
        return cls(model=model, gains=gains, info=info, m_hat=m1, t=1,
                   use_worst_case_dbar=use_worst_case_dbar)


def leader_action(p: PolicyState, x0: np.ndarray) -> np.ndarray:
    """u0_t = L11 x0 + L12 m_hat."""
    g = p.gains
    return matvec(g.l11(p.t), x0) + matvec(g.l12(p.t), p.m_hat)


def follower_action(p: PolicyState, xi: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """u^i_t = L_brev x^i + L21 x0 + (L22 - L_brev) m_hat.

    ``xi`` may be one state for each leader state in ``x0`` (same ndim)
    or a population batch with one more axis, (n, lx) or (R, n, lx); the
    result matches.
    """
    g = p.gains
    L = g.L_brev[p.t - 1]
    common = matvec(g.l21(p.t), x0) + matvec(g.l22(p.t) - L, p.m_hat)
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == common.ndim:
        return matvec(L, xi) + common
    return xi @ L.T + common[..., None, :]


def worst_case_disturbance(gains: StrategyGains, t: int, x0: np.ndarray, mean: np.ndarray,
                           xi: np.ndarray | None = None):
    """The saddle-point disturbance at time t, fed back on ``mean``.

    Returns (d0, dbar) from the augmented gain K_bar [x0; mean]; with
    ``xi`` given (one state per mean, or a population batch with one more
    axis), the second entry is instead the per-follower
    d^i = K_brev (x^i - mean) + dbar.  The caller picks the mean: the true
    follower average, or m_hat where that is not measurable.
    """
    lx = gains.state_dim
    aug = matvec(gains.K_bar[t - 1], np.concatenate([x0, mean], axis=-1))
    d0, dbar = aug[..., :lx], aug[..., lx:]
    if xi is None:
        return d0, dbar
    if np.ndim(xi) > np.ndim(mean):
        mean, dbar = mean[..., None, :], dbar[..., None, :]
    return d0, (xi - mean) @ gains.K_brev[t - 1].T + dbar


def estimator_step(p: PolicyState, x0: np.ndarray, observed: np.ndarray | None = None) -> np.ndarray:
    """Advance m_hat to t+1: reset to an observed mean, or propagate.

    Propagation runs the closed-loop mean dynamics
    m_{t+1} = (A + S + B L22) m + (B L21 + E) x0 + dbar, with dbar the
    worst-case value at (x0, m_hat) or zero under the nominal switch.
    Mutates and returns p.m_hat; p.t advances by one.
    """
    t, m, g = p.t, p.m_hat, p.gains
    if t >= p.model.horizon:
        raise ValueError(f"cannot advance the estimator past the horizon (t={t})")
    if observed is not None:
        if not p.info.observed(t + 1):
            raise ValueError(f"t+1={t + 1} is not an observation time")
        p.m_hat = np.asarray(observed, dtype=float).copy()
    else:
        mdl = p.model
        closed = mdl.A[t - 1] + mdl.S[t - 1] + mdl.B[t - 1] @ g.l22(t)
        drive = matvec(mdl.B[t - 1] @ g.l21(t) + mdl.E[t - 1], x0)
        if p.use_worst_case_dbar:
            dbar = worst_case_disturbance(g, t, x0, m)[1]
        else:
            dbar = np.zeros(np.shape(m))
        p.m_hat = matvec(closed, m) + drive + dbar
    p.t = t + 1
    return p.m_hat
