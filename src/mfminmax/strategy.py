"""Saddle-point feedback maps for each information structure.

The saddle-point actions feed back on the own state, the leader state and
the follower mean.  When the mean is unobserved (intermittent sharing) they
run on the estimate m_hat.  The caller owns m_hat: it resets the estimate
to the true mean at observation times and otherwise advances it with
``estimator_step``, the closed-loop mean dynamics.  That propagation
includes the worst-case mean disturbance evaluated at (x0, m_hat) by
default -- the true mean is not measurable there -- with a nominal (zero
disturbance) ablation switch.

Every function is a pure map of (gains, t, states, m_hat) and takes one
run or a block of runs stacked on a leading axis: x0 and m_hat (lx,) or
(R, lx), follower populations (n, lx) or (R, n, lx).  Each run of a block
gets the bits it gets alone.  A map whose result is a population can write
it into a given ``out`` array of the result's shape instead of a new one,
with the same operations and so the same bits.
"""

from __future__ import annotations

import numpy as np

from .model import ModelSpec
from .synthesis import StrategyGains

__all__ = [
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


def rmatmul(X: np.ndarray, K: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``X @ K.T``: K applied to each row vector along the last axis of X.

    A 1x1 K scales X elementwise, several times cheaper than matmul on a
    population, with the same bits: adding 0.0 turns a -0.0 product into
    the +0.0 of matmul's zero-started sum.  One exception: where an entry
    of X and K itself are both nan, the nan may carry K's payload instead
    of X's.  ``out`` may be X itself; matmul then reads a copy of X.
    """
    if K.shape == (1, 1):
        out = np.multiply(X, K[0, 0], out=out)
        return np.add(0.0, out, out=out)
    return X @ K.T if out is None else np.matmul(X, K.T, out=out)


def leader_action(gains: StrategyGains, t: int, x0: np.ndarray, m_hat: np.ndarray) -> np.ndarray:
    """u0_t = L11 x0 + L12 m_hat."""
    return matvec(gains.l11(t), x0) + matvec(gains.l12(t), m_hat)


def follower_action(gains: StrategyGains, t: int, xf: np.ndarray, x0: np.ndarray,
                    m_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """u^i_t = L_brev x^i + L21 x0 + (L22 - L_brev) m_hat for each follower x^i.

    ``xf`` is a population, (n, lx) or (R, n, lx); the result, in ``out``
    when given, matches it with lu components.
    """
    L = gains.L_brev[t - 1]
    common = matvec(gains.l21(t), x0) + matvec(gains.l22(t) - L, m_hat)
    out = rmatmul(xf, L, out=out)
    return np.add(out, common[..., None, :], out=out)


def worst_case_disturbance(gains: StrategyGains, t: int, x0: np.ndarray, mean: np.ndarray,
                           xi: np.ndarray | None = None, out: np.ndarray | None = None):
    """The saddle-point disturbance at time t, fed back on ``mean``.

    Returns (d0, dbar) from the augmented gain K_bar [x0; mean]; with a
    population ``xi`` given, (n, lx) or (R, n, lx), the second entry is
    instead the per-follower d^i = K_brev (x^i - mean) + dbar, in ``out``
    when given.  The caller picks the mean: the true follower average, or
    m_hat where that is not measurable.
    """
    lx = gains.state_dim
    aug = matvec(gains.K_bar[t - 1], np.concatenate([x0, mean], axis=-1))
    d0, dbar = aug[..., :lx], aug[..., lx:]
    if xi is None:
        return d0, dbar
    return d0, follower_disturbance(gains, t, xi, mean, dbar, out=out)


def follower_disturbance(gains: StrategyGains, t: int, xi: np.ndarray, mean: np.ndarray,
                         dbar: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d^i = K_brev (x^i - mean) + dbar for each follower x^i of the population ``xi``,
    with ``dbar`` the mean disturbance ``worst_case_disturbance`` gives at ``mean``."""
    dev = np.subtract(xi, mean[..., None, :], out=out)
    out = rmatmul(dev, gains.K_brev[t - 1], out=out)
    return np.add(out, dbar[..., None, :], out=out)


def estimator_step(model: ModelSpec, gains: StrategyGains, t: int, x0: np.ndarray,
                   m_hat: np.ndarray, worst_case_dbar: bool = True) -> np.ndarray:
    """The estimate at t+1 propagated from ``m_hat`` at t.

    Runs the closed-loop mean dynamics
    m_{t+1} = (A + S + B L22) m + (B L21 + E) x0 + dbar, with dbar the
    worst-case value at (x0, m_hat), or zero under the nominal switch.
    """
    closed = model.A[t - 1] + model.S[t - 1] + model.B[t - 1] @ gains.l22(t)
    drive = matvec(model.B[t - 1] @ gains.l21(t) + model.E[t - 1], x0)
    if worst_case_dbar:
        dbar = worst_case_disturbance(gains, t, x0, m_hat)[1]
    else:
        dbar = np.zeros(np.shape(m_hat))
    return matvec(closed, m_hat) + drive + dbar
