"""Shared fixtures and independent reference implementations.

The reference code here is deliberately written on a different path from
the package: plain-float scalar/2x2 recursions, the classical completion
form of the no-disturbance recursion, and direct model construction.
"""

import math
import shutil
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from mfminmax.cli import bundled_config_path
from mfminmax.model import STACK_DIMS, InitSpec, ModelSpec, load_model_file
from mfminmax.synthesis import solve_riccati

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    """Hypothesis caches the constants of the tested modules on disk while
    pytest collects; keep that cache in a temporary directory removed when
    pytest finishes, not in .hypothesis/ of the working directory."""
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


# Feasible attenuation levels for the bundled examples (the critical
# values are ~13.303 and ~2.0273).
EX1_GAMMA = 20.0
EX2_GAMMA = 4.0


@pytest.fixture(scope="session")
def example1():
    return load_model_file(bundled_config_path(1))


@pytest.fixture(scope="session")
def example2():
    return load_model_file(bundled_config_path(2))


def make_model(*, T, n, gamma, A0, B0, S0, A, B, S, E, Q, Q0, F, P, R, R0, H,
               leader_value=0.0, follower_values=None, follower_uniform=None,
               noise_leader=0.0, noise_follower=0.0, lx=1, lu=1) -> ModelSpec:
    """Directly build a scalar (or given-dimension) time-invariant model."""
    def stack(v, rows, cols):
        arr = np.asarray(v, dtype=float)
        if arr.size == 1 and rows == cols and rows > 1:
            arr = float(arr) * np.eye(rows)  # scalar shorthand for square blocks
        return np.broadcast_to(arr.reshape(rows, cols), (T, rows, cols)).copy()

    if follower_values is not None:
        finit = InitSpec(kind="deterministic",
                         values=np.atleast_2d(np.asarray(follower_values, dtype=float)))
    elif follower_uniform is not None:
        lo, hi = follower_uniform
        finit = InitSpec(kind="uniform", low=np.full(lx, float(lo)), high=np.full(lx, float(hi)))
    else:
        finit = InitSpec(kind="deterministic", values=np.zeros((1, lx)))
    # one state of lx components; a scalar fills every component
    linit = InitSpec(kind="deterministic",
                     values=np.broadcast_to(np.asarray(leader_value, dtype=float), (1, lx)).copy())
    return ModelSpec(
        n_followers=n, gamma=float(gamma),
        A0=stack(A0, lx, lx), B0=stack(B0, lx, lu), S0=stack(S0, lx, lx),
        A=stack(A, lx, lx), B=stack(B, lx, lu), S=stack(S, lx, lx), E=stack(E, lx, lx),
        Q=stack(Q, lx, lx), Q0=stack(Q0, lx, lx), F=stack(F, lx, lx), P=stack(P, lx, lx),
        R=stack(R, lu, lu), R0=stack(R0, lu, lu), H=stack(H, lu, lu),
        leader_init=linit, follower_init=finit,
        noise_leader=stack(noise_leader, lx, lx), noise_follower=stack(noise_follower, lx, lx),
    )


def scale_cost(model: ModelSpec, c: float) -> ModelSpec:
    """``model`` with the seven cost weights times c and gamma times sqrt(c).

    Every term of the cost, the disturbance penalty included, is then c
    times what it was, so the saddle point is the same.
    """
    weights = {name: c * getattr(model, name) for name in ("Q", "Q0", "F", "P", "R", "R0", "H")}
    return replace(model, gamma=math.sqrt(c) * model.gamma, **weights)


def rotate(model: ModelSpec, U: np.ndarray) -> ModelSpec:
    """``model`` in the coordinates x -> U x, for an orthogonal U (lx x lx).

    Every state-indexed side of a stack is multiplied by U, so the dynamics,
    weights and noise become U A U', U B, U Q U', U W U'; a deterministic or
    gaussian start moves with x.  A uniform box does not rotate into a box.
    """
    stacks = {}
    for name, (rows, cols) in STACK_DIMS.items():
        stack = getattr(model, name)
        stack = U @ stack if rows == "x" else stack
        stacks[name] = stack @ U.T if cols == "x" else stack

    def moved(init: InitSpec) -> InitSpec:
        if init.kind == "deterministic":
            return replace(init, values=init.values @ U.T)
        if init.kind == "gaussian":
            return replace(init, mu=U @ init.mu, sigma=U @ init.sigma @ U.T)
        raise ValueError("a uniform box does not rotate into a box")

    return replace(model, leader_init=moved(model.leader_init),
                   follower_init=moved(model.follower_init), **stacks)


def vector_model(T=6, n=4, gamma=3.5):
    """A 2-state, 2-action model with full non-symmetric blocks, noise and random initials.

    Feasible at the default gamma (its critical gamma is about 2.356).
    """
    return make_model(
        T=T, n=n, gamma=gamma, lx=2, lu=2,
        A0=[[0.95, 0.2], [-0.1, 0.9]], B0=[[0.5, 0.1], [0.0, 0.4]],
        S0=[[0.05, -0.02], [0.03, 0.04]],
        A=[[0.9, 0.15], [-0.2, 1.05]], B=[[0.6, -0.1], [0.2, 0.5]],
        S=[[0.04, 0.01], [-0.03, 0.06]], E=[[0.02, -0.01], [0.01, 0.03]],
        Q=[[1.0, 0.3], [0.3, 0.5]], Q0=[[0.8, -0.2], [-0.2, 0.6]], F=[[0.5, 0.1], [0.1, 0.4]],
        P=[[0.2, 0.05], [0.05, 0.1]], R=[[1.0, 0.2], [0.2, 0.8]],
        R0=[[1.2, -0.1], [-0.1, 0.9]], H=[[0.3, 0.0], [0.0, 0.2]],
        leader_value=[[2.0, -1.0]], follower_uniform=(-3.0, 3.0),
        noise_leader=[[0.3, 0.1], [0.1, 0.2]], noise_follower=[[0.5, -0.15], [-0.15, 0.25]],
    )


def mixed_dims_model(gamma=5.0):
    """Two states, one action, so the x and u series have different label counts.

    Feasible at the default gamma (its critical gamma is about 2.712).
    """
    return make_model(
        T=5, n=3, gamma=gamma, lx=2, lu=1,
        A0=[[1.0, 0.1], [0.0, 0.95]], B0=[[0.3], [0.6]], S0=[[0.05, 0.0], [0.02, 0.04]],
        A=[[0.9, 0.2], [-0.1, 1.0]], B=[[0.5], [0.3]], S=[[0.03, 0.01], [0.0, 0.05]],
        E=[[0.02, 0.0], [0.01, 0.02]], Q=[[1.0, 0.2], [0.2, 0.6]], Q0=[[0.5, 0.0], [0.0, 0.5]],
        F=[[0.4, 0.1], [0.1, 0.3]], P=[[0.1, 0.0], [0.0, 0.1]], R=0.8, R0=1.1, H=0.2,
        leader_value=[[1.5, -0.5]], follower_uniform=(-2.0, 2.0),
        noise_leader=[[0.2, 0.05], [0.05, 0.1]], noise_follower=[[0.3, 0.1], [0.1, 0.2]],
    )


def zero_weight_model(T=5, n=3, gamma=1.0):
    return make_model(T=T, n=n, gamma=gamma, A0=0.9, B0=0.2, S0=0.1, A=0.8, B=0.5,
                      S=0.05, E=0.02, Q=0.0, Q0=0.0, F=0.0, P=0.0, R=1.0, R0=1.0, H=0.0)


def random_scalar_model(rng: np.random.Generator, T_max=10):
    """A random scalar instance; gamma is not yet chosen for feasibility."""
    return make_model(
        T=int(rng.integers(2, T_max + 1)), n=2, gamma=1.0,
        A0=rng.uniform(0.5, 1.1), B0=rng.uniform(0.0, 0.6), S0=rng.uniform(-0.1, 0.1),
        A=rng.uniform(0.5, 1.1), B=rng.uniform(0.2, 1.0), S=rng.uniform(-0.1, 0.15),
        E=rng.uniform(-0.05, 0.05),
        Q=rng.uniform(0.0, 2.0), Q0=rng.uniform(0.0, 1.0), F=rng.uniform(0.0, 2.0),
        P=rng.uniform(0.0, 0.5), R=rng.uniform(0.3, 3.0), R0=rng.uniform(0.3, 3.0),
        H=rng.uniform(0.0, 1.0),
        leader_value=rng.uniform(-3, 3),
        follower_values=rng.uniform(-3, 3, size=(2, 1)),
    )


def random_feasible_scalar_model(rng: np.random.Generator, T_max=10):
    """Random scalar model together with a gamma at which it is feasible."""
    while True:
        mdl = random_scalar_model(rng, T_max=T_max)
        lqr = solve_riccati(mdl.with_gamma(1e9))
        bound = max(float(np.linalg.eigvalsh(lqr.M_brev).max()),
                    float(np.linalg.eigvalsh(lqr.M_bar).max()))
        gamma = float(np.sqrt(max(bound, 1e-6)) * rng.uniform(1.3, 3.0))
        candidate = mdl.with_gamma(gamma)
        if solve_riccati(candidate).feasible:
            return candidate


# ---------------------------------------------------------------------------
# Reference implementations (independent of the package internals).

def reference_scalar_recursion(a, b, q, r, gamma, T, n=None, noise_var=0.0):
    """Plain-float backward recursion for a 1x1 system.

    Returns (M[0..T] indexed by t-1 with M[T] the terminal zero, Delta
    list, c list) using only Python arithmetic.
    """
    M = [0.0] * (T + 1)
    D = [0.0] * T
    c = [0.0] * (T + 1)
    for t in range(T, 0, -1):
        Mn = M[t]
        d = 1.0 + (b * b / r) * Mn - Mn / (gamma * gamma)
        M[t - 1] = q + a * (Mn / d) * a
        D[t - 1] = d
        scale = (1.0 - 1.0 / n) if n else 0.0
        c[t - 1] = c[t] + scale * noise_var * Mn
    return M, D, c


def _m2_mul(X, Y):
    return [[X[0][0] * Y[0][0] + X[0][1] * Y[1][0], X[0][0] * Y[0][1] + X[0][1] * Y[1][1]],
            [X[1][0] * Y[0][0] + X[1][1] * Y[1][0], X[1][0] * Y[0][1] + X[1][1] * Y[1][1]]]


def _m2_add(X, Y):
    return [[X[0][0] + Y[0][0], X[0][1] + Y[0][1]], [X[1][0] + Y[1][0], X[1][1] + Y[1][1]]]


def _m2_scale(X, s):
    return [[X[0][0] * s, X[0][1] * s], [X[1][0] * s, X[1][1] * s]]


def _m2_T(X):
    return [[X[0][0], X[1][0]], [X[0][1], X[1][1]]]


def _m2_inv(X):
    det = X[0][0] * X[1][1] - X[0][1] * X[1][0]
    return [[X[1][1] / det, -X[0][1] / det], [-X[1][0] / det, X[0][0] / det]]


def reference_2x2_recursion(Abar, Bdiag, Qbar, Rdiag, gamma, T, n=None, noise_var=0.0):
    """Plain-float backward recursion for the [leader; mean] 2x2 system.

    ``Bdiag``/``Rdiag`` are the (b0, b) and (r0, r) diagonals.  Returns
    (M list, Delta list, c list) like the scalar reference; the mean-noise
    block is noise_var / n.
    """
    BRB = [[Bdiag[0] * Bdiag[0] / Rdiag[0], 0.0], [0.0, Bdiag[1] * Bdiag[1] / Rdiag[1]]]
    eye = [[1.0, 0.0], [0.0, 1.0]]
    M = [[[0.0, 0.0], [0.0, 0.0]] for _ in range(T + 1)]
    D = [None] * T
    c = [0.0] * (T + 1)
    igg = 1.0 / (gamma * gamma)
    for t in range(T, 0, -1):
        Mn = M[t]
        Dt = _m2_add(eye, _m2_mul(_m2_add(BRB, _m2_scale(eye, -igg)), Mn))
        MDinvA = _m2_mul(Mn, _m2_mul(_m2_inv(Dt), Abar))
        M[t - 1] = _m2_add(Qbar, _m2_mul(_m2_T(Abar), MDinvA))
        D[t - 1] = Dt
        c[t - 1] = c[t] + (noise_var / n if n else 0.0) * Mn[1][1]
    return M, D, c


def reference_walk(A, B, Q, R, W, gamma, feas_tol=1e-10, sym_tol=1e-10):
    """One gamma's soft-constrained recursion, every quantity taken inside the step loop.

    Same arithmetic as the package's walk, one gamma at a time: the flags,
    noise constants and margins are made step by step, so a batched walk
    must equal it bit for bit.  Returns (M, Delta, c, margins, flagged).
    """
    T, dim = A.shape[0], A.shape[1]
    M = np.zeros((T + 1, dim, dim))
    c = np.zeros(T + 1)
    Delta = np.zeros((T, dim, dim))
    bad = np.zeros(T, dtype=bool)
    margins = np.zeros(T)
    eye = np.eye(dim)
    g2 = gamma * gamma
    for t in range(T, 0, -1):
        Mn = M[t]
        D = eye + (B[t - 1] @ np.linalg.solve(R[t - 1], B[t - 1].T) - eye / g2) @ Mn
        try:
            MD = Mn @ np.linalg.inv(D)
        except np.linalg.LinAlgError:
            bad[t - 1] = True
            MD = Mn @ np.linalg.pinv(D)
        Mt = Q[t - 1] + A[t - 1].T @ MD @ A[t - 1]
        asym = np.max(np.abs(Mt - Mt.T))
        Mt = (Mt + Mt.T) / 2.0
        if asym > sym_tol * max(1.0, np.max(np.abs(Mt))):
            bad[t - 1] = True
        M[t - 1] = Mt
        Delta[t - 1] = D
        c[t - 1] = c[t] + float(np.trace(Mn @ W[t - 1]))
        margins[t - 1] = np.linalg.eigvalsh(g2 * eye - Mn).min()
    return M, Delta, c, margins, bad | (margins <= feas_tol)


def reference_lqr(A, B, Q, R, T):
    """Classical no-disturbance recursion in completion form.

    M = Q + A'MA - A'MB (R + B'MB)^{-1} B'MA, gains L = -(R+B'MB)^{-1}B'MA;
    a different algebraic route from the package's Delta-form recursion.
    """
    dim = A.shape[1]
    M = np.zeros((dim, dim))
    Ms = [None] * (T + 1)
    Ls = [None] * T
    Ms[T] = M
    for t in range(T, 0, -1):
        G = np.linalg.solve(R[t - 1] + B[t - 1].T @ M @ B[t - 1], B[t - 1].T @ M @ A[t - 1])
        M = Q[t - 1] + A[t - 1].T @ M @ A[t - 1] - A[t - 1].T @ M @ B[t - 1] @ G
        M = (M + M.T) / 2
        Ms[t - 1] = M
        Ls[t - 1] = -G
    return Ms, Ls
