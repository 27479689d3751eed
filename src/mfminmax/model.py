"""Problem description for a leader-follower mean-field team.

A network of one leader and n identical followers, coupled through the
follower average ("mean-field") in both dynamics and cost, with an
adversarial disturbance penalized by -gamma^2 ||d||^2.  This module holds
the validated model data and the augmented leader/mean system; the
recursions themselves live in `synthesis`.

Time is 1-indexed (t = 1..T).  Per-time matrix stacks are numpy arrays of
shape (T, ...) indexed [t-1].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import yaml

__all__ = [
    "ModelError",
    "InitSpec",
    "InfoStructure",
    "ModelSpec",
    "AugmentedSystem",
    "ConvexityReport",
    "load_model",
    "load_model_file",
    "build_augmented",
    "validate_convexity",
]

# Asymmetry of a weight matrix relative to its magnitude: silently fixed
# below SYM_WARN, fixed with a warning up to SYM_REJECT, rejected above.
SYM_WARN = 1e-9
SYM_REJECT = 1e-6


class ModelError(ValueError):
    """Raised when a model description is inconsistent or invalid."""


def _floats(value, name: str) -> np.ndarray:
    """``value`` as a float array; what numpy cannot read as numbers is a ModelError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ModelError(f"{name}: expected numbers, got {value!r}") from None


def _number(value, name: str) -> float:
    """``value`` as one float; a list, mapping or non-numeric string is a ModelError."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ModelError(f"{name} must be a number, got {value!r}") from None


def _attenuation(gamma: float) -> float:
    """``gamma`` as a float, unless it is not positive and finite (nan passes ``gamma <= 0``)."""
    if not 0 < gamma < np.inf:
        raise ModelError(f"gamma must be positive and finite, got {gamma!r}")
    return float(gamma)


def _as_matrix(value, rows: int, cols: int, name: str) -> np.ndarray:
    """Coerce a scalar or nested list to a (rows, cols) float array."""
    arr = _floats(value, name)
    if arr.ndim == 0:
        if (rows, cols) != (1, 1):
            raise ModelError(f"{name}: scalar given but expected {rows}x{cols}")
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        if rows == 1 and arr.shape[0] == cols:
            arr = arr.reshape(1, cols)
        elif cols == 1 and arr.shape[0] == rows:
            arr = arr.reshape(rows, 1)
        else:
            raise ModelError(f"{name}: got shape {arr.shape}, expected {rows}x{cols}")
    if arr.shape != (rows, cols):
        raise ModelError(f"{name}: got shape {arr.shape}, expected {rows}x{cols}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name}: non-finite entries")
    return arr


def _per_t_stack(value, T: int, rows: int, cols: int, name: str) -> np.ndarray:
    """Build a (T, rows, cols) stack, broadcasting input constant in time.

    Per-time input uses an explicit ``{per_t: [...]}`` mapping with exactly
    T entries; anything else is treated as a single matrix valid at all t.
    """
    if isinstance(value, dict):
        seq = _check_keys(value, {"per_t"}, name, required=("per_t",))["per_t"]
        if not isinstance(seq, list):
            raise ModelError(f"{name}: per_t must be a list of {T} matrices, got {seq!r}")
        if len(seq) != T:
            raise ModelError(f"{name}: per_t has {len(seq)} entries, horizon is {T}")
        return np.stack([_as_matrix(v, rows, cols, f"{name}[t={t + 1}]") for t, v in enumerate(seq)])
    mat = _as_matrix(value, rows, cols, name)
    return np.broadcast_to(mat, (T, rows, cols)).copy()


def _symmetrize(stack: np.ndarray, name: str) -> np.ndarray:
    """Symmetrize each matrix in a stack, warning/rejecting by asymmetry."""
    out = stack.copy()
    for t in range(stack.shape[0]):
        x = stack[t]
        asym = np.max(np.abs(x - x.T))
        scale = max(np.max(np.abs(x)), 1.0)
        rel = asym / scale
        if rel > SYM_REJECT:
            raise ModelError(f"{name} at t={t + 1}: asymmetry {rel:.3g} exceeds {SYM_REJECT:.0e}")
        if rel > SYM_WARN:
            warnings.warn(f"{name} at t={t + 1}: symmetrized (asymmetry {rel:.3g})", stacklevel=3)
        out[t] = (x + x.T) / 2.0
    return out


def _check_psd(mat: np.ndarray, name: str, tol: float = 1e-10) -> None:
    if np.min(np.linalg.eigvalsh(mat)) < -tol:
        raise ModelError(f"{name}: not positive semi-definite")


@dataclass(frozen=True)
class InitSpec:
    """Initial-state distribution: deterministic, gaussian, or uniform box.

    ``values`` holds either a single vector (leader) or a list of per-agent
    vectors (deterministic follower population).
    """

    kind: str  # "deterministic" | "gaussian" | "uniform"
    dim: int
    values: np.ndarray | None = None     # (dim,) or (n, dim)
    mu: np.ndarray | None = None         # (dim,)
    sigma: np.ndarray | None = None      # (dim, dim)
    low: np.ndarray | None = None        # (dim,)
    high: np.ndarray | None = None       # (dim,)

    def mean(self) -> np.ndarray:
        if self.kind == "deterministic":
            v = np.atleast_2d(self.values)
            return v.mean(axis=0)
        if self.kind == "gaussian":
            return self.mu.copy()
        return (self.low + self.high) / 2.0

    def cov(self) -> np.ndarray:
        """Covariance of a single draw (0 for deterministic input)."""
        if self.kind == "deterministic":
            return np.zeros((self.dim, self.dim))
        if self.kind == "gaussian":
            return self.sigma.copy()
        return np.diag((self.high - self.low) ** 2 / 12.0)

    def sample(self, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
        """Draw one vector (count=None) or a (count, dim) batch."""
        if self.kind == "deterministic":
            v = np.atleast_2d(self.values)
            if count is None:
                return v[0].copy()
            if v.shape[0] == 1:
                return np.broadcast_to(v[0], (count, self.dim)).copy()
            if v.shape[0] != count:
                raise ModelError(f"deterministic list has {v.shape[0]} entries, need {count}")
            return v.copy()
        if self.kind == "gaussian":
            return rng.multivariate_normal(self.mu, self.sigma, size=count)
        shape = (self.dim,) if count is None else (count, self.dim)
        return rng.uniform(self.low, self.high, size=shape)


def _parse_init(node, dim: int, name: str) -> InitSpec:
    node = _check_keys(node, {"value", "values", "gaussian", "uniform"}, name)
    if len(node) != 1:
        raise ModelError(f"{name}: expected one of value/values/gaussian/uniform")
    (key, body), = node.items()
    if key == "value":
        key, body = "values", [body]
    if key == "values":
        vals = np.atleast_2d(_floats(body, name))
        if vals.shape[1] != dim:
            # a flat list of scalars for dim=1
            if dim == 1 and vals.shape[0] == 1:
                vals = vals.T
            else:
                raise ModelError(f"{name}: values have dimension {vals.shape[1]}, expected {dim}")
        return InitSpec(kind="deterministic", dim=dim, values=vals)
    if key == "gaussian":
        body = _check_keys(body, {"mean", "cov"}, f"{name}.gaussian", required=("mean", "cov"))
        mu = np.atleast_1d(_floats(body["mean"], f"{name}.mean"))
        sigma = _as_matrix(body["cov"], dim, dim, f"{name}.cov")
        sigma = (sigma + sigma.T) / 2.0
        _check_psd(sigma, f"{name}.cov")
        if mu.shape != (dim,):
            raise ModelError(f"{name}.mean: expected dimension {dim}")
        return InitSpec(kind="gaussian", dim=dim, mu=mu, sigma=sigma)
    body = _check_keys(body, {"low", "high"}, f"{name}.uniform", required=("low", "high"))
    low = np.broadcast_to(_floats(body["low"], f"{name}.low"), (dim,)).copy()
    high = np.broadcast_to(_floats(body["high"], f"{name}.high"), (dim,)).copy()
    if np.any(high < low):
        raise ModelError(f"{name}: uniform high < low")
    return InitSpec(kind="uniform", dim=dim, low=low, high=high)


@dataclass(frozen=True)
class InfoStructure:
    """What the agents see: the mean-field at all, some, or no times.

    ``observation_times`` is the set of t at which the true follower
    average is available; everything else runs on the propagated estimate.
    Full-time observation is exactly mean-field sharing; the empty set is
    no-sharing.
    """

    observation_times: frozenset[int] = frozenset()

    @staticmethod
    def mfs(horizon: int) -> "InfoStructure":
        return InfoStructure(frozenset(range(1, horizon + 1)))

    @staticmethod
    def imfs(times: Sequence[int]) -> "InfoStructure":
        return InfoStructure(frozenset(int(t) for t in times))

    @staticmethod
    def no_sharing() -> "InfoStructure":
        return InfoStructure(frozenset())

    def observed(self, t: int) -> bool:
        return t in self.observation_times


@dataclass(frozen=True)
class ModelSpec:
    """Validated system + cost description.

    All matrix fields are (T, rows, cols) stacks; index [t-1] for time t.
    Weight matrices are symmetric after load.
    """

    horizon: int
    n_followers: int
    state_dim: int
    action_dim: int
    gamma: float
    # leader dynamics
    A0: np.ndarray
    B0: np.ndarray
    S0: np.ndarray
    # follower dynamics
    A: np.ndarray
    B: np.ndarray
    S: np.ndarray
    E: np.ndarray
    # cost weights
    Q: np.ndarray
    Q0: np.ndarray
    F: np.ndarray
    P: np.ndarray
    R: np.ndarray
    R0: np.ndarray
    H: np.ndarray
    # distributions
    leader_init: InitSpec = None
    follower_init: InitSpec = None
    noise_leader: np.ndarray = None    # (T, lx, lx) covariance of w0_t
    noise_follower: np.ndarray = None  # (T, lx, lx) covariance of wi_t
    # run defaults for the CLI: the validated ``experiment`` section
    experiment: dict = field(default_factory=dict)

    def with_gamma(self, gamma: float) -> "ModelSpec":
        return replace(self, gamma=_attenuation(gamma))


@dataclass(frozen=True)
class AugmentedSystem:
    """The 2*lx joint system on [leader state; mean-field]."""

    A_bar: np.ndarray  # (T, 2lx, 2lx)
    B_bar: np.ndarray  # (T, 2lx, 2lu)
    Q_bar: np.ndarray  # (T, 2lx, 2lx)
    R_bar: np.ndarray  # (T, 2lu, 2lu)


@dataclass(frozen=True)
class ConvexityReport:
    ok: bool
    violations: list = field(default_factory=list)  # (t, matrix name, min eigenvalue)


EXPERIMENT_KEYS = {"seed", "runs", "gamma_list", "disturbance"}
DISTURBANCE_KEYS = {"kind", "amplitude", "applied_to"}


def _check_keys(node, allowed: set, name: str, required: tuple = ()) -> dict:
    """``node`` as a mapping (None reads as empty): keys from ``allowed``, all of ``required``."""
    node = {} if node is None else node
    if not isinstance(node, dict):
        raise ModelError(f"{name} must be a mapping")
    unknown = set(node) - allowed
    if unknown:
        raise ModelError(f"{name}: unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in node]
    if missing:
        raise ModelError(f"{name}: missing required key '{missing[0]}'")
    return node


def _integer(raw: dict, key: str, default: int | None = None, name: str | None = None) -> int:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{name or key} must be an integer, got {value!r}")
    return value


def _parse_experiment(node) -> dict:
    """The optional run-defaults section; a misspelled key or malformed value is an error."""
    node = _check_keys(node, EXPERIMENT_KEYS, "experiment")
    for key in ("seed", "runs"):
        if key in node:
            _integer(node, key, name=f"experiment.{key}")
    gamma_list = node.get("gamma_list", [])
    if not isinstance(gamma_list, list):
        raise ModelError(f"experiment.gamma_list must be a list of numbers, got {gamma_list!r}")
    for gamma in gamma_list:
        _number(gamma, "experiment.gamma_list entry")
    disturbance = _check_keys(node.get("disturbance"), DISTURBANCE_KEYS, "experiment.disturbance")
    if "amplitude" in disturbance:
        _number(disturbance["amplitude"], "experiment.disturbance.amplitude")
    return node


def load_model(text: str) -> ModelSpec:
    """Parse and validate a YAML model description."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ModelError(f"config does not parse: {exc}") from exc
    required = ("horizon", "n_followers", "gamma", "leader", "follower",
                "cost", "leader_init", "follower_init")
    raw = _check_keys(raw, {*required, "state_dim", "action_dim", "noise", "experiment"},
                      "config", required)

    T = _integer(raw, "horizon")
    n = _integer(raw, "n_followers")
    lx = _integer(raw, "state_dim", 1)
    lu = _integer(raw, "action_dim", 1)
    gamma = _attenuation(_number(raw["gamma"], "gamma"))
    if T < 1:
        raise ModelError("horizon must be >= 1")
    if n < 1:
        raise ModelError("n_followers must be >= 1")
    if lx < 1 or lu < 1:
        raise ModelError("state_dim and action_dim must be >= 1")

    led = _check_keys(raw["leader"], {"A0", "B0", "S0"}, "leader", ("A0", "B0", "S0"))
    fol = _check_keys(raw["follower"], {"A", "B", "S", "E"}, "follower", ("A", "B", "S", "E"))
    weight_names = ("Q", "Q0", "F", "P", "R", "R0", "H")
    cost = _check_keys(raw["cost"], set(weight_names), "cost", weight_names)
    A0 = _per_t_stack(led["A0"], T, lx, lx, "leader.A0")
    B0 = _per_t_stack(led["B0"], T, lx, lu, "leader.B0")
    S0 = _per_t_stack(led["S0"], T, lx, lx, "leader.S0")
    A = _per_t_stack(fol["A"], T, lx, lx, "follower.A")
    B = _per_t_stack(fol["B"], T, lx, lu, "follower.B")
    S = _per_t_stack(fol["S"], T, lx, lx, "follower.S")
    E = _per_t_stack(fol["E"], T, lx, lx, "follower.E")

    weights = {}
    for name, rows in zip(weight_names, (lx, lx, lx, lx, lu, lu, lu)):
        weights[name] = _symmetrize(_per_t_stack(cost[name], T, rows, rows, f"cost.{name}"), f"cost.{name}")

    noise = _check_keys(raw.get("noise"), {"leader", "follower"}, "noise")
    none_cov = np.zeros((lx, lx))
    nl = _symmetrize(_per_t_stack(noise.get("leader", none_cov), T, lx, lx, "noise.leader"), "noise.leader")
    nf = _symmetrize(_per_t_stack(noise.get("follower", none_cov), T, lx, lx, "noise.follower"), "noise.follower")
    for t in range(T):
        _check_psd(nl[t], f"noise.leader[t={t + 1}]")
        _check_psd(nf[t], f"noise.follower[t={t + 1}]")

    leader_init = _parse_init(raw["leader_init"], lx, "leader_init")
    follower_init = _parse_init(raw["follower_init"], lx, "follower_init")
    if follower_init.kind == "deterministic" and np.atleast_2d(follower_init.values).shape[0] not in (1, n):
        raise ModelError("follower_init.values must list 1 or n_followers states")

    model = ModelSpec(
        horizon=T, n_followers=n, state_dim=lx, action_dim=lu, gamma=gamma,
        A0=A0, B0=B0, S0=S0, A=A, B=B, S=S, E=E,
        Q=weights["Q"], Q0=weights["Q0"], F=weights["F"], P=weights["P"],
        R=weights["R"], R0=weights["R0"], H=weights["H"],
        leader_init=leader_init, follower_init=follower_init,
        noise_leader=nl, noise_follower=nf,
        experiment=_parse_experiment(raw.get("experiment")),
    )

    report = validate_convexity(model)
    bad_r = [v for v in report.violations if v[1] in ("R", "R_bar")]
    if bad_r:
        t, name, ev = bad_r[0]
        raise ModelError(f"{name} at t={t} is not positive definite (min eig {ev:.3g})")
    return model


def load_model_file(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


def build_augmented(model: ModelSpec) -> AugmentedSystem:
    """Assemble the block system on [leader state; mean-field].

    Pure rearrangement of the model fields:
      A_bar = [[A0, S0], [E, A+S]],      B_bar = blockdiag(B0, B),
      Q_bar = [[Q0+F, -F], [-F, Q+P+F]], R_bar = blockdiag(R0, H+R).
    """
    T, lx, lu = model.horizon, model.state_dim, model.action_dim
    A_bar = np.zeros((T, 2 * lx, 2 * lx))
    B_bar = np.zeros((T, 2 * lx, 2 * lu))
    Q_bar = np.zeros((T, 2 * lx, 2 * lx))
    R_bar = np.zeros((T, 2 * lu, 2 * lu))
    A_bar[:, :lx, :lx] = model.A0
    A_bar[:, :lx, lx:] = model.S0
    A_bar[:, lx:, :lx] = model.E
    A_bar[:, lx:, lx:] = model.A + model.S
    B_bar[:, :lx, :lu] = model.B0
    B_bar[:, lx:, lu:] = model.B
    Q_bar[:, :lx, :lx] = model.Q0 + model.F
    Q_bar[:, :lx, lx:] = -model.F
    Q_bar[:, lx:, :lx] = -model.F
    Q_bar[:, lx:, lx:] = model.Q + model.P + model.F
    R_bar[:, :lu, :lu] = model.R0
    R_bar[:, lu:, lu:] = model.H + model.R
    return AugmentedSystem(A_bar=A_bar, B_bar=B_bar, Q_bar=Q_bar, R_bar=R_bar)


def validate_convexity(model: ModelSpec) -> ConvexityReport:
    """Check Q, Q_bar >= 0 and R, R_bar > 0 at every t (smallest eigenvalue).

    One ``eigvalsh`` call per stack; violations are listed by t, then in
    the order Q, Q_bar, R, R_bar.
    """
    aug = build_augmented(model)
    checks = (("Q", model.Q, -1e-10), ("Q_bar", aug.Q_bar, -1e-10),
              ("R", model.R, 1e-12), ("R_bar", aug.R_bar, 1e-12))
    smallest = [np.linalg.eigvalsh(stack).min(axis=-1) for _, stack, _ in checks]
    violations = [(t + 1, name, float(ev[t]))
                  for t in range(model.horizon)
                  for (name, _, floor), ev in zip(checks, smallest) if ev[t] < floor]
    return ConvexityReport(ok=not violations, violations=violations)
