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

import math
import numbers
import warnings
from copy import copy
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import yaml

__all__ = [
    "ModelError",
    "InitSpec",
    "InfoStructure",
    "DisturbancePolicy",
    "Experiment",
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


def _has_bool(value) -> bool:
    """Whether ``value`` is a YAML boolean or a list holding one at any depth."""
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_has_bool, value)))


def _floats(value, name: str) -> np.ndarray:
    """``value`` as a finite float array; anything else is a ModelError.

    Every array the loader reads passes through here.  YAML's null reads as nan, so it
    is rejected as a non-finite entry; a boolean (numpy reads 1.0 or 0.0) as not a number.
    """
    try:
        if _has_bool(value):
            raise TypeError
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ModelError(f"{name}: expected numbers, got {value!r}") from None
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name}: non-finite entries")
    return arr


def _number(value, name: str) -> float:
    """``value`` as one float; a boolean, list, mapping or non-numeric string is a ModelError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ModelError(f"{name} must be a number, got {value!r}") from None


def _count(name: str, value, least: int) -> int:
    """``value`` as a Python int; anything but a Python or numpy integer (a bool
    included) >= ``least`` is a ModelError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ModelError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _flag(name: str, value) -> bool:
    """``value`` as a Python bool; anything but a Python or numpy bool is a ModelError."""
    if not isinstance(value, (bool, np.bool_)):
        raise ModelError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number (numpy scalars included) and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _attenuation(gamma: float, name: str = "gamma") -> float:
    """``gamma`` as a float, unless it is not a positive finite real (nan passes ``gamma <= 0``)
    or its square, which the recursions and gains take, overflows a float."""
    if not _is_real(gamma):
        raise ModelError(f"{name} must be a number, got {gamma!r}")
    if not 0 < gamma < np.inf:
        raise ModelError(f"{name} must be positive and finite, got {gamma!r}")
    if not math.isfinite(float(gamma) * float(gamma)):
        raise ModelError(f"{name}: its square overflows a float, got {gamma!r}")
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
        mats = [_as_matrix(v, rows, cols, f"{name}[t={t + 1}]") for t, v in enumerate(seq)]
        return np.array(mats).reshape(T, rows, cols)
    mat = _as_matrix(value, rows, cols, name)
    return np.broadcast_to(mat, (T, rows, cols)).copy()


def _symmetric(x: np.ndarray, name: str) -> np.ndarray:
    """(x + x') / 2 of a matrix or of each in a (T, l, l) stack, or ``x`` itself if it is
    symmetric.  Each matrix's asymmetry relative to its magnitude is graded once: past
    SYM_REJECT it is a ModelError, past SYM_WARN a warning, each naming the stack's first
    such t ("cost.Q at t=2", or "cost.Q" for one matrix)."""
    xt = np.swapaxes(x, -1, -2)
    rel = np.ravel(np.abs(x - xt).max(axis=(-2, -1))
                   / np.maximum(np.abs(x).max(axis=(-2, -1)), 1.0))
    if not rel.any():
        return x
    rejected = rel > SYM_REJECT
    t = np.argmax(rejected if rejected.any() else rel > SYM_WARN)
    where = name if x.ndim == 2 else f"{name} at t={t + 1}"
    if rejected.any():
        raise ModelError(f"{where}: asymmetry {rel[t]:.3g} exceeds {SYM_REJECT:.0e}")
    if rel[t] > SYM_WARN:  # stacklevel: for a stack, the line that makes the ModelSpec
        warnings.warn(f"{where}: symmetrized (asymmetry {rel[t]:.3g})", stacklevel=4)
    return (x + xt) / 2.0


def _check_finite(arr: np.ndarray, name: str) -> None:
    """Reject an array of a non-real dtype or with a nan or inf entry."""
    if arr.dtype.kind not in "iuf":
        raise ModelError(f"{name}: expected real numbers, got dtype {arr.dtype}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name}: non-finite entries")


def _check_psd(mat: np.ndarray, name: str) -> None:
    """Reject a matrix, or a (T, l, l) stack naming its first such t, with an eigenvalue < -1e-10."""
    bad = np.flatnonzero(np.linalg.eigvalsh(mat).min(axis=-1) < -1e-10)
    if bad.size:
        raise ModelError(f"{name if mat.ndim == 2 else f'{name}[t={bad[0] + 1}]'}: not positive semi-definite")


# The (rows, cols) of each ModelSpec stack, in the state and action dimensions x and u.
STACK_DIMS = {"A0": "xx", "B0": "xu", "S0": "xx", "A": "xx", "B": "xu", "S": "xx", "E": "xx",
              "Q": "xx", "Q0": "xx", "F": "xx", "P": "xx", "R": "uu", "R0": "uu", "H": "uu",
              "noise_leader": "xx", "noise_follower": "xx"}


# The cost weights, each a symmetric (T, l, l) stack.
WEIGHTS = ("Q", "Q0", "F", "P", "R", "R0", "H")


# The stack each key of a config section fills.  Every key is required but the noise ones,
# which default to zero.  A ModelSpec stores the symmetric part of each cost and noise stack,
# named "cost.Q" or "noise.leader" in what ``_symmetric`` reports.
CONFIG_STACKS = {"leader": {"A0": "A0", "B0": "B0", "S0": "S0"},
                 "follower": {"A": "A", "B": "B", "S": "S", "E": "E"},
                 "cost": {name: name for name in WEIGHTS},
                 "noise": {"leader": "noise_leader", "follower": "noise_follower"}}


def _check_stacks(model) -> None:
    """Reject a state_dim lx, action_dim lu or horizon T below 1, read from the leader's A0 and
    B0, then a stack that is not a finite real array of shape (T, rows, cols) in their T, lx
    and lu, naming the first such field in ``STACK_DIMS`` order."""
    for name in ("A0", "B0"):
        if np.ndim(getattr(model, name)) != 3:
            raise ModelError(f"{name}: expected a (T, rows, cols) stack, "
                             f"got shape {np.shape(getattr(model, name))}")
    T, lx = np.shape(model.A0)[:2]
    size = {"x": _count("state_dim", lx, 1), "u": _count("action_dim", np.shape(model.B0)[2], 1)}
    _count("horizon", T, 1)
    for name, (rows, cols) in STACK_DIMS.items():
        stack, shape = getattr(model, name), (T, size[rows], size[cols])
        if not isinstance(stack, np.ndarray) or stack.shape != shape:
            got = f"shape {stack.shape}" if isinstance(stack, np.ndarray) else type(stack).__name__
            raise ModelError(f"{name}: expected an array of shape {shape}, got {got}")
        _check_finite(stack, name)


@dataclass(frozen=True)
class InitSpec:
    """Initial-state distribution: deterministic, gaussian, or uniform box.

    ``values`` lists the states of a deterministic law, one per row: one
    for the leader, 1 or n for the followers.  The state dimension is read
    from the kind's array.
    """

    kind: str  # "deterministic" | "gaussian" | "uniform"
    values: np.ndarray | None = None     # (count, dim)
    mu: np.ndarray | None = None         # (dim,)
    sigma: np.ndarray | None = None      # (dim, dim)
    low: np.ndarray | None = None        # (dim,)
    high: np.ndarray | None = None       # (dim,)

    @property
    def dim(self) -> int:
        return getattr(self, next(iter(INIT_ARRAYS[self.kind]))).shape[-1]

    def mean(self) -> np.ndarray:
        if self.kind == "deterministic":
            return self.values.mean(axis=0)
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

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw a (count, dim) batch; a deterministic list of one state repeats it count times."""
        if self.kind == "deterministic":
            return np.broadcast_to(self.values, (count, self.dim)).copy()
        if self.kind == "gaussian":
            return rng.multivariate_normal(self.mu, self.sigma, size=count)
        return rng.uniform(self.low, self.high, size=(count, self.dim))


# The arrays each kind of InitSpec reads, to their config keys; the first gives its dimension.
INIT_ARRAYS = {"deterministic": {"values": "values"}, "gaussian": {"mu": "mean", "sigma": "cov"},
               "uniform": {"low": "low", "high": "high"}}


def _check_init(init, name: str, lx: int, counts: tuple) -> InitSpec:
    """``init``, unless it is not an InitSpec of a known kind whose arrays are finite, real
    and in lx components: a gaussian with a PSD covariance, symmetrized by ``_symmetric``,
    a uniform box with low <= high and a finite width, or a deterministic list whose length
    is one of ``counts``.  A gaussian whose covariance changed comes back as a copy holding
    the symmetrized one.  Each message names ``name`` and an array by its config key."""
    if (not isinstance(init, InitSpec) or not isinstance(init.kind, str)
            or init.kind not in INIT_ARRAYS):
        raise ModelError(f"{name} must be an InitSpec of kind deterministic, gaussian or uniform, "
                         f"got {init!r}")
    for key, config_key in INIT_ARRAYS[init.kind].items():
        arr, where = getattr(init, key), f"{name}.{config_key}"
        if not isinstance(arr, np.ndarray):
            raise ModelError(f"{where}: expected an array, got {type(arr).__name__}")
        _check_finite(arr, where)
    if init.kind == "deterministic":
        if init.values.ndim != 2:
            raise ModelError(f"{name}.values: expected shape (count, {lx}), "
                             f"got shape {init.values.shape}")
        if init.values.shape[1] != lx:
            raise ModelError(f"{name}: values have dimension {init.values.shape[1]}, expected {lx}")
        if len(init.values) not in counts:
            raise ModelError(f"{name} must give one state" if counts == (1,)
                             else f"{name}.values must list 1 or n_followers states")
    elif init.kind == "gaussian":
        if init.mu.shape != (lx,):
            raise ModelError(f"{name}.mean: expected dimension {lx}")
        if init.sigma.shape != (lx, lx):
            raise ModelError(f"{name}.cov: expected shape ({lx}, {lx}), "
                             f"got shape {init.sigma.shape}")
        sigma = _symmetric(init.sigma, f"{name}.cov")
        _check_psd(sigma, f"{name}.cov")
        if sigma is not init.sigma:
            init = replace(init, sigma=sigma)
    else:
        for key in ("low", "high"):
            shape = getattr(init, key).shape
            if shape != (lx,):
                raise ModelError(f"{name}.{key}: expected a scalar or shape ({lx},), "
                                 f"got shape {shape}")
        if np.any(init.high < init.low):
            raise ModelError(f"{name}: uniform high < low")
        with np.errstate(over="ignore"):
            width = init.high - init.low
        if not np.all(np.isfinite(width)):
            raise ModelError(f"{name}.uniform: the width high - low overflows a float")
    return init


def _parse_init(node, lx: int, name: str) -> InitSpec:
    """The InitSpec an initializer mapping names, a flat list or scalar bound reshaped for lx
    components; ``_check_init`` checks the law where the model is made."""
    node = _check_keys(node, {"value", "values", "gaussian", "uniform"}, name)
    if len(node) != 1:
        raise ModelError(f"{name}: expected one of value/values/gaussian/uniform")
    (key, body), = node.items()
    if key == "value":
        key, body = "values", [body]
    if key == "values":
        vals = np.atleast_2d(_floats(body, f"{name}.values"))
        if vals.ndim != 2 or vals.size == 0:
            raise ModelError(f"{name}: expected one state or a list of states, got {body!r}")
        if lx == 1 and vals.shape[0] == 1:
            vals = vals.T  # a flat list of scalars
        return InitSpec(kind="deterministic", values=vals)
    if key == "gaussian":
        body = _check_keys(body, {"mean", "cov"}, f"{name}.gaussian", required=("mean", "cov"))
        mu = np.atleast_1d(_floats(body["mean"], f"{name}.mean"))
        sigma = _as_matrix(body["cov"], lx, lx, f"{name}.cov")
        return InitSpec(kind="gaussian", mu=mu, sigma=sigma)
    body = _check_keys(body, {"low", "high"}, f"{name}.uniform", required=("low", "high"))
    low, high = (_floats(body[bound], f"{name}.{bound}") for bound in ("low", "high"))
    return InitSpec(kind="uniform", low=np.full(lx, low) if low.ndim == 0 else low,
                    high=np.full(lx, high) if high.ndim == 0 else high)


@dataclass(frozen=True)
class InfoStructure:
    """What the agents see: the mean-field at all, some, or no times.

    ``observation_times`` is the set of t at which the true follower
    average is available, or None for every t; everything else runs on
    the propagated estimate.  ``mfs()``, observation at every t, is
    mean-field sharing; ``InfoStructure()``, the empty set, is no-sharing.
    Making one checks each time as ``imfs`` does; a failure is a ModelError, which is a ValueError.
    """

    observation_times: frozenset[int] | None = frozenset()

    def __post_init__(self):
        if self.observation_times is not None:
            if not isinstance(self.observation_times, frozenset):
                raise ModelError(f"observation_times must be a frozenset or None, "
                                 f"got {self.observation_times!r}")
            object.__setattr__(self, "observation_times", frozenset(
                [_count("observation time", t, 1) for t in self.observation_times]))

    @staticmethod
    def mfs() -> "InfoStructure":
        return InfoStructure(None)

    @staticmethod
    def imfs(times: Sequence[int]) -> "InfoStructure":
        """Observation at each of ``times``: ints (or numpy integers) >= 1, not bools."""
        # each is checked before the set merges 1.0 into 1
        return InfoStructure(frozenset([_count("observation time", t, 1) for t in times]))

    def observed(self, t: int) -> bool:
        return self.observation_times is None or t in self.observation_times


@dataclass(frozen=True)
class DisturbancePolicy:
    """How the disturbance d is generated during a run.

    kind: "zero" | "sinusoid" | "worst_case".
    Sinusoid applies amplitude*sin(t) (t in radians, starting at 1) to
    every component, identically across followers.  Worst-case feedback
    uses the true states unless ``use_estimate`` routes the mean through
    the policy estimate.  Making one checks the kind, the target, a
    finite amplitude and a bool ``use_estimate``; the first failure is a
    ModelError.
    """

    kind: str = "zero"
    amplitude: float = 0.0
    applied_to: str = "followers"  # "followers" | "leader" | "both"
    use_estimate: bool = False

    def __post_init__(self):
        if self.kind not in ("zero", "sinusoid", "worst_case"):
            raise ModelError(f"unknown disturbance kind '{self.kind}'")
        if self.applied_to not in ("followers", "leader", "both"):
            raise ModelError(f"unknown target '{self.applied_to}'")
        if not (_is_real(self.amplitude) and np.isfinite(self.amplitude)):
            raise ModelError(f"amplitude must be a finite number, got {self.amplitude!r}")
        object.__setattr__(self, "use_estimate", _flag("use_estimate", self.use_estimate))

    @staticmethod
    def sinusoid(amplitude: float, applied_to: str = "followers") -> "DisturbancePolicy":
        return DisturbancePolicy(kind="sinusoid", amplitude=float(amplitude), applied_to=applied_to)

    @staticmethod
    def worst_case(use_estimate: bool = False) -> "DisturbancePolicy":
        return DisturbancePolicy(kind="worst_case", use_estimate=use_estimate)


@dataclass(frozen=True)
class Experiment:
    """Run defaults from the config's ``experiment`` section; command-line flags override them.
    Making one checks a seed >= 0, runs >= 1, a list of gammas, each by ``_attenuation`` (kept
    as a tuple of floats), and a DisturbancePolicy; a ModelError names ``experiment.<key>``."""

    seed: int = 0
    runs: int = 1
    gamma_list: tuple = ()
    disturbance: DisturbancePolicy = DisturbancePolicy()

    def __post_init__(self):
        object.__setattr__(self, "seed", _count("experiment.seed", self.seed, 0))
        object.__setattr__(self, "runs", _count("experiment.runs", self.runs, 1))
        if not isinstance(self.gamma_list, (list, tuple)):
            raise ModelError(f"experiment.gamma_list must be a list of numbers, "
                             f"got {self.gamma_list!r}")
        object.__setattr__(self, "gamma_list", tuple(
            _attenuation(gamma, "experiment.gamma_list entry") for gamma in self.gamma_list))
        if not isinstance(self.disturbance, DisturbancePolicy):
            raise ModelError(f"experiment.disturbance must be a DisturbancePolicy, "
                             f"got {self.disturbance!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Validated system + cost description.

    All matrix fields are (T, rows, cols) stacks; index [t-1] for time t.
    The horizon T and the dimensions lx and lu are read from the leader's stacks.  Making
    one in any way checks a positive finite gamma with a finite square, an integer
    n_followers >= 1 (stored as a Python int), an Experiment, lx, lu and T >= 1 and the shape
    and finiteness of every stack, then stores the symmetric part of each weight and noise
    stack by ``_symmetric``, then checks ``validate_convexity``, PSD noise covariances and
    each initial law with ``_check_init``: lx components, one leader start state and 1 or
    n_followers follower start states; the first failure is a ModelError.
    ``with_gamma`` checks only the new gamma.
    """

    n_followers: int
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
    experiment: Experiment = Experiment()

    def __post_init__(self):
        _attenuation(self.gamma)
        object.__setattr__(self, "n_followers", _count("n_followers", self.n_followers, 1))
        if not isinstance(self.experiment, Experiment):
            raise ModelError(f"experiment must be an Experiment, got {self.experiment!r}")
        _check_stacks(self)
        for section in ("cost", "noise"):
            for key, name in CONFIG_STACKS[section].items():
                object.__setattr__(self, name, _symmetric(getattr(self, name), f"{section}.{key}"))
        for t, name, ev in validate_convexity(self).violations[:1]:  # the first, if any
            semi = "" if name.startswith("R") else "semi-"
            raise ModelError(f"{name} at t={t} is not positive {semi}definite (min eig {ev:.3g})")
        _check_psd(self.noise_leader, "noise.leader")
        _check_psd(self.noise_follower, "noise.follower")
        for name, counts in (("leader_init", (1,)), ("follower_init", (1, self.n_followers))):
            object.__setattr__(self, name,
                               _check_init(getattr(self, name), name, self.state_dim, counts))

    @property
    def horizon(self) -> int:
        return self.A0.shape[0]

    @property
    def state_dim(self) -> int:
        return self.A0.shape[1]

    @property
    def action_dim(self) -> int:
        return self.B0.shape[2]

    def with_gamma(self, gamma: float) -> "ModelSpec":
        model = copy(self)  # every other field is checked already, and none depends on gamma
        object.__setattr__(model, "gamma", _attenuation(gamma))
        return model


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


def _disturbance_policy(section) -> DisturbancePolicy:
    """The policy an ``experiment.disturbance`` mapping names; a malformed key or value is an error.

    ``kind`` is zero (the default), sinusoid or worst_case (also spelled
    worst-case); ``amplitude`` (default 0.0) and ``applied_to`` (followers,
    leader or both; default followers) belong to sinusoid only.
    """
    fields = dict(_check_keys(section, DISTURBANCE_KEYS, "experiment.disturbance"))
    if "amplitude" in fields:
        fields["amplitude"] = _number(fields["amplitude"], "experiment.disturbance.amplitude")
        if not np.isfinite(fields["amplitude"]):
            raise ModelError(f"experiment.disturbance.amplitude must be finite, "
                             f"got {fields['amplitude']!r}")
    for key, allowed in (("kind", ("zero", "sinusoid", "worst_case", "worst-case")),
                         ("applied_to", ("followers", "leader", "both"))):
        if key in fields and fields[key] not in allowed:
            raise ModelError(f"experiment.disturbance.{key} must be one of {', '.join(allowed)}, "
                             f"got {fields[key]!r}")
    kind = fields.get("kind", "zero")
    for key in ("amplitude", "applied_to"):
        if key in fields and kind != "sinusoid":
            raise ModelError(f"experiment.disturbance.{key} applies to kind sinusoid only, "
                             f"got kind {kind!r}")
    if kind == "worst-case":
        fields["kind"] = "worst_case"
    return DisturbancePolicy(**fields)


def _parse_experiment(node) -> Experiment:
    """The optional run-defaults section, checked by ``Experiment``; gamma strings read as numbers."""
    node = _check_keys(node, EXPERIMENT_KEYS, "experiment")
    fields = {key: node[key] for key in ("seed", "runs", "gamma_list") if key in node}
    if isinstance(fields.get("gamma_list"), list):
        fields["gamma_list"] = [_number(gamma, "experiment.gamma_list entry")
                                for gamma in fields["gamma_list"]]
    return Experiment(**fields, disturbance=_disturbance_policy(node.get("disturbance")))


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that rejects a mapping key given twice, naming it and its line."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # keys a merge brings in may be overridden
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in seen
            except TypeError:
                continue  # unhashable: the base constructor rejects it
            if repeated:
                raise ModelError(f"config line {key_node.start_mark.line + 1}: "
                                 f"duplicate key {key!r}")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_model(text: str) -> ModelSpec:
    """Parse and validate a YAML model description."""
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ModelError(f"config does not parse: {exc}") from exc
    required = ("horizon", "n_followers", "gamma", "leader", "follower",
                "cost", "leader_init", "follower_init")
    raw = _check_keys(raw, {*required, "state_dim", "action_dim", "noise", "experiment"},
                      "config", required)

    T = _count("horizon", raw["horizon"], 1)
    lx = _count("state_dim", raw.get("state_dim", 1), 1)
    lu = _count("action_dim", raw.get("action_dim", 1), 1)
    gamma = _number(raw["gamma"], "gamma")

    size = {"x": lx, "u": lu}
    stacks = {}
    for section, keys in CONFIG_STACKS.items():
        node = _check_keys(raw.get(section), set(keys), section,
                           () if section == "noise" else tuple(keys))
        for key, name in keys.items():
            rows, cols = (size[dim] for dim in STACK_DIMS[name])
            stacks[name] = _per_t_stack(node.get(key, np.zeros((rows, cols))), T, rows, cols,
                                        f"{section}.{key}")
    return ModelSpec(
        n_followers=raw["n_followers"], gamma=gamma, **stacks,
        leader_init=_parse_init(raw["leader_init"], lx, "leader_init"),
        follower_init=_parse_init(raw["follower_init"], lx, "follower_init"),
        experiment=_parse_experiment(raw.get("experiment")),
    )


def load_model_file(path) -> ModelSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelError(f"config {path}: {exc.strerror}") from exc
    return load_model(text)


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
