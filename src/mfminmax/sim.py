"""Seeded Monte Carlo simulation of the leader-follower network.

One engine steps a block of runs together, with the run as the leading
array axis: leader states (R, lx), followers (R, n, lx), estimates
(R, lx).  The engine owns the estimates m_hat: it resets them to the
observed mean at observation times and otherwise propagates them with
``strategy.estimator_step``.  ``simulate`` can run the same runs under
several information structures at once, its arms: each arm of a run is
one row of the block, arm-major, and the arms of a run share its initial
draw and its noise draws.  A block holds at most ``BLOCK_STATES``
follower states, counting the rows of every arm, so ``simulate`` walks
``max(1, BLOCK_STATES // (arms * n))`` runs at a time.  Every population
quantity of a step is computed into work arrays that a call makes once
and each of its blocks reuses, so a step allocates nothing the size of
its population.

Each run owns a counter-based RNG substream keyed by (master seed, run
index, t): the Philox key numpy's ``SeedSequence((seed, run, t))`` gives.
A ``simulate`` call derives the keys of all its (run, t) in one array
pass of that hash, whatever the width of its seed, and re-keys one Philox
for each substream; ``_rng``, one substream built by ``SeedSequence``
itself, is only the reference the keys are tested against.  At each t a
run makes one draw, leader noise in row 0 and follower i's in row i,
which every arm of the run reads.  Every batched operation gives each row
the bits it gets alone, so a run's results are bit-identical whichever
other runs or arms are simulated with it.  A row whose next state is not
finite is marked failed at that t and stays in place, masked: its later
rows read nan, and its run stops drawing once every arm has failed.  The
others step on.  A record keeps what the outputs read: aggregate series
and stage costs, and per-follower states only when asked for; a step's
disturbances and follower actions feed its dynamics and cost, unkept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DisturbancePolicy, InfoStructure, ModelSpec
from .strategy import (estimator_step, follower_action, leader_action, matvec, rmatmul,
                       worst_case_disturbance)
from .synthesis import StrategyGains, _check_gains

__all__ = [
    "SimConfig",
    "TrajectoryRecord",
    "CostSummary",
    "simulate",
    "stage_cost",
    "evaluate_cost",
    "trajectory_csv",
]


def _count(name: str, value, least: int) -> int:
    """``value`` as a Python int; anything but a Python or numpy integer (a bool
    included) >= ``least`` is a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
    """What ``simulate`` runs.  Making one checks every field; the first failure is a
    ValueError naming it.  ``master_seed`` (>= 0) and ``num_runs`` (>= 1) are Python or
    numpy integers, not bools, stored as Python ints."""

    master_seed: int
    num_runs: int = 1
    retain_full_states: bool = False
    disturbance: DisturbancePolicy = DisturbancePolicy()
    info: InfoStructure = InfoStructure.mfs()
    use_worst_case_dbar: bool = True   # estimator propagation switch

    def __post_init__(self):
        for name, least in (("master_seed", 0), ("num_runs", 1)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))
        for name in ("retain_full_states", "use_worst_case_dbar"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        for name, kind, what in (("disturbance", DisturbancePolicy, "a DisturbancePolicy"),
                                 ("info", InfoStructure, "an InfoStructure")):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")


@dataclass
class TrajectoryRecord:
    """One run: aggregate series and stage costs for t = 1..T, follower states if retained.

    A run that failed at t has ``failed_at`` t; its total cost is nan.
    """

    run: int
    x0: np.ndarray          # (T, lx)
    xbar: np.ndarray        # (T, lx)
    mhat: np.ndarray        # (T, lx)
    u0: np.ndarray          # (T, lu)
    ubar: np.ndarray        # (T, lu)
    stage_costs: np.ndarray  # (T,)
    xi: np.ndarray | None = None  # (T, n, lx) when retained
    failed_at: int | None = None

    @property
    def failed(self) -> bool:
        return self.failed_at is not None

    @property
    def total_cost(self) -> float:
        return math.nan if self.failed else float(self.stage_costs.sum())


@dataclass(frozen=True)
class CostSummary:
    mean: float
    stderr: float
    failed_runs: int = 0


def _rng(seed: int, run: int, t: int) -> np.random.Generator:
    """Substream keyed by (master seed, run, t); t=0 is the initial draw.

    The reference only, which the tests and the bench compare ``_substreams`` with.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, run, t))))


def _seed_sequence_keys(*entropy: np.ndarray) -> np.ndarray:
    """The uint64 Philox key pairs ``SeedSequence`` takes from the uint32 words ``entropy``.

    numpy's ``SeedSequence`` hash on whole uint32 arrays, which broadcast
    to the shape of the result less its last axis (2): the first four words
    fill a pool of 4 (zero words pad fewer), the pool mixes, each further
    word is mixed into every pool word, then ``generate_state(2, uint64)``.
    The hash constants step the same way for every entropy, so they are
    Python ints.  Every product has an array operand, because a product of
    two uint32 numpy scalars warns when it wraps.
    """
    mask = 0xFFFFFFFF
    const = 0x43b0d7e5  # INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * 0x931e8875 & mask  # MULT_A
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        result = np.uint32(0xca01f9dd) * x - np.uint32(0x4973f715) * y
        return result ^ result >> np.uint32(16)

    pool = [hashmix(word) for word in (*entropy, *[np.zeros(1, np.uint32)] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = 0x8b51f9dd  # INIT_B
    words = np.empty(pool[0].shape + (4,), dtype="<u4")  # each word has mixed in all entropy
    for i, word in enumerate(pool):
        word = word ^ np.uint32(const)
        const = const * 0x58f38ded & mask  # MULT_B
        word = word * np.uint32(const)
        words[..., i] = word ^ word >> np.uint32(16)
    return words.view("<u8").astype(np.uint64)


def _substream_keys(seed: int, runs: range, T: int) -> np.ndarray:
    """The (R, T+1, 2) keys of ``_rng(seed, run, t)`` for run in ``runs``, t in 0..T.

    The seed, a Python int >= 0 as ``SimConfig`` stores it, enters as its
    uint32 words, least significant first, as ``SeedSequence`` reads an
    int; each run index must fit one word.
    """
    words = [np.full(1, seed >> k & 0xFFFFFFFF, np.uint32) for k in range(0, seed.bit_length() or 1, 32)]
    return _seed_sequence_keys(*words, np.array(runs, np.uint32)[:, None],
                               np.arange(T + 1, dtype=np.uint32))


def _substreams(seed: int, runs: range, T: int):
    """A function (run, t) -> a Generator with the bits of ``_rng(seed, run, t)``, run in ``runs``.

    The keys of every (run, t) come from one ``_substream_keys`` call, and
    one Philox takes each in turn, so a call re-positions the Generator the
    last call returned.
    """
    keys = _substream_keys(seed, runs, T)
    gen = np.random.Generator(np.random.Philox(0))  # its seed is replaced by every key
    bit_gen = gen.bit_generator
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def stream(run: int, t: int) -> np.random.Generator:
        state["state"]["key"] = keys[run - runs.start, t].tolist()
        bit_gen.state = state  # counter 0 and an empty buffer: a fresh substream
        return gen

    return stream


BLOCK_STATES = 2 ** 15
"""Most follower states one block of runs holds, counting the rows of every arm.

More runs per block spread the fixed cost of a step over more runs; the
cap bounds the memory that buys it.  A ``simulate`` call makes one set of
work arrays, about seven arrays of a block's follower states, and every
block reuses it.  At 2^15, n = 10^4 puts three runs in a block; a run of
more followers than the cap is a block alone.
"""


def _colouring(cov: np.ndarray) -> np.ndarray:
    """The factor F for which ``z @ F + 0`` on standard normals z has the bits of
    ``Generator.multivariate_normal(0, cov)`` on the same stream.

    It is numpy's own factor from ``svd(cov)``, made once per covariance
    instead of once per draw, without numpy's PSD check (a ModelSpec checks
    its noise covariances where it is made).  A (T, l, l) stack of
    covariances gives the stack of their factors.
    """
    u, s, _ = np.linalg.svd(cov)
    return np.swapaxes(u * np.sqrt(s)[..., None, :], -1, -2)


def _dot(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """v . w for each pair of vectors along the last axes."""
    return np.matmul(V[..., None, :], W[..., :, None])[..., 0, 0]


def _quad(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """v' W v for each vector v along the last axis of V."""
    return _dot(np.matmul(V[..., None, :], W)[..., 0, :], V)


def _carve(scratch: np.ndarray | None, *shapes) -> list:
    """Arrays of ``shapes``, back to back from the front of the flat ``scratch``; new ones without it."""
    if scratch is None:
        return [np.empty(shape) for shape in shapes]
    arrays, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(scratch[start:start + size].reshape(shape))
        start += size
    return arrays


def _scratch_width(lx: int, lu: int) -> int:
    """Scratch entries per follower that ``stage_cost`` and a step take: one for scalars."""
    width = max(lx, lu)
    return width + 1 if width > 1 else 1


def _quad_mean(X: np.ndarray, W: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """mean_i x_i' W x_i over the rows x_i of each (n, l) batch in X.

    Sums the terms (x_j W_jk) x_k in the order numpy's
    ``einsum("ij,jk,ik->i")`` sums them for one batch: in one sequence,
    except for l = 2 and n <= 2, where each row j is summed apart first.
    einsum itself picks that order from the size of the whole block, so it
    would give a run other bits beside other runs.  The sums are formed in
    ``scratch``, when given: three arrays of X less its last axis for the
    rowwise sums, two for l > 1, one for l = 1.
    """
    l, shape = X.shape[-1], X.shape[:-1]
    rowwise = l == 2 and X.shape[-2] <= 2
    term, *sums = _carve(scratch, *[shape] * (3 if rowwise else 2 if l > 1 else 1))
    sums = sums or [term]  # a lone term is summed where it lies
    total = 0.0  # a sum starts as 0.0 + its first term, as a zero-filled array would
    for j in range(l):
        row = 0.0 if rowwise else total
        for k in range(l):
            np.multiply(X[..., j], W[j, k], out=term)
            np.multiply(term, X[..., k], out=term)
            row = np.add(row, term, out=sums[-1])
        total = np.add(total, row, out=sums[0]) if rowwise else row
    return total.mean(axis=-1)


def _square_mean(X: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """mean_i x_i' x_i over the rows x_i of each (n, l) batch in X, formed in ``scratch``."""
    if X.shape[-1] == 1:  # the sum of one square is 0.0 + x*x, x*x itself: it is never -0.0
        square, = _carve(scratch, X.shape)
        return np.multiply(X, X, out=square)[..., 0].mean(axis=-1)
    square, norm = _carve(scratch, X.shape, X.shape[:-1])
    np.multiply(X, X, out=square)
    return np.sum(square, axis=-1, out=norm).mean(axis=-1)


def stage_cost(model: ModelSpec, t: int, x0: np.ndarray, u0: np.ndarray, d0: np.ndarray,
               xf: np.ndarray, uf: np.ndarray, df: np.ndarray,
               xbar: np.ndarray, ubar: np.ndarray, scratch: np.ndarray | None = None):
    """Social-welfare stage cost at time t, averaged over the n followers.

    ``xf``/``uf``/``df`` are the (n, lx|lu) follower batches and
    ``xbar``/``ubar`` their means, passed in because the caller already has
    them; with a leading run axis on every argument the result is one cost
    per run.  Disturbances enter with weight -gamma^2.  Each population term
    is formed in ``scratch`` when given, a flat float array of at least
    ``_scratch_width(lx, lu)`` entries per follower of the batch.
    """
    g2 = model.gamma ** 2
    return (
        _quad_mean(xf, model.Q[t - 1], scratch) + _quad_mean(uf, model.R[t - 1], scratch)
        - g2 * _square_mean(df, scratch)
        + _quad(x0, model.Q0[t - 1]) + _quad(u0, model.R0[t - 1]) - g2 * _dot(d0, d0)
        + _quad(xbar - x0, model.F[t - 1]) + _quad(xbar, model.P[t - 1])
        + _quad(ubar, model.H[t - 1])
    )


def _disturbances(policy: DisturbancePolicy, t: int, gains: StrategyGains,
                  x0: np.ndarray, xbar: np.ndarray, xf: np.ndarray, m_hat: np.ndarray,
                  out: np.ndarray):
    """Realized (d0, per-follower df) at time t, shaped like (x0, xf); df is written into ``out``."""
    if policy.kind == "zero":
        out.fill(0.0)
        return np.zeros(x0.shape), out
    if policy.kind == "sinusoid":
        pulse = policy.amplitude * math.sin(t)
        d0 = (np.full(x0.shape, pulse) if policy.applied_to in ("leader", "both")
              else np.zeros(x0.shape))
        out.fill(pulse if policy.applied_to in ("followers", "both") else 0.0)
        return d0, out
    return worst_case_disturbance(gains, t, x0, m_hat if policy.use_estimate else xbar, xf,
                                  out=out)


def _work_arrays(model: ModelSpec, arms: int, runs: int) -> dict:
    """The population arrays of a block of ``runs`` runs under ``arms`` arms, made once per call.

    Every block of the call takes the leading rows of each: two follower
    state arrays (now and next, swapped each step), actions, disturbances,
    the noise draw of each run (leader in row 0), a flat scratch array and
    a finite mask.  Every population quantity of a step is computed into
    them.  They pay for themselves: at n = 10^4 (example 1, 50 runs, worst
    case) a ``simulate`` call that allocated each step's arrays instead took
    8,925 minor page faults rather than 321, and its fastest run was 5-10%
    slower.
    """
    n, lx, lu = model.n_followers, model.state_dim, model.action_dim
    rows = arms * runs
    return {
        "states": (np.empty((rows, n, lx)), np.empty((rows, n, lx))),
        "uf": np.empty((rows, n, lu)),
        "df": np.empty((rows, n, lx)),
        "z": np.empty((runs, n + 1, lx)),
        "scratch": np.empty(rows * n * _scratch_width(lx, lu)),
        "finite": np.empty((rows, n, lx), dtype=bool),
    }


def _simulate_block(model: ModelSpec, gains: StrategyGains, cfg: SimConfig, infos: tuple,
                    runs: range, stream, colour: tuple, work: dict) -> list[list[TrajectoryRecord]]:
    """The runs ``runs`` under each information structure of ``infos``, stepped together.

    Rows are arm-major: row ``a * R + k`` is run ``runs[k]`` under ``infos[a]``
    for the whole horizon.  The (T, rows) bool mask ``seen`` holds at
    ``[t - 1, row]`` whether the row's arm observes the mean at t: each
    step first resets the estimates of the rows that observe to the mean,
    and the others carry the estimate that ``estimator_step`` propagated at
    the end of the last step.  A run's arms start from one initial draw and
    share one noise draw per t; ``stream`` gives the substreams, ``colour``
    holds the (leader, follower) factor stacks and ``work`` the arrays of
    ``_work_arrays``, with room for the block's rows.  A failed row steps
    on, and its entries from its ``failed_at`` on are set to nan at the
    end.  Returns one record list per arm.
    """
    T, n, lx, lu = model.horizon, model.n_followers, model.state_dim, model.action_dim
    A, R = len(infos), len(runs)
    rows = A * R
    states, scratch = work["states"], work["scratch"]

    x0, xf = np.empty((R, lx)), states[0][:rows]
    for k, run in enumerate(runs):
        init_rng = stream(run, 0)
        x0[k] = model.leader_init.sample(init_rng, 1)[0]
        xf[k] = model.follower_init.sample(init_rng, n)
    x0 = np.tile(x0, (A, 1))
    xf.reshape(A, R, n, lx)[1:] = xf[:R]  # each further arm starts from the same draw
    seen = np.repeat([[info.observed(t) for info in infos]
                      for t in range(1, T + 1)], R, axis=1)  # (T, rows), arm-major
    live = range(R)  # the runs still stepping in some arm: one draw each per t
    z = work["z"][:R]  # row 0 leader noise, rows 1.. follower noise

    series = {name: np.empty((rows, T, dim)) for name, dim in (
        ("x0", lx), ("xbar", lx), ("mhat", lx), ("u0", lu), ("ubar", lu))}
    stage_costs = np.empty((rows, T))
    full = {"xi": np.empty((rows, T, n, lx))} if cfg.retain_full_states else {}
    failed_at = np.zeros(rows, dtype=int)  # 0 while a row's states are finite

    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow are marked failed
        m_hat = np.broadcast_to(model.follower_init.mean(), (rows, lx))
        for t in range(1, T + 1):
            xbar = xf.mean(axis=1)
            # a row that observes the mean at t resets its estimate to it
            m_hat = xbar if seen[t - 1].all() else np.where(seen[t - 1, :, None], xbar, m_hat)
            u0 = leader_action(gains, t, x0, m_hat)
            uf = follower_action(gains, t, xf, x0, m_hat, out=work["uf"][:rows])
            ubar = uf.mean(axis=1)
            d0, df = _disturbances(cfg.disturbance, t, gains, x0, xbar, xf, m_hat,
                                   work["df"][:rows])

            for name, value in (("x0", x0), ("xbar", xbar), ("mhat", m_hat), ("u0", u0),
                                ("ubar", ubar)):
                series[name][:, t - 1] = value
            stage_costs[:, t - 1] = stage_cost(model, t, x0, u0, d0, xf, uf, df, xbar, ubar,
                                               scratch)
            if full:
                full["xi"][:, t - 1] = xf

            for k in live:
                stream(runs[k], t).standard_normal(out=z[k])
            f0, ff = colour[0][t - 1], colour[1][t - 1]
            w0 = (z[:, :1] @ f0)[:, 0] + np.zeros(lx)

            x0_next = (matvec(model.A0[t - 1], x0) + matvec(model.B0[t - 1], u0)
                       + matvec(model.S0[t - 1], xbar) + d0 + np.tile(w0, (A, 1)))
            # the state arrays alternate: the next state goes where the last one was
            xf_next = rmatmul(xf, model.A[t - 1], out=states[t % 2][:rows])
            np.add(xf_next, rmatmul(uf, model.B[t - 1], out=_carve(scratch, xf.shape)[0]),
                   out=xf_next)
            np.add(xf_next, matvec(model.S[t - 1], xbar)[:, None, :], out=xf_next)
            np.add(xf_next, matvec(model.E[t - 1], x0)[:, None, :], out=xf_next)
            np.add(xf_next, df, out=xf_next)
            wf = rmatmul(z[:, 1:], ff.T, out=_carve(scratch, (R, n, lx))[0])
            if ff.shape != (1, 1):  # a 1x1 rmatmul has added its 0.0 already
                np.add(wf, np.zeros(lx), out=wf)
            by_arm = xf_next.reshape(A, R, n, lx)  # each arm of a run takes the run's noise
            np.add(by_arm, wf, out=by_arm)

            ok = (np.isfinite(x0_next).all(axis=1)
                  & np.isfinite(xf_next, out=work["finite"][:rows]).all(axis=(1, 2)))
            if not ok.all():
                failed_at[~ok & (failed_at == 0)] = t
                live = np.flatnonzero((failed_at == 0).reshape(A, R).any(axis=0))
                if live.size == 0:
                    break

            if t < T and not seen[t].all():
                m_hat = estimator_step(model, gains, t, x0, m_hat, cfg.use_worst_case_dbar)
            x0, xf = x0_next, xf_next

    for row in np.flatnonzero(failed_at):  # a failed row reads nan from its failed_at on
        for arr in (*series.values(), stage_costs, *full.values()):
            arr[row, failed_at[row]:] = np.nan
    records = [
        TrajectoryRecord(
            run=runs[row % R], **{name: arr[row] for name, arr in series.items()},
            stage_costs=stage_costs[row], **{name: arr[row] for name, arr in full.items()},
            failed_at=int(failed_at[row]) or None)
        for row in range(rows)
    ]
    return [records[first:first + R] for first in range(0, rows, R)]


def simulate(model: ModelSpec, gains: StrategyGains, cfg: SimConfig,
             arms: tuple | None = None) -> list:
    """All runs, in run-index order, in blocks of at most BLOCK_STATES follower states.

    With ``arms``, a sequence of information structures that replaces
    ``cfg.info``, every run is simulated under each of them from the same
    draws, and the result is one record list per arm, each bit for bit
    what ``simulate`` gives with that arm as ``cfg.info``.
    A block then holds every arm of its runs and counts the follower states
    of all of them.  Every block reuses one set of work arrays.
    Gains of another horizon or other dimensions than ``model``'s are a
    ValueError, and so is an observation time past its horizon.
    """
    infos = (cfg.info,) if arms is None else tuple(arms)
    if not infos:
        raise ValueError("arms must hold at least one information structure")
    _check_gains(model, gains)
    late = sorted(t for info in infos for t in info.observation_times or () if t > model.horizon)
    if late:
        raise ValueError(f"observation time {late[0]} is past the horizon {model.horizon}")
    runs = range(cfg.num_runs)
    stream = _substreams(cfg.master_seed, runs, model.horizon)
    colour = _colouring(model.noise_leader), _colouring(model.noise_follower)
    per_block = min(cfg.num_runs, max(1, BLOCK_STATES // (len(infos) * model.n_followers)))
    work = _work_arrays(model, len(infos), per_block)
    records = [[] for _ in infos]
    for first in range(0, cfg.num_runs, per_block):
        block = _simulate_block(model, gains, cfg, infos, runs[first:first + per_block], stream,
                                colour, work)
        for arm, part in zip(records, block):
            arm += part
    return records[0] if arms is None else records


def evaluate_cost(records: list[TrajectoryRecord]) -> CostSummary:
    """Monte Carlo mean and standard error of the realized cost; both nan if every run failed."""
    per_run = np.array([r.total_cost for r in records])
    ok = np.isfinite(per_run)
    vals = per_run[ok]
    if vals.size == 0:  # every run failed: the cost is undefined, not an error
        return CostSummary(mean=math.nan, stderr=math.nan, failed_runs=len(records))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return CostSummary(mean=mean, stderr=stderr, failed_runs=int((~ok).sum()))


def _labels(base: str, dim: int) -> list[str]:
    return [base] if dim == 1 else [f"{base}_{k}" for k in range(dim)]


def _run_template(T: int, lx: int, lu: int, n: int) -> str:
    """The rows of one run as a ``%`` template: NUL where the run index goes, ``%r`` per value."""
    aggregates = [f"{name},," for base, dim in (
        ("x0", lx), ("xbar", lx), ("mhat", lx), ("u0", lu), ("ubar", lu), ("cost_stage", 1))
        for name in _labels(base, dim)]
    followers = [f"{name},{i}," for i in range(1, n + 1) for name in _labels("xi", lx)]
    return "".join(f"\0,{t},{row}%r\n" for t in range(1, T + 1) for row in aggregates + followers)


def trajectory_csv(records: list[TrajectoryRecord]):
    """Long-format CSV (run, t, series, agent, value), plot-ready, as chunks.

    Yields the header, then one chunk per record; ``"".join`` of them is
    the file.  Per t: x0, xbar, mhat, u0, ubar, cost_stage, then ``xi`` of
    each kept follower with its 1-based agent index.  Labels follow the
    record's arrays: a series of one component is its bare name, a vector
    one gets a _k suffix per component.  Values are ``repr`` of each float
    (the shortest string that reads back to the same float), rows end in
    a bare newline.  Each record is one ``%`` format over a template
    made once per (T, lx, lu, n).
    """
    templates = {}
    yield "run,t,series,agent,value\n"
    for rec in records:
        T, lx = rec.x0.shape
        columns = [rec.x0, rec.xbar, rec.mhat, rec.u0, rec.ubar, rec.stage_costs[:, None]]
        if rec.xi is not None:
            columns.append(rec.xi.reshape(T, -1))
        shape = (T, lx, rec.u0.shape[1], 0 if rec.xi is None else rec.xi.shape[1])
        if shape not in templates:
            templates[shape] = _run_template(*shape)
        values = np.concatenate(columns, axis=1).ravel().tolist()
        yield templates[shape].replace("\0", str(rec.run)) % tuple(values)
