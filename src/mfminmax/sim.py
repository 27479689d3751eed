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
``max(1, BLOCK_STATES // (arms * n))`` runs at a time, and
``simulate_run`` is a block of one.

Each run owns a counter-based RNG substream keyed by (master seed, run
index, t): the Philox key numpy's ``SeedSequence((seed, run, t))`` gives,
as ``_rng`` builds it.  A ``simulate`` call derives the keys of all its
(run, t) in one array pass of that hash and re-keys one Philox for each
substream; a call whose seed or last run index is 2^32 or more, more than
one uint32 word of entropy, builds each substream with ``_rng``, with the
same bits.  At each t a run makes one draw, leader noise in row 0 and
follower i's in row i, which every arm of the run reads.  Every batched
operation gives each row the bits it gets alone, so a run's results are
bit-identical whichever other runs or arms are simulated with it.  A row
whose next state is not finite is marked failed at that t and leaves the
block, its later rows left nan; the others step on.  Stage costs are
accumulated online (sufficient statistics), full per-follower state
retention is opt-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DisturbancePolicy, InfoStructure, ModelSpec
from .strategy import (estimator_step, follower_action, leader_action, matvec, rmatmul,
                       worst_case_disturbance)
from .synthesis import StrategyGains

__all__ = [
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
    """Substream keyed by (master seed, run, t); t=0 is the initial draw.

    The reference for the keyed substreams of ``_block_streams``.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, run, t))))


def _seed_sequence_keys(seed: np.ndarray, run: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The uint64 Philox key pairs ``_rng`` takes from the entropy [seed, run, t].

    numpy's ``SeedSequence`` hash on whole uint32 arrays, which broadcast
    to the shape of the result less its last axis (2): the entropy mixed
    into a pool of 4 words, then ``generate_state(2, uint64)``.  The hash
    constants step the same way for every entropy, so they are Python ints.
    Every product has an array operand, because a product of two uint32
    numpy scalars warns when it wraps.
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

    pool = [hashmix(word) for word in (seed, run, t, np.zeros(1, np.uint32))]  # 0 pads the pool
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    const = 0x8b51f9dd  # INIT_B
    words = np.empty(pool[0].shape + (4,), dtype="<u4")  # each word has mixed in all three
    for i, word in enumerate(pool):
        word = word ^ np.uint32(const)
        const = const * 0x58f38ded & mask  # MULT_B
        word = word * np.uint32(const)
        words[..., i] = word ^ word >> np.uint32(16)
    return words.view("<u8").astype(np.uint64)


def _substream_keys(seed: int, runs: range, T: int) -> np.ndarray:
    """The (R, T+1, 2) keys of ``_rng(seed, run, t)`` for run in ``runs``, t in 0..T.

    Seed and run indices must each fit one uint32 word.
    """
    return _seed_sequence_keys(np.full(1, seed, np.uint32),
                               np.array(runs, np.uint32)[:, None],
                               np.arange(T + 1, dtype=np.uint32))


def _substreams(seed: int, runs: range, T: int):
    """A function (run, t) -> a Generator with the bits of ``_rng(seed, run, t)``, run in ``runs``.

    The keys of every (run, t) come from one ``_substream_keys`` call, and
    one Philox takes each in turn, so a call re-positions the Generator the
    last call returned.  A seed or run index of 2^32 or more is more than
    one uint32 word of entropy; then each substream is built with ``_rng``,
    as it is for a negative index, which ``SeedSequence`` rejects.
    """
    if not (0 <= seed < 2 ** 32 and 0 <= runs[0] and runs[-1] < 2 ** 32):
        return lambda run, t: _rng(seed, run, t)
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


BLOCK_STATES = 2 ** 13
"""Most follower states one block of runs holds: bounds the working arrays at large n."""


def _colouring(cov: np.ndarray) -> np.ndarray:
    """The factor F for which ``z @ F + 0`` on standard normals z has the bits of
    ``Generator.multivariate_normal(0, cov)`` on the same stream.

    It is numpy's own factor from ``svd(cov)``, made once per covariance
    instead of once per draw, without numpy's PSD check (the loader checks
    PSD).  A (T, l, l) stack of covariances gives the stack of their factors.
    """
    u, s, _ = np.linalg.svd(cov)
    return np.swapaxes(u * np.sqrt(s)[..., None, :], -1, -2)


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


def _observe(seen: list, arm: np.ndarray, xf: np.ndarray, m_hat: np.ndarray) -> np.ndarray:
    """``m_hat`` with the rows of each arm that sees the mean reset to the mean of their followers.

    ``seen`` holds a bool per arm and ``arm`` the arm of each row.
    """
    if not any(seen):
        return m_hat
    mean = xf.mean(axis=1)
    return mean if all(seen) else np.where(np.array(seen)[arm][:, None], mean, m_hat)


def _simulate_block(model: ModelSpec, gains: StrategyGains, cfg: SimConfig, infos: tuple,
                    runs: range, stream, colour: tuple) -> list[list[TrajectoryRecord]]:
    """The runs ``runs`` under each information structure of ``infos``, stepped together.

    Rows are arm-major: row ``a * R + k`` is run ``runs[k]`` under ``infos[a]``
    (None for full mean-field sharing).  A run's arms start from one initial
    draw and share one noise draw per t; ``stream`` gives the substreams and
    ``colour`` holds the (leader, follower) factor stacks.  Returns one
    record list per arm.
    """
    T, n, lx, lu = model.horizon, model.n_followers, model.state_dim, model.action_dim
    R, rows, seed = len(runs), len(infos) * len(runs), cfg.master_seed
    infos = [InfoStructure.mfs(T) if info is None else info for info in infos]

    x0, xf = np.empty((R, lx)), np.empty((R, n, lx))
    for k, run in enumerate(runs):
        init_rng = stream(run, 0)
        x0[k] = model.leader_init.sample(init_rng)
        xf[k] = model.follower_init.sample(init_rng, n)
    x0, xf = np.concatenate([x0] * len(infos)), np.concatenate([xf] * len(infos))
    active = np.arange(rows)  # the rows still stepping
    arm, pick = active // R, active % R  # each active row's arm, and its run as an index into live
    live = np.arange(R)  # the runs still stepping in some arm: one draw each per t
    m_hat = _observe([info.observed(1) for info in infos], arm, xf,
                     np.broadcast_to(model.follower_init.mean(), (rows, lx)))

    # rows after a run fails stay nan, as its stage costs do
    series = {name: np.full((rows, T, dim), np.nan) for name, dim in (
        ("x0", lx), ("xbar", lx), ("mhat", lx), ("u0", lu), ("ubar", lu), ("d0", lx),
        ("dbar", lx))}
    stage_costs = np.full((rows, T), np.nan)
    keep = cfg.retain_full_states
    full = {name: np.full((rows, T, n, dim), np.nan) if keep else [None] * rows
            for name, dim in (("xi", lx), ("ui", lu), ("di", lx))}
    failed_at = [None] * rows

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

        z = np.empty((live.size, n + 1, lx))  # row 0 the leader's noise, rows 1.. the followers'
        for k, j in enumerate(live):
            stream(runs[j], t).standard_normal(out=z[k])
        f0, ff = colour[0][t - 1], colour[1][t - 1]
        w0 = (z[:, :1] @ f0)[:, 0] + np.zeros(lx)
        wf = rmatmul(z[:, 1:], ff.T) + np.zeros(lx)
        if len(infos) > 1:  # each run's noise, copied to the rows of its arms
            w0, wf = w0[pick], wf[pick]

        with np.errstate(over="ignore", invalid="ignore"):
            x0_next = (matvec(model.A0[t - 1], x0) + matvec(model.B0[t - 1], u0)
                       + matvec(model.S0[t - 1], xbar) + d0 + w0)
            xf_next = (rmatmul(xf, model.A[t - 1]) + rmatmul(uf, model.B[t - 1])
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
            arm, live = active // R, np.flatnonzero(np.bincount(active % R, minlength=R))
            pick = np.searchsorted(live, active % R)

        if t < T:
            seen = [info.observed(t + 1) for info in infos]
            if not all(seen):
                m_hat = estimator_step(model, gains, t, x0, m_hat, cfg.use_worst_case_dbar)
            m_hat = _observe(seen, arm, xf_next, m_hat)
        x0, xf = x0_next, xf_next

    records = [
        TrajectoryRecord(
            run=runs[row % R], seed=seed, **{name: arr[row] for name, arr in series.items()},
            stage_costs=stage_costs[row],
            total_cost=np.nan if failed_at[row] is not None else float(stage_costs[row].sum()),
            xi=full["xi"][row], ui=full["ui"][row], di=full["di"][row],
            failed=failed_at[row] is not None, failed_at=failed_at[row])
        for row in range(rows)
    ]
    return [records[first:first + R] for first in range(0, rows, R)]


def simulate_run(model: ModelSpec, gains: StrategyGains, cfg: SimConfig, run: int) -> TrajectoryRecord:
    """One seeded run, a block of one; deterministic in (master_seed, run) alone."""
    runs = range(run, run + 1)
    colour = _colouring(model.noise_leader), _colouring(model.noise_follower)
    return _simulate_block(model, gains, cfg, (cfg.info,), runs,
                           _substreams(cfg.master_seed, runs, model.horizon), colour)[0][0]


def simulate(model: ModelSpec, gains: StrategyGains, cfg: SimConfig,
             arms: tuple | None = None) -> list:
    """All runs, in run-index order, in blocks of at most BLOCK_STATES follower states.

    With ``arms``, a sequence of information structures (None for full
    sharing) that replaces ``cfg.info``, every run is simulated under each
    of them from the same draws, and the result is one record list per arm,
    each bit for bit what ``simulate`` gives with that arm as ``cfg.info``.
    A block then holds every arm of its runs and counts the follower states
    of all of them.
    """
    infos = (cfg.info,) if arms is None else tuple(arms)
    if not infos:
        raise ValueError("arms must hold at least one information structure")
    runs = range(cfg.num_runs)
    stream = _substreams(cfg.master_seed, runs, model.horizon)
    colour = _colouring(model.noise_leader), _colouring(model.noise_follower)
    per_block = max(1, BLOCK_STATES // (len(infos) * model.n_followers))
    records = [[] for _ in infos]
    for first in range(0, cfg.num_runs, per_block):
        block = _simulate_block(model, gains, cfg, infos, runs[first:first + per_block], stream,
                                colour)
        for arm, part in zip(records, block):
            arm += part
    return records[0] if arms is None else records


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


def _labels(base: str, dim: int) -> list[str]:
    return [base] if dim == 1 else [f"{base}_{k}" for k in range(dim)]


def _run_template(T: int, lx: int, lu: int, n: int) -> str:
    """The rows of one run as a ``%`` template: NUL where the run index goes, ``%r`` per value."""
    aggregates = [f"{name},," for base, dim in (
        ("x0", lx), ("xbar", lx), ("mhat", lx), ("u0", lu), ("ubar", lu), ("cost_stage", 1))
        for name in _labels(base, dim)]
    followers = [f"{name},{i}," for i in range(1, n + 1) for name in _labels("xi", lx)]
    return "".join(f"\0,{t},{row}%r\n" for t in range(1, T + 1) for row in aggregates + followers)


def trajectory_csv(records: list[TrajectoryRecord]) -> str:
    """Long-format CSV (run, t, series, agent, value), plot-ready.

    Per t: x0, xbar, mhat, u0, ubar, cost_stage, then ``xi`` of each kept
    follower with its 1-based agent index.  Labels follow the record's
    arrays: a series of one component is its bare name, a vector one
    gets a _k suffix per component.  Values are ``repr`` of each float
    (the shortest string that reads back to the same float), rows end in
    a bare newline.  Each record is one ``%`` format over a template
    made once per (T, lx, lu, n).
    """
    templates = {}
    chunks = ["run,t,series,agent,value\n"]  # one per record, to bound the peak
    for rec in records:
        T, lx = rec.x0.shape
        columns = [rec.x0, rec.xbar, rec.mhat, rec.u0, rec.ubar, rec.stage_costs[:, None]]
        if rec.xi is not None:
            columns.append(rec.xi.reshape(T, -1))
        shape = (T, lx, rec.u0.shape[1], 0 if rec.xi is None else rec.xi.shape[1])
        if shape not in templates:
            templates[shape] = _run_template(*shape)
        values = np.concatenate(columns, axis=1).ravel().tolist()
        chunks.append(templates[shape].replace("\0", str(rec.run)) % tuple(values))
    return "".join(chunks)
