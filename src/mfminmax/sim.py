"""Seeded Monte Carlo simulation of the leader-follower network.

One engine steps a block of runs together, with the run as the leading
array axis: leader states (R, lx), followers (R, n, lx), estimates
(R, lx).  The engine owns the estimates m_hat: it resets them to the
observed mean at observation times and otherwise propagates them with
``strategy.estimator_step``.  ``simulate`` can run the same runs under
several information structures at once, its arms, and at several
population sizes at once, its sizes; a call without sizes is the
one-size case of the same layout.  Each (size, arm) of a run is one row
of the block, size-major, then arm-major.  The leader, the means, the
estimates, the row part of the follower actions and the stage cost's
aggregate terms are stepped once over every row.  The followers of every
size sit back to back in one flat buffer per population array, each
size's part a C-contiguous (rows, n, l) view shaped as a call of that
size alone shapes it.  So the products with A, B and L_brev, the sums
of the follower dynamics and the per-follower cost terms run once over
the flat view of every size, while the means, the broadcast adds of row
quantities and each row's finite check run per size on its view.  The
arms of a run at one size share its initial draw; every row of a run
shares its noise draws.  A block holds at most ``BLOCK_STATES`` follower
states, counting every size and arm, so ``simulate`` walks ``max(1,
BLOCK_STATES // (arms * sum of sizes))`` runs at a time.  Every
population quantity of a step is computed into work arrays that a call
makes once and each of its blocks reuses, so a step allocates nothing
the size of its population.

Each run owns a counter-based RNG substream keyed by (master seed, run
index, t): the Philox key numpy's ``SeedSequence((seed, run, t))`` gives.
A ``simulate`` call derives the keys of all its (run, t) in one array
pass of that hash, whatever the width of its seed, and re-keys one Philox
for each substream; ``_rng``, one substream built by ``SeedSequence``
itself, is only the reference the keys are tested against.  At t = 0 each
size of a run re-keys and draws its own initial states, the leader's
first, through a transform of each initial law made once a call.  At each
t >= 1 a run makes one draw for its largest size, leader noise in row 0
and follower i's in row i; a size of n followers reads its first n + 1
rows, which are the draw a call of that size makes, since a sequential
fill is a prefix of any longer one.  Every batched operation gives each
row the bits it gets alone, so a run's results are bit-identical whichever
other runs, arms or sizes are simulated with it.  A row whose next state
is not finite is marked failed at that t and stays in place, masked: its
later rows read nan, and its run stops drawing once every row of it has
failed.  The others step on.  A record keeps what the outputs read:
aggregate series and stage costs, and per-follower states only when asked
for; a step's disturbances and follower actions feed its dynamics and
cost, unkept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (DisturbancePolicy, InfoStructure, InitSpec, ModelError, ModelSpec, _check_init,
                    _count, _flag)
from .strategy import (estimator_step, follower_disturbance, follower_feedback, leader_action,
                       matvec, rmatmul, rproduct, worst_case_disturbance)
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


@dataclass(frozen=True)
class SimConfig:
    """What ``simulate`` runs.  Making one checks every field; the first failure is a
    ModelError, which is a ValueError, naming it.  ``master_seed`` (>= 0) and ``num_runs``
    (>= 1) are Python or numpy integers, not bools, stored as Python ints; the two switches
    are bools, stored as Python bools."""

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
            object.__setattr__(self, name, _flag(name, getattr(self, name)))
        for name, kind, what in (("disturbance", DisturbancePolicy, "a DisturbancePolicy"),
                                 ("info", InfoStructure, "an InfoStructure")):
            if not isinstance(getattr(self, name), kind):
                raise ModelError(f"{name} must be {what}, got {getattr(self, name)!r}")


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
    keys = _substream_keys(seed, runs, T).tolist()
    gen = np.random.Generator(np.random.Philox(0))  # its seed is replaced by every key
    bit_gen = gen.bit_generator
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def stream(run: int, t: int) -> np.random.Generator:
        state["state"]["key"] = keys[run - runs.start][t]
        bit_gen.state = state  # counter 0 and an empty buffer: a fresh substream
        return gen

    return stream


BLOCK_STATES = 2 ** 15
"""Most follower states one block of runs holds, counting the rows of every size and arm.

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


def _carve(scratch: np.ndarray, *shapes) -> list:
    """Arrays of ``shapes``, back to back from the front of the flat ``scratch``."""
    arrays, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(scratch[start:start + size].reshape(shape))
        start += size
    return arrays


def _scratch_width(lx: int, lu: int) -> int:
    """Scratch entries per follower of a step or a ``stage_cost``: lx for a step's B u and
    noise, l for the squares of a cost sum, two for the row sums of ``_rowwise``'s l = 2."""
    return max(lx, lu)


def _mean(X: np.ndarray, axis: int):
    """``X.mean(axis)`` bit for bit, without ``ndarray.mean``'s Python wrapper.

    numpy's own mean of a float64 array is this ``add.reduce`` over the axis,
    then ``true_divide`` by its length.
    """
    return np.true_divide(np.add.reduce(X, axis=axis), X.shape[axis])


def _rowwise(n: int, l: int) -> bool:
    """Whether numpy's ``einsum("ij,jk,ik->i")`` sums each row of x' W x apart first for a
    batch of n followers with l components; ``_quad_sums`` follows it."""
    return l == 2 and n <= 2


def _quad_sums(X: np.ndarray, W: np.ndarray, rowwise: bool, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
    """x' W x for each vector x along the last axis of X, into ``out``.

    Sums the terms (x_j W_jk) x_k in the order numpy's
    ``einsum("ij,jk,ik->i")`` sums them for one batch of n followers: in one
    sequence, except where ``_rowwise`` holds, where each row j is summed
    apart first.  einsum itself picks that order from the size of the whole
    block, so it would give a run other bits beside other runs.  For l > 1
    the terms, and the row sums of ``rowwise``, are formed in ``scratch``:
    one or two arrays of ``out``'s shape.
    """
    l = X.shape[-1]
    term, *rows = _carve(scratch, *[out.shape] * (2 if rowwise else 1)) if l > 1 else (out,)
    total = 0.0  # a sum starts as 0.0 + its first term, as a zero-filled array would
    for j in range(l):
        row = 0.0 if rowwise else total
        for k in range(l):
            np.multiply(X[..., j], W[j, k], out=term)
            np.multiply(term, X[..., k], out=term)
            row = np.add(row, term, out=rows[0] if rowwise else out)
        total = np.add(total, row, out=out) if rowwise else row
    return out


def _square_sums(X: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """x' x for each vector x along the last axis of X, into ``out``; for l > 1 the squares
    are formed in ``scratch``."""
    if X.shape[-1] == 1:  # the sum of one square is 0.0 + x*x, x*x itself: it is never -0.0
        np.multiply(X, X, out=out[..., None])
        return out
    square, = _carve(scratch, X.shape)
    np.multiply(X, X, out=square)
    return np.add.reduce(square, axis=-1, out=out)


def _aggregate_cost(model: ModelSpec, t: int, quad_x, quad_u, square_d, x0: np.ndarray,
                    u0: np.ndarray, d0: np.ndarray, xbar: np.ndarray, ubar: np.ndarray):
    """``stage_cost`` from the follower means of x'Qx, u'Ru and d'd, added first, and the
    terms that read only the leader and the follower means."""
    return (
        quad_x + quad_u - model.gamma ** 2 * square_d
        + _quad(x0, model.Q0[t - 1]) + _quad(u0, model.R0[t - 1])
        - model.gamma ** 2 * _dot(d0, d0)
        + _quad(xbar - x0, model.F[t - 1]) + _quad(xbar, model.P[t - 1])
        + _quad(ubar, model.H[t - 1])
    )


def stage_cost(model: ModelSpec, t: int, x0: np.ndarray, u0: np.ndarray, d0: np.ndarray,
               xf: np.ndarray, uf: np.ndarray, df: np.ndarray,
               xbar: np.ndarray, ubar: np.ndarray):
    """Social-welfare stage cost at time t, averaged over the n followers.

    ``xf``/``uf``/``df`` are the (n, lx|lu) follower batches and
    ``xbar``/``ubar`` their means, passed in because the caller already has
    them; with a leading run axis on every argument the result is one cost
    per run.  Disturbances enter with weight -gamma^2.  Each follower's
    term is summed by the engine's ``_quad_sums`` and ``_square_sums``, in
    the engine's order, and the means go to ``_aggregate_cost``.
    """
    n = xf.shape[-2]
    sums = np.empty(xf.shape[:-1])
    scratch = np.empty(sums.size * _scratch_width(xf.shape[-1], uf.shape[-1]))
    means = [_mean(_quad_sums(X, W, _rowwise(n, X.shape[-1]), sums, scratch), -1)
             for X, W in ((xf, model.Q[t - 1]), (uf, model.R[t - 1]))]
    return _aggregate_cost(model, t, *means, _mean(_square_sums(df, sums, scratch), -1),
                           x0, u0, d0, xbar, ubar)


def _disturbances(policy: DisturbancePolicy, t: int, gains: StrategyGains, x0: np.ndarray,
                  xbar: np.ndarray, m_hat: np.ndarray, populations: list):
    """Realized d0, shaped like x0, and each population's df at time t.

    ``populations`` holds (rows, xf, out) triples: the rows of x0 a
    follower batch ``xf`` belongs to, and the array its df is written into.
    """
    if policy.kind == "zero":
        for _, _, out in populations:
            out.fill(0.0)
        return np.zeros(x0.shape), [out for _, _, out in populations]
    if policy.kind == "sinusoid":
        pulse = policy.amplitude * math.sin(t)
        d0 = (np.full(x0.shape, pulse) if policy.applied_to in ("leader", "both")
              else np.zeros(x0.shape))
        for _, _, out in populations:
            out.fill(pulse if policy.applied_to in ("followers", "both") else 0.0)
        return d0, [out for _, _, out in populations]
    mean = m_hat if policy.use_estimate else xbar
    d0, dbar = worst_case_disturbance(gains, t, x0, mean)
    return d0, [follower_disturbance(gains, t, xf, mean[rows], dbar[rows], out=out)
                for rows, xf, out in populations]


def _initial_draw(init: InitSpec):
    """A function (rng, count) -> the bits of ``init.sample(rng, count)``, its transform made once.

    A uniform box scales ``rng.random`` by its width, and a gaussian colours
    ``rng.standard_normal`` by ``_colouring`` of its covariance, as numpy's
    ``uniform`` and ``multivariate_normal`` do on every call.
    """
    if init.kind == "uniform":
        low, width = init.low, init.high - init.low
        return lambda rng, count: low + width * rng.random((count, low.size))
    if init.kind == "gaussian":
        mu, factor = init.mu, _colouring(init.sigma)
        return lambda rng, count: rng.standard_normal((count, mu.size)) @ factor + mu
    return init.sample


def _work_arrays(sizes: tuple, lx: int, lu: int, arms: int, runs: int) -> dict:
    """The population arrays of a block of ``runs`` runs under ``arms`` arms, made once per call.

    Each is one flat buffer that holds the followers of every population
    size back to back: follower states now and next (two buffers that swap
    each step), actions, disturbances, a finite mask and the scratch.  A
    block takes the front of each, which ``_layout`` views per size.  The
    sizes share the noise draw of each run (leader in row 0, room for the
    largest population).  Every population quantity of a step is computed
    into them.  They pay for themselves: at n = 10^4 (example 1, 50 runs,
    worst case) a ``simulate`` call that allocated each step's arrays
    instead took 8,925 minor page faults rather than 321, and its fastest
    run was 5-10% slower.
    """
    states = arms * runs * sum(sizes)
    return {"states": np.empty((2, states * lx)), "uf": np.empty(states * lu),
            "df": np.empty(states * lx), "finite": np.empty(states * lx, dtype=bool),
            "z": np.empty((runs, max(sizes) + 1, lx)),
            "scratch": np.empty(states * _scratch_width(lx, lu))}


def _layout(buffer: np.ndarray, sizes: tuple, width: int, *tail: int):
    """The front of the flat ``buffer`` for ``width`` rows of each size: its flat view, one
    entry per follower of every size, and each size's C-contiguous (width, n, *tail) view."""
    flat = buffer[:width * sum(sizes) * math.prod(tail)].reshape(-1, *tail)
    bounds = np.cumsum((0,) + sizes) * width
    return flat, [flat[a:b].reshape(width, n, *tail) for a, b, n in zip(bounds, bounds[1:], sizes)]


def _batches(sizes: tuple, width: int, key) -> list:
    """(slice, value) pairs over the followers of the flat layout, one per run of consecutive
    sizes on which ``key`` gives the same value."""
    batches, start = [], 0
    for value, group in itertools.groupby(sizes, key):
        batches.append((slice(start, start + width * sum(group)), value))
        start = batches[-1][0].stop
    return batches


def _simulate_block(model: ModelSpec, gains: StrategyGains, cfg: SimConfig, sizes: tuple,
                    infos: tuple, runs: range, stream, draws: tuple, colour: tuple,
                    work: dict) -> list:
    """The runs ``runs`` at each population size of ``sizes`` under each information
    structure of ``infos``, stepped together.

    Rows are size-major, then arm-major: row ``(s * A + a) * R + k`` is run
    ``runs[k]`` at ``sizes[s]`` under ``infos[a]`` for the whole horizon.
    Aggregate quantities (leader, means, estimates, costs) hold every row.
    The followers of every size sit back to back in each work array of
    ``_work_arrays``, with room for the block's rows: a flat view of all of
    them takes the elementwise work, the products with A, B and L_brev and
    the per-follower cost terms of a step, one call each, and each size's
    view its means, its disturbances and the broadcast adds of its rows.
    A call keeps apart only what numpy would
    order otherwise for another batch shape: a size of one follower, whose
    products numpy takes as vector products rather than gemm, and a size
    whose cost terms are summed row by row (``_rowwise``: l = 2, n <= 2),
    as ``stage_cost`` sums them.  Each follower
    action is ``follower_action``'s two parts: ``follower_feedback`` once
    over every row, the product with L_brev once over every follower.  The
    (T, rows) bool mask ``seen`` holds at ``[t - 1, row]`` whether the
    row's arm observes the mean at t: each step first resets the estimates
    of the rows that observe to the mean, and the others carry the estimate
    that ``estimator_step`` propagated at the end of the last step.  The
    arms of a run at one size start from one initial draw, made by
    ``draws`` (the leader and follower draw functions); every row of a run
    reads one noise draw per t, each size its first n + 1 rows.  ``stream``
    gives the substreams and ``colour`` holds the (leader, follower) factor
    stacks.  A failed row steps on, and its entries from its ``failed_at``
    on are set to nan at the end.  Returns one record list per arm for each
    size.
    """
    T, lx, lu = model.horizon, model.state_dim, model.action_dim
    A, R = len(infos), len(runs)
    width = A * R  # the rows of one size
    rows = len(sizes) * width
    parts = [slice(s * width, (s + 1) * width) for s in range(len(sizes))]
    counts = np.repeat(np.array(sizes, dtype=float), width)  # each row's n
    states = [_layout(buffer, sizes, width, lx) for buffer in work["states"]]
    # a step sums its cost terms in the front of its next-state buffer, free until its dynamics
    terms = [_layout(buffer, sizes, width) for buffer in work["states"]]
    (uf, ufs), (df, dfs), (finite, finites), (bu, _) = (
        _layout(work[name], sizes, width, l) for name, l in (("uf", lu), ("df", lx),
                                                               ("finite", lx), ("scratch", lx)))
    scratch = work["scratch"]
    # numpy multiplies a batch of one follower as vectors, with other bits than gemm's
    products = [(part,) if several else (part, None)
                for part, several in _batches(sizes, width, lambda n: n > 1)]
    rowwise = [_batches(sizes, width, lambda n: _rowwise(n, l)) for l in (lx, lu)]

    def size_sums(views, out):
        """Each size's add.reduce over its followers, axis 1 of its view, into its rows of
        ``out``; a mean then divides every row by its n at once, as ``_mean`` divides."""
        for part, view in zip(parts, views):
            np.add.reduce(view, axis=1, out=out[part])
        return out

    x0 = np.empty((rows, lx))
    for k, run in enumerate(runs):
        for part, n, xf in zip(parts, sizes, states[0][1]):
            init_rng = stream(run, 0)
            x0[part.start + k] = draws[0](init_rng, 1)[0]
            xf[k] = draws[1](init_rng, n)
    for part, n, xf in zip(parts, sizes, states[0][1]):  # each further arm starts from that draw
        x0[part].reshape(A, R, lx)[1:] = x0[part][:R]
        xf.reshape(A, R, n, lx)[1:] = xf[:R]
    seen = np.tile(np.repeat([[info.observed(t) for info in infos] for t in range(1, T + 1)],
                             R, axis=1), len(sizes))  # (T, rows), size- then arm-major
    all_seen = seen.all(axis=1)
    live = range(R)  # the runs still stepping at some size and arm: one draw each per t
    z = work["z"][:R]  # row 0 leader noise, rows 1.. follower noise
    tops = {n > 1: n for n in sorted(sizes)}  # the largest size of one follower and of several

    series = {name: np.empty((rows, T, dim)) for name, dim in (
        ("x0", lx), ("xbar", lx), ("mhat", lx), ("u0", lu), ("ubar", lu))}
    stage_costs = np.empty((rows, T))
    xis = [np.empty((width, T, n, lx)) if cfg.retain_full_states else None for n in sizes]
    failed_at = np.zeros(rows, dtype=int)  # 0 while a row's states are finite

    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflow are marked failed
        m_hat = np.broadcast_to(model.follower_init.mean(), (rows, lx))
        for t in range(1, T + 1):
            # the state buffers alternate: step t reads one and writes the next state to the other
            (xf, xfs), (xn, xns), (term, term_sizes) = (
                states[(t - 1) % 2], states[t % 2], terms[t % 2])
            xbar = np.true_divide(size_sums(xfs, np.empty((rows, lx))), counts[:, None])
            # a row that observes the mean at t resets its estimate to it
            m_hat = xbar if all_seen[t - 1] else np.where(seen[t - 1, :, None], xbar, m_hat)
            u0 = leader_action(gains, t, x0, m_hat)
            feedback = follower_feedback(gains, t, x0, m_hat)
            for batch in products:  # + a feedback never -0.0: no 0.0 pass
                rproduct(xf[batch], gains.L_brev[t - 1], out=uf[batch])
            for part, u in zip(parts, ufs):
                np.add(u, feedback[part, None, :], out=u)
            ubar = np.true_divide(size_sums(ufs, np.empty((rows, lu))), counts[:, None])
            d0, _ = _disturbances(cfg.disturbance, t, gains, x0, xbar, m_hat,
                                  list(zip(parts, xfs, dfs)))

            # each follower's x'Qx, u'Ru and d'd in turn, summed in the next-state buffer
            means = np.empty((3, rows))
            for k, (X, W, batches) in enumerate(((xf, model.Q[t - 1], rowwise[0]),
                                                 (uf, model.R[t - 1], rowwise[1]))):
                for part, by_row in batches:
                    _quad_sums(X[part], W, by_row, term[part], scratch)
                size_sums(term_sizes, means[k])
            _square_sums(df, term, scratch)
            size_sums(term_sizes, means[2])
            np.true_divide(means, counts, out=means)
            for name, value in (("x0", x0), ("xbar", xbar), ("mhat", m_hat), ("u0", u0),
                                ("ubar", ubar)):
                series[name][:, t - 1] = value
            stage_costs[:, t - 1] = _aggregate_cost(model, t, *means, x0, u0, d0, xbar, ubar)
            for x, xi in zip(xfs, xis):
                if xi is not None:
                    xi[:, t - 1] = x

            for k in live:
                stream(runs[k], t).standard_normal(out=z[k])
            f0, ff = colour[0][t - 1], colour[1][t - 1]
            # w0 is added to a state sum, never -0.0: no 0.0 pass, the + 0 of multivariate_normal
            w0 = (z[:, :1] @ f0)[:, 0]
            x0_next = (matvec(model.A0[t - 1], x0) + matvec(model.B0[t - 1], u0)
                       + matvec(model.S0[t - 1], xbar) + d0)
            by_run = x0_next.reshape(-1, R, lx)  # each size and arm of a run takes its noise
            np.add(by_run, w0, out=by_run)
            mean_drive, leader_drive = matvec(model.S[t - 1], xbar), matvec(model.E[t - 1], x0)
            ok = np.logical_and.reduce(np.isfinite(x0_next), axis=1)
            for batch in products:  # B u is added to the normalised A x: no 0.0 pass
                rmatmul(xf[batch], model.A[t - 1], out=xn[batch])
                rproduct(uf[batch], model.B[t - 1], out=bu[batch])
            np.add(xn, bu, out=xn)
            for part, x in zip(parts, xns):
                np.add(x, mean_drive[part, None, :], out=x)
                np.add(x, leader_drive[part, None, :], out=x)
            np.add(xn, df, out=xn)
            # the noise is added to a state sum, never -0.0: no 0.0 pass
            noise = {several: rproduct(z[:, 1:top + 1], ff.T, out=w) for (several, top), w in zip(
                tops.items(), _carve(scratch, *[(R, top, lx) for top in tops.values()]))}
            for n, x in zip(sizes, xns):
                by_arm = x.reshape(A, R, n, lx)  # each arm of a run takes the run's noise
                np.add(by_arm, noise[n > 1][:, :n], out=by_arm)
            np.isfinite(xn, out=finite)
            for part, fin in zip(parts, finites):
                ok[part] &= np.logical_and.reduce(fin, axis=(1, 2))

            if not ok.all():
                failed_at[~ok & (failed_at == 0)] = t
                live = np.flatnonzero((failed_at == 0).reshape(-1, R).any(axis=0))
                if live.size == 0:
                    break

            if t < T and not all_seen[t]:
                m_hat = estimator_step(model, gains, t, x0, m_hat, cfg.use_worst_case_dbar)
            x0 = x0_next

    for row in np.flatnonzero(failed_at):  # a failed row reads nan from its failed_at on
        size, local = divmod(row, width)
        for arr in (*series.values(), stage_costs):
            arr[row, failed_at[row]:] = np.nan
        if xis[size] is not None:
            xis[size][local, failed_at[row]:] = np.nan
    records = [
        TrajectoryRecord(
            run=runs[row % R], **{name: arr[row] for name, arr in series.items()},
            stage_costs=stage_costs[row],
            xi=None if xis[row // width] is None else xis[row // width][row % width],
            failed_at=int(failed_at[row]) or None)
        for row in range(rows)
    ]
    return [[records[first:first + R] for first in range(part.start, part.stop, R)]
            for part in parts]


def simulate(model: ModelSpec, gains: StrategyGains, cfg: SimConfig,
             arms: tuple | None = None, sizes=None) -> list:
    """All runs, in run-index order, in blocks of at most BLOCK_STATES follower states.

    With ``arms``, a sequence of information structures that replaces
    ``cfg.info``, every run is simulated under each of them from the same
    draws, and the result is one record list per arm, each bit for bit
    what ``simulate`` gives with that arm as ``cfg.info``.  With ``sizes``,
    a sequence of population sizes that replaces ``model.n_followers``, the
    result is one entry per size, each bit for bit what ``simulate`` gives
    on ``replace(model, n_followers=n)``; the sizes of a run share its noise
    draw at each t.  A block holds every size and arm of its runs and counts
    the follower states of all of them.  Every block reuses one set of work
    arrays.  Gains of another horizon or other dimensions than ``model``'s
    are a ModelError, and so are an observation time past its horizon, an
    empty ``arms`` or ``sizes``, an arm that is not an InfoStructure (named
    by its index) and a size that is not an integer >= 1 or that the
    model's deterministic follower list does not fit.
    """
    infos = (cfg.info,) if arms is None else tuple(arms)
    if not infos:
        raise ModelError("arms must hold at least one information structure")
    for k, info in enumerate(infos):
        if not isinstance(info, InfoStructure):
            raise ModelError(f"arms[{k}] must be an InfoStructure, got {info!r}")
    counts = ((model.n_followers,) if sizes is None
              else tuple(_count(f"sizes[{k}]", n, 1) for k, n in enumerate(sizes)))
    if not counts:
        raise ModelError("sizes must hold at least one population size")
    lx = model.state_dim
    if model.follower_init.kind == "deterministic":
        for n in counts:
            _check_init(model.follower_init, "follower_init", lx, (1, n))
    _check_gains(model, gains)
    late = sorted(t for info in infos for t in info.observation_times or () if t > model.horizon)
    if late:
        raise ModelError(f"observation time {late[0]} is past the horizon {model.horizon}")
    runs = range(cfg.num_runs)
    stream = _substreams(cfg.master_seed, runs, model.horizon)
    draws = _initial_draw(model.leader_init), _initial_draw(model.follower_init)
    colour = _colouring(model.noise_leader), _colouring(model.noise_follower)
    per_block = min(cfg.num_runs, max(1, BLOCK_STATES // (len(infos) * sum(counts))))
    work = _work_arrays(counts, lx, model.action_dim, len(infos), per_block)
    records = [[[] for _ in infos] for _ in counts]
    for first in range(0, cfg.num_runs, per_block):
        block = _simulate_block(model, gains, cfg, counts, infos, runs[first:first + per_block],
                                stream, draws, colour, work)
        for size, size_part in zip(records, block):
            for arm, part in zip(size, size_part):
                arm += part
    by_size = [size[0] if arms is None else size for size in records]
    return by_size[0] if sizes is None else by_size


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
