"""Three-step iterative distributed beamforming and the M-block scheduler.

One group of N sources learns sign weights for its own channel from a
single feedback bit per frame:

* Step 1 (frame 0): all weights +1, the destination measures and stores the
  received level L_max.
* Step 2 (frames 1 .. k_o*N - 1): each source independently flips its
  auxiliary weight with probability 1/N, the destination measures the
  resulting level and broadcasts whether it beat L_max; on improvement all
  sources keep the perturbed weights and L_max is raised.
* Step 3: the auxiliary weights at the last frame become the final weights.

Groups train sequentially, one block of k_o*N frames each, while all other
groups stay silent, so a network training run is M independent group runs.

``train_ensemble`` is the one training kernel: it runs B independent
trainings of the same shape in frame lockstep, and ``train_network`` is one
call of it over a network's M own links. The flip proposals form an iid
Bernoulli(1/N) field over (frame, trial, source) cells. The kernel draws
only the flipped cells, as geometric gaps between successive flips over the
flat cell index (Devroye, Non-Uniform Random Variate Generation, 1986,
ch. X), so a frame costs O(B + flips) instead of O(B*N): the level change
of a proposal is -2 * sum over its flipped sources of h_j * alpha_j. The
kernel keeps h * alpha itself and negates it in place at accepted cells, so
a frame is a few numpy calls on O(B + flips) elements, and the weights are
read from its signs at the end.
The exact Markov chain in ``markov`` is the independent check of this law.

Monte Carlo runs over random networks share one plan, ``plan_networks``,
which sizes their chunks and refuses a run before any draw, and one chunk
primitive, ``network_chunk``, with a reducer per command. A chunk trains the
own links of all its networks in one ``train_ensemble`` call, as
``train_network`` does for one network, or trains nothing and draws its
channels in row blocks of one small buffer.
``ensemble_gain_stats`` draws no networks and keeps its own chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .channel import ChannelRealization
from .config import NetworkConfig
from .errors import ConfigError, DimensionError
from .rng import RandomStream
from .util import TRAJ_CHUNK, TRIAL_CHUNK, check_bytes, chunk_sizes, map_chunks

__all__ = [
    "EnsembleResult",
    "train_network",
    "train_ensemble",
    "run_convergence",
    "ensemble_gain_stats",
]

# Expected flips per block of frames drawn at once. A frame holds B expected
# flips, so a block spans max(1, FLIP_BLOCK // B) frames and its index arrays
# stay near 64 kB each unless B alone is larger.
FLIP_BLOCK = 8192

# Bytes of the one buffer that a chunk training nothing draws its channels
# into, a block of rows at a time (at least one row per block).
SLICE_BYTES = 1 << 20

# reduce(config, h, trained, chunk stream) -> one chunk's result; see network_chunk.
Reducer = Callable[
    [NetworkConfig, "np.ndarray | Iterator[np.ndarray]", "EnsembleResult | None", RandomStream], Any
]


def _pilot_scale(config: NetworkConfig) -> float:
    return (config.P / config.N) ** 0.5


def _flip_cells(gen: np.random.Generator, n_cells: int, n: int) -> np.ndarray:
    """Sorted flat indices of the flipped cells among ``n_cells`` cells.

    Each cell flips independently with probability 1/n. The gaps between
    successive flips are iid geometric(1/n), so their cumulative sums give
    exactly the flipped cells of that Bernoulli field, each once, in
    O(flips) draws. Gaps are drawn in batches until one passes the last
    cell; the draws past it are discarded, which leaves later calls
    independent of this one.
    """
    p = 1.0 / n
    expected = n_cells * p
    size = int(expected + 4.0 * expected**0.5) + 16
    pos = np.cumsum(_gaps(gen, p, size)) - 1
    while pos[-1] < n_cells:
        pos = np.concatenate((pos, pos[-1] + np.cumsum(_gaps(gen, p, size))))
    return pos[: np.searchsorted(pos, n_cells)]


def _gaps(gen: np.random.Generator, p: float, size: int) -> np.ndarray:
    """``gen.geometric(p, size)``, the same draws from the same stream.

    Below p = 1/3 numpy's geometric is ceil(E / -log1p(-p)) of one standard
    exponential E per draw, and the same formula on a vector of exponentials
    is about twice as fast at the kernel's ~8k draws per block. The scale
    comes from ``math.log1p``, the C library's log1p that numpy calls, not
    from a vectorized ufunc loop. From p = 1/3 on, numpy searches instead, so
    its geometric is kept there.
    """
    if p >= 1.0 / 3.0:
        return gen.geometric(p, size)
    gaps = gen.standard_exponential(size)
    gaps /= -math.log1p(-p)
    return np.ceil(gaps, out=gaps).astype(np.int64)


@dataclass
class EnsembleResult:
    """B independent training blocks run in lockstep (one group each).

    ``weights`` is (B, N), ``final_gain`` the true combined amplitude per
    row at the last frame. Trace arrays are (B, n_frames), column t holding
    frame t, and present only when recording was requested: ``gain`` is the
    true combined amplitude sum_j h_j * alpha_j after frame t's update
    (frame 0 is initialization), ``aligned_count`` the number of sources
    with h_j * alpha_j > 0, held in ``np.min_scalar_type(N)``, and
    ``accepted`` whether frame t's proposal was kept (False at t = 0, where
    nothing is proposed).
    """

    weights: np.ndarray
    final_gain: np.ndarray
    gain: np.ndarray | None = None
    aligned_count: np.ndarray | None = None
    accepted: np.ndarray | None = None


def train_ensemble(
    H: np.ndarray,
    config: NetworkConfig,
    stream: RandomStream,
    n_frames: int | None = None,
    record_trace: bool = False,
) -> EnsembleResult:
    """Train B trials with per-trial channels H (B, N) in frame lockstep.

    Flipped cells come from ``stream.child("perturb")`` (see
    ``_flip_cells``), drawn ahead in blocks of frames since proposals never
    depend on the state; noisy-mode estimation errors come from
    ``stream.child("noise")``, B normals at initialization and B per frame.
    The kernel keeps S = H * A for the weights A and negates the entries of
    S that an accepted proposal flips, so a proposal's level change is
    -2 * (its sum over S); perfect mode keeps it when that sum is negative.
    With ``record_trace`` every frame is recorded, frame t in column t;
    the gains are kept incrementally, only when noisy estimation or the
    trace reads them, while ``final_gain`` is recomputed from S, free of
    accumulated rounding.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[1] != config.N:
        raise DimensionError(f"H must have shape (B, {config.N}), got {H.shape}")
    B, N = H.shape
    total = config.block_frames if n_frames is None else int(n_frames)
    if total < 1:
        raise ConfigError(f"need at least one frame, got {total}")

    gen_u = stream.child("perturb").generator()
    noisy = config.estimation_mode == "noisy"
    gen_w = stream.child("noise").generator() if noisy else None
    scale = _pilot_scale(config)
    sigma = config.estimate_std

    # S = H * A for the current weights A = +-1: an accepted flip negates its cell of S.
    S = H.copy()
    s_flat = S.reshape(-1)
    gain = H.sum(axis=1)
    best = scale * gain
    if noisy:
        best = best + sigma * gen_w.standard_normal(B)

    rec_gain = rec_aligned = rec_accepted = None
    if record_trace:
        rec_gain = np.empty((B, total))
        # Stored in the narrowest type that holds 0..N; `aligned` stays signed, so no update wraps.
        rec_aligned = np.empty((B, total), dtype=np.min_scalar_type(N))
        rec_accepted = np.zeros((B, total), dtype=bool)
        aligned = (H > 0).sum(axis=1)
        rec_gain[:, 0] = gain
        rec_aligned[:, 0] = aligned

    # Perfect mode reads no gain until the end, where final_gain recomputes it.
    track_gain = noisy or record_trace
    frame_cells = B * N
    block = max(1, FLIP_BLOCK // max(B, 1))
    for t0 in range(1, total, block):
        n_block = min(block, total - t0)
        cells = _flip_cells(gen_u, n_block * frame_cells, N)
        bounds = np.searchsorted(cells, np.arange(n_block + 1) * frame_cells).tolist()
        cells %= frame_cells
        rows = cells // N
        for k in range(n_block):
            lo, hi = bounds[k], bounds[k + 1]
            cell, row = cells[lo:hi], rows[lo:hi]
            ha = s_flat[cell]
            tot = np.bincount(row, weights=ha, minlength=B)
            if track_gain:
                delta = -2.0 * tot
            if noisy:
                level = scale * (gain + delta) + sigma * gen_w.standard_normal(B)
                acc = level > best
                best = np.where(acc, level, best)
            else:
                # Equals delta > 0 for every float: the factor -2 is exact.
                acc = tot < 0.0
            if track_gain:
                gain = np.where(acc, gain + delta, gain)
            hit = acc[row]
            s_flat[cell[hit]] *= -1.0
            if record_trace:
                # A flipped source leaves alignment if h*a was > 0 and joins if < 0.
                aligned -= np.bincount(row[hit], weights=np.sign(ha[hit]), minlength=B).astype(
                    aligned.dtype
                )
                rec_gain[:, t0 + k] = gain
                rec_aligned[:, t0 + k] = aligned
                rec_accepted[:, t0 + k] = acc

    # S is +-H entry by entry, so a weight is -1 exactly where the sign bits differ, zeros too.
    return EnsembleResult(
        weights=np.where(np.signbit(S) != np.signbit(H), -1.0, 1.0),
        final_gain=S.sum(axis=1),
        gain=rec_gain,
        aligned_count=rec_aligned,
        accepted=rec_accepted,
    )


def train_network(
    channels: ChannelRealization, config: NetworkConfig, stream: RandomStream
) -> EnsembleResult:
    """Train all M groups, group i on its own links h[i, i, :] only.

    The groups' blocks are independent, so one lockstep ``train_ensemble``
    call over the M own links runs them all, with every frame recorded:
    ``weights`` is (M, N) and each trace (M, k_o*N), row i holding group
    i's block (M * k_o * N frames in total).
    """
    if not channels.matches(config):
        raise DimensionError(
            f"channel tensor {channels.h.shape} does not match config "
            f"(M={config.M}, N={config.N})"
        )
    m = np.arange(config.M)
    return train_ensemble(channels.h[m, m, :], config, stream, record_trace=True)


def _normal_blocks(
    gen: np.random.Generator, size: int, shape: tuple[int, ...]
) -> Iterator[np.ndarray]:
    """``gen.standard_normal((size, *shape))`` as consecutive blocks of rows.

    Every block is drawn into the same buffer of at most SLICE_BYTES (one
    row if a row alone is larger), so a block is valid until the next one is
    drawn. Philox draws in sequence equal one draw of their total, so the
    blocks hold exactly the rows of the whole-tensor draw.
    """
    rows = max(1, SLICE_BYTES // (8 * math.prod(shape)))
    buf = np.empty((min(rows, size), *shape))
    for lo in range(0, size, rows):
        block = buf[: min(rows, size - lo)]
        gen.standard_normal(out=block)
        yield block


def network_chunk(
    reduce: Reducer,
    config: NetworkConfig,
    stream: RandomStream,
    chunk_index: int,
    size: int,
    train: bool,
    record_trace: bool,
) -> Any:
    """Draw one chunk of networks, train their own links if ``train``, and reduce them.

    Chunk c draws its (size, M, M, N) channel tensor from
    ``chunk/{c}/channels``. Training is one lockstep ``train_ensemble`` call
    from ``chunk/{c}/train`` over the size * M own links, row t * M + i
    holding trial t's group i, for one full block each, recording every
    frame iff ``record_trace``. ``reduce(config, h, trained, sub)`` runs in
    the same process, so only its result crosses back from a worker;
    ``sub`` is the ``chunk/{c}`` stream, for draws of the reducer's own.

    A chunk that trains nothing never holds its whole tensor: ``h`` is then
    an iterator over its consecutive row blocks (see ``_normal_blocks``), which
    the reducer may overwrite, and ``trained`` is None.
    """
    sub = stream.child(f"chunk/{chunk_index}")
    gen = sub.child("channels").generator()
    shape = (config.M, config.M, config.N)
    if not train:
        return reduce(config, _normal_blocks(gen, size, shape), None, sub)
    h = gen.standard_normal((size, *shape))
    # The own links h[:, i, i, :] are every (M + 1)-th of the M * M links: a view at M = 1.
    H = h.reshape(size, -1, config.N)[:, :: config.M + 1].reshape(-1, config.N)
    trained = train_ensemble(H, config, sub.child("train"), record_trace=record_trace)
    return reduce(config, h, trained, sub)


def plan_networks(config: NetworkConfig, train: bool, record_trace: bool = False) -> list[int]:
    """The chunk sizes that ``map_networks`` runs, refused before any draw.

    Trials that train take TRIAL_CHUNK per chunk, others TRAJ_CHUNK, and
    ``chunk_sizes`` refuses too many chunks. The largest chunk's channels,
    (size, M, M, N) doubles, and with ``record_trace`` its traces, per group,
    trial and frame 8 bytes of gain, one of acceptance and the itemsize of
    ``np.min_scalar_type(N)`` for the aligned count (one byte up to N = 255),
    take at most CHUNK_BYTES_LIMIT together.
    Not counted: training's ``S``, (size * M, N) doubles, the copy of the own
    links it trains on, as large but made only at M >= 2, and the probe's
    cross draw, which has the shape of the channels.
    """
    chunk = TRIAL_CHUNK if train else TRAJ_CHUNK
    largest = min(chunk, config.trials)
    nbytes = largest * config.M**2 * config.N * 8
    if record_trace:
        per_frame = 8 + np.min_scalar_type(config.N).itemsize + 1
        nbytes += largest * config.M * config.block_frames * per_frame
    what = "channels and traces" if record_trace else "channels"
    check_bytes(nbytes, f"a chunk's {what} at N={config.N} take")
    return chunk_sizes(config.trials, chunk)


def map_networks(
    reduce: Reducer,
    config: NetworkConfig,
    stream: RandomStream,
    train: bool,
    workers: int = 1,
    record_trace: bool = False,
) -> list:
    """``network_chunk`` over ``config.trials`` networks, one result per chunk.

    The chunks are those of ``plan_networks``, which refuses a run first. A
    chunk that trains draws its channels at once, one that trains nothing
    draws them in row blocks.

    ``reduce`` must be picklable (a module-level function or a partial of
    one) so that chunks can run on a process pool.
    """
    sizes = plan_networks(config, train, record_trace)
    tasks = [
        (reduce, config, stream, c, size, train, record_trace) for c, size in enumerate(sizes)
    ]
    return map_chunks(network_chunk, tasks, workers)


@dataclass
class ConvergenceResult:
    """Traces of ``trials`` network training runs over random channels.

    Arrays are indexed (trial, group, frame); ``abs_sum`` holds
    sum_j |h_j| per (trial, group), the gain ceiling.
    """

    gain: np.ndarray
    aligned_count: np.ndarray
    accepted: np.ndarray
    abs_sum: np.ndarray


def _traces(
    config: NetworkConfig, h: np.ndarray, trained: EnsembleResult, sub: RandomStream
) -> tuple[np.ndarray, ...]:
    """One chunk's ``ConvergenceResult`` fields, in field order."""
    m = np.arange(config.M)
    shape = (h.shape[0], config.M, -1)
    return (
        trained.gain.reshape(shape),
        trained.aligned_count.reshape(shape),
        trained.accepted.reshape(shape),
        np.abs(h[:, m, m, :]).sum(axis=2),
    )


def run_convergence(
    config: NetworkConfig, stream: RandomStream, workers: int = 1
) -> ConvergenceResult:
    """Train ``config.trials`` random networks and trace every frame of each block.

    A one-chunk run returns that chunk's arrays, views of the kernel's own.
    A run of several chunks copies each chunk into its rows of arrays sized
    for the run and drops it once copied: the run's arrays fill as the
    chunks are freed, so its peak is near its traces plus one chunk, not
    twice its traces.
    """
    parts = map_networks(_traces, config, stream, True, workers, record_trace=True)
    if len(parts) == 1:
        return ConvergenceResult(*parts[0])
    out = [np.empty((config.trials, *a.shape[1:]), a.dtype) for a in parts[0]]
    lo = 0
    for c, chunk in enumerate(parts):
        parts[c] = None
        size = len(chunk[0])
        for dst, src in zip(out, chunk):
            dst[lo : lo + size] = src
        lo += size
    return ConvergenceResult(*out)


def _gain_stats_chunk(
    h: np.ndarray,
    config: NetworkConfig,
    stream: RandomStream,
    chunk_index: int,
    size: int,
    t_list: tuple[int, ...],
) -> np.ndarray:
    n_frames = max(t_list) + 1
    H = np.broadcast_to(h, (size, h.size))
    res = train_ensemble(
        H, config, stream.child(f"chunk/{chunk_index}"), n_frames=n_frames, record_trace=True
    )
    return res.gain[:, list(t_list)].sum(axis=0)


def ensemble_gain_stats(
    h: np.ndarray,
    t_list: list[int],
    config: NetworkConfig,
    stream: RandomStream,
    workers: int = 1,
) -> np.ndarray:
    """Monte Carlo mean of the gain at given frames.

    Runs ``config.trials`` training trajectories for one fixed channel
    vector and returns the mean gain at each frame of ``t_list``: each chunk
    returns its sums, divided once by ``config.trials``. Used to check the
    simulator against the exact chain, whose own standard deviation gives
    the tolerance: the sample one collapses once every trajectory is absorbed.
    An empty ``t_list`` or a negative frame is refused before any draw.
    """
    h = np.asarray(h, dtype=float)
    tl = tuple(int(t) for t in t_list)
    if not tl:
        raise ConfigError("t_list must name at least one frame")
    if min(tl) < 0:
        raise ConfigError(f"t must be >= 0, got {min(tl)}")
    tasks = [
        (h, config, stream, c, size, tl)
        for c, size in enumerate(chunk_sizes(config.trials, TRAJ_CHUNK))
    ]
    return np.sum(map_chunks(_gain_stats_chunk, tasks, workers), axis=0) / config.trials
