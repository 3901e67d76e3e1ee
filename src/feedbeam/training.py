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

``train_ensemble`` is the one training kernel: it runs B trials of the same
shape in frame lockstep, and ``train_group`` / ``train_network`` call it at
B = 1. The flip proposals form an iid Bernoulli(1/N) field over (frame,
trial, source) cells. The kernel draws only the flipped cells, as geometric
gaps between successive flips over the flat cell index (Devroye, Non-Uniform
Random Variate Generation, 1986, ch. X), so a frame costs O(B + flips)
instead of O(B*N): the level change of a proposal is -2 * sum over its
flipped sources of h_j * alpha_j, and only accepted cells are touched. The
exact Markov chain in ``markov`` is the independent check of this law.

Monte Carlo runs over random networks share one chunk primitive,
``network_chunk``, with a reducer per command. ``ensemble_gain_stats``
draws no networks and keeps its own chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .channel import ChannelRealization
from .config import NetworkConfig
from .errors import ConfigError, DimensionError
from .rng import RandomStream
from .util import TRAJ_CHUNK, TRIAL_CHUNK, chunk_sizes, map_chunks

__all__ = [
    "TrainingTrace",
    "EnsembleResult",
    "train_group",
    "train_network",
    "train_ensemble",
    "run_convergence",
    "run_group_final_gains",
    "ensemble_gain_stats",
]

# Expected flips per block of frames drawn at once. A frame holds B expected
# flips, so a block spans max(1, FLIP_BLOCK // B) frames and its index arrays
# stay near 64 kB each unless B alone is larger.
FLIP_BLOCK = 8192

# reduce(config, h, trained, chunk stream) -> one chunk's result; see network_chunk.
Reducer = Callable[[NetworkConfig, np.ndarray, list["EnsembleResult"], RandomStream], Any]


@dataclass
class TrainingTrace:
    """Per-frame history of one training block.

    gain[t] is the true combined amplitude sum_j h_j * alpha_hat_j after the
    frame-t update (frame 0 is initialization), aligned_count[t] the number
    of sources with h_j * alpha_hat_j > 0, accepted[t] whether frame t's
    perturbation was accepted (False at t = 0, where nothing is proposed).
    With decimation d only every d-th frame is stored; ``frames`` holds the
    stored frame indices.
    """

    frames: np.ndarray
    gain: np.ndarray
    aligned_count: np.ndarray
    accepted: np.ndarray


def _pilot_scale(config: NetworkConfig) -> float:
    return (config.P / config.N) ** 0.5


def _require_length(h_group: np.ndarray, n: int) -> np.ndarray:
    h = np.asarray(h_group, dtype=float)
    if h.ndim != 1 or h.shape[0] != n:
        raise DimensionError(f"expected a length-{n} channel vector, got shape {h.shape}")
    return h


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
    pos = np.cumsum(gen.geometric(p, size)) - 1
    while pos[-1] < n_cells:
        pos = np.concatenate((pos, pos[-1] + np.cumsum(gen.geometric(p, size))))
    return pos[: np.searchsorted(pos, n_cells)]


def train_group(
    h_group: np.ndarray, config: NetworkConfig, stream: RandomStream
) -> tuple[np.ndarray, TrainingTrace]:
    """Run one full training block and return the final weights plus trace.

    Frame 0 initializes, frames 1 .. k_o*N - 1 propose, measure and keep or
    discard; k_o*N frames are consumed in total. This is ``train_ensemble``
    at batch size 1 with every frame recorded.
    """
    h = _require_length(h_group, config.N)
    res = train_ensemble(h[np.newaxis, :], config, stream, record_trace=True)
    trace = TrainingTrace(
        frames=res.frames,
        gain=res.gain[0],
        aligned_count=res.aligned_count[0],
        accepted=res.accepted[0],
    )
    return res.weights[0], trace


def train_network(
    channels: ChannelRealization, config: NetworkConfig, stream: RandomStream
) -> tuple[np.ndarray, list[TrainingTrace]]:
    """Train all M groups sequentially (group i on block i, others silent).

    Group i trains on its own coefficients h[i, i, :] only; with per-group
    streams derived as ``stream.child("group/i")``. Returns the (M, N)
    final-weight matrix and the M block traces (M * k_o * N frames total).
    """
    if not channels.matches(config):
        raise DimensionError(
            f"channel tensor {channels.h.shape} does not match config "
            f"(M={config.M}, N={config.N})"
        )
    weights = np.empty((config.M, config.N))
    traces: list[TrainingTrace] = []
    for i in range(config.M):
        weights[i], trace = train_group(
            channels.group_channel(i), config, stream.child(f"group/{i}")
        )
        traces.append(trace)
    return weights, traces


@dataclass
class EnsembleResult:
    """Lockstep training of B independent trials (one group each).

    ``weights`` is (B, N), ``final_gain`` the true combined amplitude per
    trial at the last frame. Trace arrays are (B, n_recorded) and present
    only when recording was requested.
    """

    weights: np.ndarray
    final_gain: np.ndarray
    frames: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    gain: np.ndarray | None = None
    aligned_count: np.ndarray | None = None
    accepted: np.ndarray | None = None


def train_ensemble(
    H: np.ndarray,
    config: NetworkConfig,
    stream: RandomStream,
    n_frames: int | None = None,
    record_trace: bool = False,
    decimation: int = 1,
) -> EnsembleResult:
    """Train B trials with per-trial channels H (B, N) in frame lockstep.

    Flipped cells come from ``stream.child("perturb")`` (see
    ``_flip_cells``), drawn ahead in blocks of frames since proposals never
    depend on the state; noisy-mode estimation errors come from
    ``stream.child("noise")``, B normals at initialization and B per frame.
    Recorded gains are kept incrementally; ``final_gain`` is recomputed from
    the final weights, free of accumulated rounding.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[1] != config.N:
        raise DimensionError(f"H must have shape (B, {config.N}), got {H.shape}")
    if decimation < 1:
        raise ConfigError(f"decimation must be >= 1, got {decimation}")
    B, N = H.shape
    total = config.block_frames if n_frames is None else int(n_frames)
    if total < 1:
        raise ConfigError(f"need at least one frame, got {total}")

    gen_u = stream.child("perturb").generator()
    noisy = config.estimation_mode == "noisy"
    gen_w = stream.child("noise").generator() if noisy else None
    scale = _pilot_scale(config)
    sigma = config.estimate_std

    A = np.ones((B, N))
    a_flat = A.reshape(-1)
    gain = H.sum(axis=1)
    best = scale * gain
    if noisy:
        best = best + sigma * gen_w.standard_normal(B)

    rec_frames = np.arange(0, total, decimation)
    if record_trace:
        rec_gain = np.empty((B, rec_frames.size))
        rec_aligned = np.empty((B, rec_frames.size), dtype=np.int32)
        rec_accepted = np.zeros((B, rec_frames.size), dtype=bool)
        aligned = (H > 0).sum(axis=1)
        rec_gain[:, 0] = gain
        rec_aligned[:, 0] = aligned
    next_rec = 1

    frame_cells = B * N
    block = max(1, FLIP_BLOCK // max(B, 1))
    for t0 in range(1, total, block):
        n_block = min(block, total - t0)
        cells = _flip_cells(gen_u, n_block * frame_cells, N)
        bounds = np.searchsorted(cells, np.arange(n_block + 1) * frame_cells)
        cells %= frame_cells
        rows = cells // N
        h_cells = H[rows, cells - rows * N]
        for k in range(n_block):
            lo, hi = bounds[k], bounds[k + 1]
            cell, row = cells[lo:hi], rows[lo:hi]
            ha = h_cells[lo:hi] * a_flat[cell]
            delta = -2.0 * np.bincount(row, weights=ha, minlength=B)
            if noisy:
                level = scale * (gain + delta) + sigma * gen_w.standard_normal(B)
                acc = level > best
                best = np.where(acc, level, best)
            else:
                acc = delta > 0
            gain = np.where(acc, gain + delta, gain)
            hit = acc[row]
            a_flat[cell[hit]] *= -1.0
            if record_trace:
                # A flipped source leaves alignment if h*a was > 0 and joins if < 0.
                aligned -= np.bincount(row[hit], weights=np.sign(ha[hit]), minlength=B).astype(
                    aligned.dtype
                )
                if next_rec < rec_frames.size and t0 + k == rec_frames[next_rec]:
                    rec_gain[:, next_rec] = gain
                    rec_aligned[:, next_rec] = aligned
                    rec_accepted[:, next_rec] = acc
                    next_rec += 1

    final_gain = (H * A).sum(axis=1)
    if record_trace:
        return EnsembleResult(
            weights=A,
            final_gain=final_gain,
            frames=rec_frames,
            gain=rec_gain,
            aligned_count=rec_aligned,
            accepted=rec_accepted,
        )
    return EnsembleResult(weights=A, final_gain=final_gain)


def network_chunk(
    reduce: Reducer,
    config: NetworkConfig,
    stream: RandomStream,
    chunk_index: int,
    size: int,
    groups: Sequence[int],
    train: dict[str, Any],
) -> Any:
    """Draw one chunk of networks, train the listed groups, and reduce them.

    Chunk c draws its (size, M, M, N) channel tensor from
    ``chunk/{c}/channels`` and trains group i on its own links h[:, i, i, :]
    from ``chunk/{c}/train/group/{i}``, passing ``train`` on to
    ``train_ensemble``. ``reduce(config, h, trained, sub)`` runs in the same
    process, so only its result crosses back from a worker; ``sub`` is the
    ``chunk/{c}`` stream, for draws of the reducer's own.
    """
    sub = stream.child(f"chunk/{chunk_index}")
    h = sub.child("channels").generator().standard_normal((size, config.M, config.M, config.N))
    trained = [
        train_ensemble(h[:, i, i, :], config, sub.child(f"train/group/{i}"), **train)
        for i in groups
    ]
    return reduce(config, h, trained, sub)


def map_networks(
    reduce: Reducer,
    config: NetworkConfig,
    stream: RandomStream,
    groups: Sequence[int],
    workers: int = 1,
    chunk: int = TRIAL_CHUNK,
    **train: Any,
) -> list:
    """``network_chunk`` over ``config.trials`` networks, one result per chunk.

    ``reduce`` must be picklable (a module-level function or a partial of
    one) so that chunks can run on a process pool.
    """
    tasks = [
        (reduce, config, stream, c, size, tuple(groups), train)
        for c, size in enumerate(chunk_sizes(config.trials, chunk))
    ]
    return map_chunks(network_chunk, tasks, workers)


@dataclass
class ConvergenceResult:
    """Traces of ``trials`` network training runs over random channels.

    Arrays are indexed (trial, group, recorded frame); ``abs_sum`` holds
    sum_j |h_j| per (trial, group), the gain ceiling.
    """

    frames: np.ndarray
    gain: np.ndarray
    aligned_count: np.ndarray
    accepted: np.ndarray
    abs_sum: np.ndarray


def _traces(
    config: NetworkConfig, h: np.ndarray, trained: list[EnsembleResult], sub: RandomStream
) -> tuple[np.ndarray, ...]:
    """One chunk's ``ConvergenceResult`` fields, in field order."""
    m = np.arange(config.M)
    return (
        trained[0].frames,
        np.stack([res.gain for res in trained], axis=1),
        np.stack([res.aligned_count for res in trained], axis=1),
        np.stack([res.accepted for res in trained], axis=1),
        np.abs(h[:, m, m, :]).sum(axis=2),
    )


def run_convergence(
    config: NetworkConfig,
    stream: RandomStream,
    n_frames: int | None = None,
    decimation: int = 1,
    workers: int = 1,
) -> ConvergenceResult:
    """Train ``config.trials`` random networks and collect per-frame traces."""
    parts = map_networks(
        _traces,
        config,
        stream,
        range(config.M),
        workers,
        n_frames=n_frames,
        record_trace=True,
        decimation=decimation,
    )
    frames, *per_trial = zip(*parts)
    return ConvergenceResult(frames[0], *(np.concatenate(a, axis=0) for a in per_trial))


def _final_gains(
    config: NetworkConfig, h: np.ndarray, trained: list[EnsembleResult], sub: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    return trained[0].final_gain, np.abs(h[:, 0, 0, :]).sum(axis=1)


def run_group_final_gains(
    config: NetworkConfig, stream: RandomStream, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Final gains of ``config.trials`` single-group training runs.

    Each trial draws a fresh channel vector (a network with M = 1) and
    trains one full block; returns (final_gain, sum_j |h_j|) per trial, the
    pair needed to check the epsilon-level convergence guarantee.
    """
    gains, ceilings = zip(*map_networks(_final_gains, config.replace(M=1), stream, [0], workers))
    return np.concatenate(gains), np.concatenate(ceilings)


def _gain_stats_chunk(
    h: np.ndarray,
    config: NetworkConfig,
    stream: RandomStream,
    chunk_index: int,
    size: int,
    t_list: tuple[int, ...],
) -> tuple[int, np.ndarray, np.ndarray]:
    n_frames = max(t_list) + 1
    H = np.broadcast_to(h, (size, h.size))
    res = train_ensemble(
        H, config, stream.child(f"chunk/{chunk_index}"), n_frames=n_frames, record_trace=True
    )
    g = res.gain[:, list(t_list)]
    mean = g.mean(axis=0)
    return size, mean, ((g - mean) ** 2).sum(axis=0)


def ensemble_gain_stats(
    h: np.ndarray,
    t_list: list[int],
    n_traj: int,
    config: NetworkConfig,
    stream: RandomStream,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean and standard error of the gain at given frames.

    Runs ``n_traj`` training trajectories for one fixed channel vector and
    returns (mean, stderr) arrays aligned with ``t_list``; stderr is the
    population standard deviation over sqrt(n_traj). Per-chunk counts,
    means and squared-deviation sums are merged pairwise (Chan, Golub &
    LeVeque), which stays accurate where the mean dwarfs the spread. Used to
    check the simulator against the exact chain.
    """
    h = np.asarray(h, dtype=float)
    tl = tuple(int(t) for t in t_list)
    tasks = [
        (h, config, stream, c, size, tl)
        for c, size in enumerate(chunk_sizes(n_traj, TRAJ_CHUNK))
    ]
    parts = map_chunks(_gain_stats_chunk, tasks, workers)
    n, mean, m2 = parts[0]
    for n_b, mean_b, m2_b in parts[1:]:
        d = mean_b - mean
        n_ab = n + n_b
        mean = mean + d * (n_b / n_ab)
        m2 = m2 + m2_b + d**2 * (n * n_b / n_ab)
        n = n_ab
    return mean, np.sqrt(m2) / n
