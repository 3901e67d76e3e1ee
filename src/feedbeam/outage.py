"""Monte Carlo SINR / outage estimation for the data-transmission phase.

After training, all M groups transmit concurrently; destination i sees its
own combined amplitude plus M-1 interference terms. This module estimates
P((1/2) log2(1 + SINR) < R) over random channel draws and compares it with
the closed-form bound, and probes how the interference power scales with N.

Two weight modes are supported: ``trained`` runs the actual training
algorithm, ``idealized`` starts from sign(h) with exactly round(epsilon_o * N)
uniformly chosen sources reversed per group, the premise of the bound.
Outage reduces each trial to link 0's two sufficient statistics: its own
amplitude s, from one-group ``training.network_chunk`` networks that train
in trained mode only, and its interference power y, one N * chi^2_{M-1}
draw per trial under ``chunk/{c}/cross``, where the probe draws its cross
channels too. SINR comes from them by one formula, ``_sinr``. ``plan_outage``
refuses an outage run before any draw, and the probe plans every N first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import outage_bound
from .channel import ChannelRealization, link_amplitudes
from .config import NetworkConfig
from .errors import ConfigError, DimensionError, DomainError, InfeasibleEpsilonError
from .rng import RandomStream
from .special import clopper_pearson
from .training import EnsembleResult, map_networks, plan_networks

__all__ = [
    "WEIGHTS_MODES",
    "OutageResult",
    "sinr",
    "estimate_outage",
    "ProbeRow",
    "ProbeResult",
    "interference_scaling_probe",
]

WEIGHTS_MODES = ("trained", "idealized")


@dataclass(frozen=True)
class OutageResult:
    """Empirical outage of link 0 at one rate, with the analytic bound: one row of ``outage``.

    ``mode`` is the weights mode, one of ``WEIGHTS_MODES``. A bound that
    ``outage_bound`` does not admit is NaN. ``stderr`` is the plug-in
    binomial standard error, 0 when no trial or every trial is in outage;
    ``ci_low``/``ci_high`` bound the outage probability with the exact
    (Clopper-Pearson) 95 % interval, which stays informative there.
    """

    N: int
    M: int
    epsilon_o: float
    delta: float
    rate: float
    trials: int
    outage_empirical: float
    stderr: float
    bound_finite: float
    bound_asymptotic: float
    mode: str
    ci_low: float
    ci_high: float


def sinr(
    channels: ChannelRealization, weights: np.ndarray, i: int, config: NetworkConfig
) -> float:
    """Exact SINR of link i (0-based) for given +-1 weights of all groups.

    SINR_i = (P/N) (h[i,i,:] . w[i])^2 /
             (sum_{r != i} (P/N) (h[i,r,:] . w[r])^2 + N_o).
    """
    w = np.asarray(weights, dtype=float)
    if not channels.matches(config):
        raise DimensionError("channel tensor does not match config")
    if w.shape != (config.M, config.N):
        raise DimensionError(f"weights must have shape ({config.M}, {config.N}), got {w.shape}")
    if not np.all(np.abs(w) == 1.0):
        raise DimensionError("weights entries must be exactly -1 or +1")
    if not 0 <= i < config.M:
        raise DimensionError(f"link index {i} out of range for M={config.M}")
    c = link_amplitudes(channels.h[i : i + 1], w)[0]
    return float(_sinr(c[i], np.sum(c**2) - c[i] ** 2, config))


def _sinr(signal, interference, config: NetworkConfig):
    """SINR from the signal amplitude and the interference power sum_{r != i} c_r^2,
    with c_r = h[i, r, :] . w[r] the amplitude of group r at destination i."""
    scale = config.P / config.N
    return scale * signal**2 / (scale * interference + config.N_o)


def _outage_count(
    rate: float,
    M: int,
    config: NetworkConfig,
    h: np.ndarray,
    trained: EnsembleResult | None,
    sub: RandomStream,
) -> int:
    """Trials of one chunk of one-group networks whose link 0, among M groups, is in outage.

    A chunk that trains nothing (idealized weights) gets ``h`` as row blocks
    (see ``training._normal_blocks``), each reduced to its own-link amplitudes in place.
    """
    if trained is None:
        k = config.reverse_count
        # A uniform k-subset of the iid |h_j|, chosen apart from h, has the law of the first k.
        s = np.concatenate([_idealized_amplitude(block[:, 0, 0, :], k) for block in h])
    else:
        s = trained.final_gain
    # Group r's weights depend only on h[r, r, :] and its own training, both
    # independent of h[0, r, :], and negating N(0, 1) entries keeps them N(0, 1):
    # so c[0, r] = h[0, r, :] . w[r] is N(0, N) for r != 0, iid and apart from s,
    # and y = sum_{r != 0} c[0, r]^2 is N chi^2_{M-1}, a gamma((M - 1) / 2, 2N) draw.
    # Shape 0 (M = 1) gives exact zeros, where chisquare would refuse df = 0.
    gen = sub.child("cross").generator()
    y = 2.0 * config.N * gen.standard_gamma((M - 1) / 2.0, s.size)
    threshold = 2.0 ** (2.0 * rate) - 1.0
    return int(np.count_nonzero(_sinr(s, y, config) < threshold))


def plan_outage(config: NetworkConfig, mode: str) -> list[int]:
    """The chunk sizes of an ``estimate_outage`` run, refused before any draw:
    its one-group networks (``training.plan_networks``)."""
    if mode not in WEIGHTS_MODES:
        raise ConfigError(f"weights mode must be one of {WEIGHTS_MODES}, got {mode!r}")
    return plan_networks(config.replace(M=1), mode == "trained")


def _idealized_amplitude(h: np.ndarray, k: int) -> np.ndarray:
    """sum_j |h_j| - 2 sum_{j < k} |h_j| per row: sign(h) weights with k sources reversed.

    Takes |h| in place, overwriting ``h``.
    """
    a = np.abs(h, out=h)
    return a.sum(axis=1) - 2.0 * a[:, :k].sum(axis=1)


def estimate_outage(
    config: NetworkConfig,
    rate: float,
    mode: str,
    stream: RandomStream,
    workers: int = 1,
) -> OutageResult:
    """Estimate P((1/2) log2(1 + SINR) < rate) over ``config.trials`` draws.

    By link symmetry only link 0 is evaluated, from its own amplitude and one
    interference power draw per trial (see ``_outage_count``). The matching
    finite-N and asymptotic bounds are attached when ``outage_bound`` admits
    the configuration, NaN otherwise.
    """
    if not rate > 0:
        raise DomainError(f"rate must be > 0, got {rate!r}")
    plan_outage(config, mode)
    count_chunk = partial(_outage_count, rate, config.M)
    parts = map_networks(count_chunk, config.replace(M=1), stream, mode == "trained", workers)
    count = sum(parts)
    p_hat = count / config.trials
    ci_low, ci_high = clopper_pearson(count, config.trials)

    # The analytic bound needs N >= 25, a feasible epsilon_o, and k1 > k2 at
    # this finite N; the empirical estimate stands on its own otherwise.
    try:
        report = outage_bound(config.N, config)
        bound_finite, bound_asym = report.bound_finite, report.bound_asymptotic
    except (DomainError, InfeasibleEpsilonError):
        bound_finite = bound_asym = float("nan")

    return OutageResult(
        N=config.N,
        M=config.M,
        epsilon_o=config.epsilon_o,
        delta=config.delta,
        rate=rate,
        trials=config.trials,
        outage_empirical=float(p_hat),
        stderr=float(math.sqrt(p_hat * (1.0 - p_hat) / config.trials)),
        bound_finite=bound_finite,
        bound_asymptotic=bound_asym,
        mode=mode,
        ci_low=ci_low,
        ci_high=ci_high,
    )


@dataclass(frozen=True)
class ProbeRow:
    """Interference statistics at one block size N."""

    N: int
    trials: int
    mean_sq: float          # E |sum_j h_j * w_j|^2, cross channel vs trained weights
    control_sq: float       # E |sum_j h_j|^2 = N, control with all-ones weights
    sample_mean: float      # E [h_j * w_j], should vanish by sign symmetry


@dataclass(frozen=True)
class ProbeResult:
    rows: list[ProbeRow]
    slope: float


def _probe_sums(
    config: NetworkConfig, h: np.ndarray, trained: EnsembleResult, sub: RandomStream
) -> tuple[float, float, float]:
    """Sums over one chunk of single-group networks seen through a cross channel."""
    w = trained.weights[:, np.newaxis]
    cross = sub.child("cross").generator().standard_normal(h.shape)
    v = link_amplitudes(cross, w)
    ctrl = cross.sum(axis=-1)
    return float(np.sum(v**2)), float(np.sum(ctrl**2)), float(np.sum(cross[:, 0] * w))


def interference_scaling_probe(
    config: NetworkConfig,
    N_list: list[int],
    stream: RandomStream,
    workers: int = 1,
) -> ProbeResult:
    """Measure E |sum_j h_j w_j|^2 for trained weights against independent
    cross channels over a range of N and fit the log-log slope.

    The trained weights are independent of the cross channel and sign
    changes preserve the N(0, 1) law, so the expectation equals N and the
    fitted slope should be 1.
    """
    if not N_list:
        raise ConfigError("N_list must be nonempty")
    if len(set(N_list)) < len(N_list):
        raise ConfigError(f"N_list entries must be distinct, got {list(N_list)!r}")
    points = [config.replace(M=1, N=int(n)) for n in N_list]
    for cfg in points:  # every point is planned before any draw
        plan_networks(cfg, True)
    rows = []
    for cfg in points:
        parts = map_networks(_probe_sums, cfg, stream.child(f"N/{cfg.N}"), True, workers)
        means = np.sum(parts, axis=0) / [cfg.trials, cfg.trials, cfg.trials * cfg.N]
        rows.append(ProbeRow(cfg.N, cfg.trials, *means.tolist()))
    slope = float(
        np.polyfit(np.log([r.N for r in rows]), np.log([r.mean_sq for r in rows]), 1)[0]
    ) if len(rows) >= 2 else float("nan")
    return ProbeResult(rows=rows, slope=slope)
