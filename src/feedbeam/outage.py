"""Monte Carlo SINR / outage estimation for the data-transmission phase.

After training, all M groups transmit concurrently; destination i sees its
own combined amplitude plus M-1 interference terms. This module estimates
P((1/2) log2(1 + SINR) < R) over random channel draws and compares it with
the closed-form bound, and probes how the interference power scales with N.

Two weight modes are supported: ``trained`` runs the actual training
algorithm, ``idealized`` starts from sign(h) with exactly round(epsilon_o * N)
uniformly chosen sources reversed per group, the premise of the bound.
Outage draws only what link 0's SINR depends on: its own link from one-group
``training.network_chunk`` networks (group 0 trained in trained mode) and
M-1 interfering amplitudes from their exact N(0, N) law under
``chunk/{c}/cross``, where the probe draws its cross channels too. SINR
comes from link amplitudes by one formula, ``_link_sinr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import betaincinv

from .bounds import outage_bound
from .channel import ChannelRealization, link_amplitudes
from .config import NetworkConfig
from .errors import ConfigError, DimensionError, DomainError, InfeasibleEpsilonError
from .rng import RandomStream
from .training import EnsembleResult, map_networks
from .util import TRAJ_CHUNK, TRIAL_CHUNK

__all__ = [
    "WEIGHTS_MODES",
    "OutageResult",
    "clopper_pearson",
    "sinr",
    "estimate_outage",
    "ProbeRow",
    "ProbeResult",
    "interference_scaling_probe",
]

WEIGHTS_MODES = ("trained", "idealized")


@dataclass(frozen=True)
class OutageResult:
    """Empirical outage of link 0 at one rate, with the analytic bound.

    ``stderr`` is the plug-in binomial standard error, 0 when no trial or
    every trial is in outage; ``ci_low``/``ci_high`` bound the outage
    probability with the exact (Clopper-Pearson) 95 % interval, which stays
    informative there.
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
    weights_mode: str
    ci_low: float
    ci_high: float

    def to_dict(self) -> dict:
        def jsonable(x):
            return None if isinstance(x, float) and not math.isfinite(x) else x

        return {
            "N": self.N,
            "M": self.M,
            "epsilon_o": self.epsilon_o,
            "delta": self.delta,
            "rate": self.rate,
            "trials": self.trials,
            "outage_empirical": self.outage_empirical,
            "stderr": self.stderr,
            "bound_finite": jsonable(self.bound_finite),
            "bound_asymptotic": jsonable(self.bound_asymptotic),
            "mode": self.weights_mode,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            # By link symmetry only link 0 is ever evaluated.
            "link": 0,
        }


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
    return float(_link_sinr(link_amplitudes(channels.h[i : i + 1], w)[0], i, config))


def _link_sinr(c: np.ndarray, i: int, config: NetworkConfig) -> np.ndarray:
    """SINR of link i from its amplitudes c[..., r] = h[i, r, :] . w[r] of every group r."""
    scale = config.P / config.N
    signal = scale * c[..., i] ** 2
    interference = scale * (np.sum(c**2, axis=-1) - c[..., i] ** 2)
    return signal / (interference + config.N_o)


def _outage_count(
    rate: float,
    mode: str,
    M: int,
    config: NetworkConfig,
    h: np.ndarray,
    trained: list[EnsembleResult],
    sub: RandomStream,
) -> int:
    """Trials of one chunk of one-group networks whose link 0, among M groups, is in outage."""
    if mode == "idealized":
        a = np.abs(h[:, 0, 0, :])
        # A uniform k-subset of the iid |h_j|, chosen apart from h, has the law of the first k.
        s = a.sum(axis=1) - 2.0 * a[:, : config.reverse_count].sum(axis=1)
    else:
        s = link_amplitudes(h, trained[0].weights[:, np.newaxis])[:, 0, 0]
    # Group r's weights depend only on h[r, r, :] and its own training, both
    # independent of h[0, r, :], and negating N(0, 1) entries keeps them N(0, 1):
    # so c[0, r] = h[0, r, :] . w[r] is N(0, N) for r != 0, iid and apart from s.
    cross = math.sqrt(config.N) * sub.child("cross").generator().standard_normal((s.size, M - 1))
    c = np.concatenate((s[:, np.newaxis], cross), axis=1)
    threshold = 2.0 ** (2.0 * rate) - 1.0
    return int(np.count_nonzero(_link_sinr(c, 0, config) < threshold))


def clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Exact two-sided 95 % interval for a binomial proportion, k successes in n.

    The ends are the 0.025 quantile of Beta(k, n - k + 1) and the 0.975
    quantile of Beta(k + 1, n - k), with 0 at k = 0 and 1 at k = n.
    """
    low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, 0.025))
    high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 0.975))
    return low, high


def estimate_outage(
    config: NetworkConfig,
    rate: float,
    mode: str,
    stream: RandomStream,
    workers: int = 1,
) -> OutageResult:
    """Estimate P((1/2) log2(1 + SINR) < rate) over ``config.trials`` draws.

    By link symmetry only link 0 is evaluated, from its own link and M-1
    interfering amplitudes (see ``_outage_count``). The matching finite-N and
    asymptotic bounds are attached when ``outage_bound`` admits the
    configuration, NaN otherwise.
    """
    if not rate > 0:
        raise DomainError(f"rate must be > 0, got {rate!r}")
    if mode not in WEIGHTS_MODES:
        raise ConfigError(f"weights mode must be one of {WEIGHTS_MODES}, got {mode!r}")
    # Idealized trials are one SINR evaluation; trained trials run a full
    # training block, so they get much smaller work units.
    idealized = mode == "idealized"
    parts = map_networks(
        partial(_outage_count, rate, mode, config.M),
        config.replace(M=1),
        stream,
        () if idealized else [0],
        workers,
        chunk=TRAJ_CHUNK if idealized else TRIAL_CHUNK,
    )
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
        weights_mode=mode,
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
    config: NetworkConfig, h: np.ndarray, trained: list[EnsembleResult], sub: RandomStream
) -> tuple[float, float, float]:
    """Sums over one chunk of single-group networks seen through a cross channel."""
    w = trained[0].weights[:, np.newaxis]
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
    rows = []
    for n in N_list:
        cfg = config.replace(M=1, N=int(n))
        parts = map_networks(_probe_sums, cfg, stream.child(f"N/{n}"), [0], workers)
        sq = sum(p[0] for p in parts) / cfg.trials
        ctrl = sum(p[1] for p in parts) / cfg.trials
        samp = sum(p[2] for p in parts) / (cfg.trials * cfg.N)
        rows.append(
            ProbeRow(N=cfg.N, trials=cfg.trials, mean_sq=sq, control_sq=ctrl, sample_mean=samp)
        )
    slope = float(
        np.polyfit(np.log([r.N for r in rows]), np.log([r.mean_sq for r in rows]), 1)[0]
    ) if len(rows) >= 2 else float("nan")
    return ProbeResult(rows=rows, slope=slope)
