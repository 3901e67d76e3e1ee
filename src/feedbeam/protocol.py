"""Sequential vs overlapped training protocols.

In the sequential protocol exactly one group trains per block while the
others are silent. The overlapped alternative lets already-trained groups
transmit data during later groups' training blocks; the level estimates
then see interference of power sigma_I^2, and matching the estimator
variance requires stretching the frame by T_f^I / T_f = 1 + sigma_I^2/N_o.
Comparing the bits delivered over the first k_o M N T_f^I slots, the
overlapped protocol wins iff sigma_I^2 / N_o < 1 - 2/(M+1); since
sigma_I^2 grows like (i-1) P, this fails at any reasonable SNR.

sigma_I^2 at destination i is (P/N) sum_{r<i} c[i, r]^2 over the link
amplitudes of ``channel.link_amplitudes``. Its mean has a closed form,
``expected_interference_power``, so the comparison draws nothing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, link_amplitudes
from .config import NetworkConfig
from .errors import DimensionError, DomainError, StateError

__all__ = [
    "ProtocolReport",
    "interference_power",
    "frame_ratio",
    "compare_protocols",
    "expected_interference_power",
]


@dataclass(frozen=True)
class ProtocolReport:
    """Outcome of the sequential-vs-overlapped comparison."""

    sigma_I2: float
    frame_ratio: float
    condition_lhs: float      # sigma_I^2 / N_o
    condition_rhs: float      # 1 - 2/(M+1)
    modified_better: bool
    bits_modified: float
    bits_original: float


def interference_power(
    channels: ChannelRealization,
    weights: np.ndarray,
    i: int,
    config: NetworkConfig,
) -> float:
    """Interference power at destination i from the already-trained groups r < i.

    sigma_I^2 = (P/N) sum_{r<i} (sum_j h[i,r,j] * w[r,j])^2, with i 0-based
    (i = 0 has no prior groups and gets 0). ``weights`` must provide at
    least i rows.
    """
    if not channels.matches(config):
        raise DimensionError("channel tensor does not match config")
    if not 0 <= i < config.M:
        raise DimensionError(f"group index {i} out of range for M={config.M}")
    if i == 0:
        return 0.0
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] < i or w.shape[1] != config.N:
        raise StateError(
            f"weights for the {i} prior group(s) are missing: need shape (>= {i}, {config.N}), "
            f"got {w.shape}"
        )
    c = link_amplitudes(channels.h, w[:i])
    return config.P / config.N * float(np.sum(c[i] ** 2))


def expected_interference_power(config: NetworkConfig) -> float:
    """Mean sigma_I^2 over the links 1 .. M-1 that see interference: P M / 2.

    Group r trains on its own links h[r, r, :] alone, so its weights w_r are
    independent of every cross link h[i, r, :], i != r, and each amplitude
    c[i, r] = h[i, r, :] . w_r of +-1 weights is N(0, N). Link i's sigma_I^2 =
    (P/N) sum_{r<i} c[i, r]^2 then has mean exactly i P, and the mean of i P
    over i = 1 .. M-1 is P M / 2.
    """
    if config.M < 2:
        raise DomainError("interference power requires M >= 2")
    # Compared, not converted, so that an M beyond float range cannot overflow.
    if config.M > sys.float_info.max:
        raise DomainError(f"M is too large for a float, got an M of {config.M.bit_length()} bits")
    return config.P * config.M / 2.0


def frame_ratio(sigma_I2: float, N_o: float) -> float:
    """Frame stretch T_f^I / T_f = 1 + sigma_I^2 / N_o matching estimator variance."""
    if not N_o > 0:
        raise DomainError(f"N_o must be > 0, got {N_o!r}")
    if sigma_I2 < 0:
        raise DomainError(f"sigma_I2 must be >= 0, got {sigma_I2!r}")
    return 1.0 + sigma_I2 / N_o


def compare_protocols(sigma_I2: float, config: NetworkConfig, R: float) -> ProtocolReport:
    """Evaluate both protocols' throughput over the first k_o M N T_f^I slots.

    Overlapped: R k_o N T_f^I M (M-1)/2 bits (group r transmits during the
    M - r later blocks). Sequential: R k_o M^2 N (T_f^I - T_f) bits (all M
    groups transmit during the slots the overlapped protocol spends on its
    longer training). The closed-form condition sigma_I^2/N_o < 1 - 2/(M+1)
    is algebraically equivalent to bits_modified > bits_original.
    """
    if config.M < 2:
        raise DomainError("protocol comparison requires M >= 2")
    if config.M**2 > sys.float_info.max:
        raise DomainError(
            f"M^2 is too large for a float, got an M of {config.M.bit_length()} bits"
        )
    ratio = frame_ratio(sigma_I2, config.N_o)
    t_f_i = config.T_f * ratio
    bits_modified = R * config.k_o * config.N * t_f_i * config.M * (config.M - 1) / 2.0
    bits_original = R * config.k_o * config.M**2 * config.N * (t_f_i - config.T_f)
    if not (math.isfinite(bits_modified) and math.isfinite(bits_original)):
        raise DomainError(
            f"the protocols' bit counts are too large for a float, got an M of "
            f"{config.M.bit_length()} bits and sigma_I^2 = {sigma_I2:.6g}"
        )
    lhs = sigma_I2 / config.N_o
    rhs = 1.0 - 2.0 / (config.M + 1)
    return ProtocolReport(
        sigma_I2=float(sigma_I2),
        frame_ratio=float(ratio),
        condition_lhs=float(lhs),
        condition_rhs=float(rhs),
        modified_better=bool(lhs < rhs),
        bits_modified=float(bits_modified),
        bits_original=float(bits_original),
    )
