"""Real Gaussian fading channels and the scalar |h| statistics used everywhere.

The network has M groups of N sources. ``h[i, r, j]`` is the flat-fading
coefficient from source j of group r to destination i; all entries are
i.i.d. standard normal and stay fixed for the whole training plus data
transmission interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .errors import DimensionError
from .rng import RandomStream

__all__ = ["ChannelRealization", "generate_channels", "link_amplitudes", "abs_moment"]


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the full M x M x N fading tensor."""

    h: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 3 or h.shape[0] != h.shape[1]:
            raise DimensionError(f"channel tensor must have shape (M, M, N), got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise DimensionError("channel tensor contains non-finite entries")
        object.__setattr__(self, "h", h)

    @property
    def M(self) -> int:
        return self.h.shape[0]

    @property
    def N(self) -> int:
        return self.h.shape[2]

    def group_channel(self, i: int) -> np.ndarray:
        """Own-link coefficients h[i, i, :] seen by destination i (0-based)."""
        return self.h[i, i, :]

    def matches(self, config: NetworkConfig) -> bool:
        return self.M == config.M and self.N == config.N


def generate_channels(config: NetworkConfig, stream: RandomStream) -> ChannelRealization:
    """Draw one i.i.d. N(0, 1) channel tensor for the configured network.

    The draw is a pure function of (stream.seed, stream.label): regenerating
    with the same handle reproduces the tensor bit for bit.
    """
    gen = stream.generator()
    return ChannelRealization(gen.standard_normal((config.M, config.M, config.N)))


def link_amplitudes(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Amplitudes c[..., i, r] = h[..., i, r, :] . w[..., r, :] of R groups.

    ``h`` is (..., I, M, N) for I destinations and ``w`` is (..., R, N) for
    the first R <= M groups; the result is (..., I, R). Leading axes index
    trials and broadcast.
    """
    return np.einsum("...irj,...rj->...ir", h[..., : w.shape[-2], :], w)


def abs_moment() -> float:
    """E|h| = sqrt(2/pi) for h standard normal (half-normal first moment)."""
    return math.sqrt(2.0 / math.pi)
