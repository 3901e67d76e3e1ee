"""Scenario configuration shared by all simulation and analysis modules."""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Any

from .errors import ConfigError

__all__ = ["NetworkConfig", "ESTIMATION_MODES"]

ESTIMATION_MODES = ("perfect", "noisy")

# Bools are rejected for both kinds even though Python counts them as ints.
_INT_FIELDS = ("M", "N", "T_f", "seed", "trials")
_REAL_FIELDS = ("P", "N_o", "k_o", "epsilon_o", "delta")


@dataclass(frozen=True)
class NetworkConfig:
    """All scenario parameters for one experiment.

    Attributes
    ----------
    M : int
        Number of source groups (and destinations).
    N : int
        Sources per group.
    P : float
        Per-group average transmit power, linear scale.
    N_o : float
        Noise variance per time slot, linear scale.
    T_f : int
        Time slots per frame (one feedback bit per frame).
    k_o : float
        Training frames per group, divided by N (block length = k_o*N frames).
    epsilon_o : float
        Target fraction of reverse-aligned sources after training.
    delta : float
        Slack exponent in the interference threshold N^(1+delta).
    seed : int
        64-bit root seed; all randomness derives from (seed, stream label).
    estimation_mode : str
        "perfect" (level estimates exact) or "noisy" (variance N_o/T_f).
    trials : int
        Monte Carlo repetition count.
    """

    M: int
    N: int
    P: float
    N_o: float
    T_f: int
    k_o: float
    epsilon_o: float
    delta: float
    seed: int
    estimation_mode: str = "perfect"
    trials: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if self.T_f > sys.float_info.max:  # N_o / T_f is the level estimate's variance
            raise ConfigError(f"T_f is too large for a float, got {self.T_f.bit_length()} bits")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            # Compared, not converted, so that an int beyond float range cannot overflow.
            finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
            if isinstance(value, bool) or not finite:
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            if name != "epsilon_o" and not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value!r}")
        # A block is k_o * N frames. N is compared first, so that it is never
        # converted to a float beyond float range.
        if self.N > sys.float_info.max or math.isinf(self.k_o * self.N):
            raise ConfigError(
                f"k_o * N is too large for a float, got k_o={self.k_o!r} and an N of "
                f"{self.N.bit_length()} bits"
            )
        if not 0.0 <= self.epsilon_o < 1.0:
            raise ConfigError(f"epsilon_o must be in [0, 1), got {self.epsilon_o!r}")
        if self.estimation_mode not in ESTIMATION_MODES:
            raise ConfigError(
                f"estimation_mode must be one of {ESTIMATION_MODES}, got {self.estimation_mode!r}"
            )

    @property
    def block_frames(self) -> int:
        """Frames in one group's training block (k_o*N, rounded to nearest)."""
        return max(1, round(self.k_o * self.N))

    @property
    def reverse_count(self) -> int:
        """epsilon_o*N rounded to the nearest integer source count."""
        return round(self.epsilon_o * self.N)

    @property
    def estimate_std(self) -> float:
        """Standard deviation of the frame-averaged level estimate, sqrt(N_o/T_f)."""
        return (self.N_o / self.T_f) ** 0.5

    def replace(self, **changes: Any) -> "NetworkConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "NetworkConfig":
        """Build a config from a parsed JSON object, rejecting unknown keys.

        Only the fields with a default (``estimation_mode`` and ``trials``)
        may be omitted; physics and protocol parameters have none, since a
        silent default would corrupt reproduction.
        """
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be an object, got {type(doc).__name__}")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(doc) - {f.name for f in fields})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        missing = sorted(
            f.name for f in fields if f.name not in doc and f.default is dataclasses.MISSING
        )
        if missing:
            raise ConfigError(f"missing config key(s): {', '.join(missing)}")
        config = cls(**doc)
        # Real fields hold floats even when the document gives integers.
        return config.replace(**{name: float(getattr(config, name)) for name in _REAL_FIELDS})
