"""Counter-based random streams for reproducible (parallel) Monte Carlo.

Every source of randomness in the package is a Philox generator keyed by
``(seed, label)``. Philox is counter-based, so distinct keys give
statistically independent streams and the draws from one stream never
depend on how many other streams were consumed, in which order, or on how
many workers ran them. Labels form a path-like hierarchy, e.g.
``"outage/chunk/17"`` or ``"conv/chunk/2/train/perturb"``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["RandomStream"]


def _philox_key(seed: int, label: str) -> np.ndarray:
    """Hash (seed, label) into the 128-bit Philox key."""
    digest = hashlib.sha256(f"{seed:#x}\x1f{label}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


@dataclass(frozen=True)
class RandomStream:
    """Immutable handle naming one independent random stream.

    ``generator()`` always starts the stream from its origin: two calls on
    the same handle replay identical draws. Use ``child()`` to derive a
    distinct stream for a sub-task (a trial, a chunk of trials, a group).
    """

    seed: int
    label: str = "root"

    def child(self, label: str | int) -> "RandomStream":
        return RandomStream(self.seed, f"{self.label}/{label}")

    def generator(self) -> Generator:
        return Generator(Philox(key=_philox_key(self.seed, self.label)))
