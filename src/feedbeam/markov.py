"""Exact absorbing-chain analysis of one group's training dynamics.

Under perfect level estimation the kept weights alpha_hat fully determine
the stored best level, so training is a Markov chain on the 2^N sign
vectors: a proposal flips each weight independently with probability 1/N
and is kept iff it strictly increases the combined amplitude h . alpha.
The state sign(h) is absorbing and reachable from everywhere in one step,
which makes the chain an absorbing chain; this module computes its exact
transition structure, distribution evolution, expected gains and absorption
times for small N, serving as ground truth for the simulator.

States are encoded as N-bit codes with bit j set iff alpha_hat_j = +1.
A move is kept only if it strictly raises the gain, so with the states
sorted by gain the transition matrix is upper triangular. Distributions
come from one forward pass over the states in ascending gain and hitting
times from one back-substitution in descending gain, both exact and both
the same for every N up to 14. They gather accepted moves one block of
states at a time and never hold the 4^N matrix. The dense matrix is kept
on the model for N <= 10 only, for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateChannelError, FeedbeamError
from .channel import sign_pm

__all__ = [
    "DENSE_STATE_LIMIT",
    "STATE_LIMIT",
    "MarkovModel",
    "build_markov",
    "gain_distribution",
    "expected_gain_exact",
    "gain_moments_exact",
    "absorption_time_stats",
    "one_step_absorb_probability",
]

DENSE_STATE_LIMIT = 10
STATE_LIMIT = 14
# States per block of the gain-ordered passes. A block's gathered rows take
# BLOCK * 2^N doubles (8 MB at N = 14); blocks of 64 ran both passes at
# N = 14 in about half the time of blocks of 256 or more.
BLOCK = 64
# Steps per forward pass: the pass keeps WINDOW + 1 distributions (34 MB at
# N = 14), and longer horizons run one pass per window.
WINDOW = 256


@dataclass(frozen=True)
class MarkovModel:
    """Exact training chain for one channel vector.

    ``gains[s]`` is h . alpha(s) for state code s, ``absorbing_index`` the
    code of sign(h). ``transition`` is the dense row-stochastic matrix for
    N <= 10 and None above; the analyses gather accepted moves themselves.
    """

    N: int
    h: np.ndarray
    gains: np.ndarray
    absorbing_index: int
    mask_prob: np.ndarray
    transition: np.ndarray | None

    @property
    def n_states(self) -> int:
        return 1 << self.N

    @property
    def start_index(self) -> int:
        """Code of the all-(+1) initialization state."""
        return (1 << self.N) - 1


def _state_signs(n: int) -> np.ndarray:
    codes = np.arange(1 << n)
    bits = (codes[:, np.newaxis] >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def _accepted(
    gains: np.ndarray, mask_prob: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """P(row -> col) of the accepted moves between two lists of state codes.

    A move is accepted iff it strictly raises the gain, so entries towards
    equal or lower gain, the diagonal included, are 0.
    """
    probs = mask_prob[rows[:, np.newaxis] ^ cols]
    probs[gains[cols] <= gains[rows][:, np.newaxis]] = 0.0
    return probs


def build_markov(h: np.ndarray) -> MarkovModel:
    """Build the exact 2^N-state chain for channel vector h.

    Transition from state s under proposal mask m (bit j set = flip j,
    each bit independent with probability 1/N) goes to s XOR m iff the
    proposal strictly increases the gain, else stays at s.
    """
    h = np.asarray(h, dtype=float).ravel()
    n = h.size
    if n < 1 or n > STATE_LIMIT:
        raise CapacityError(f"exact chain supports 1 <= N <= {STATE_LIMIT}, got N={n}")
    if not np.all(np.isfinite(h)):
        raise DegenerateChannelError("channel entries must be finite")
    if np.any(h == 0.0):
        raise DegenerateChannelError("channel entries must be nonzero (sign would be degenerate)")

    signs = _state_signs(n)
    with np.errstate(over="ignore"):
        gains = signs @ h
    if not np.all(np.isfinite(gains)):
        raise DegenerateChannelError("state gains overflow the float range")
    bits_pos = (h > 0).astype(np.int64)
    absorbing = int((bits_pos << np.arange(n)).sum())

    p = 1.0 / n
    counts = np.array([bin(m).count("1") for m in range(1 << n)])
    mask_prob = p**counts * (1.0 - p) ** (n - counts)

    transition = None
    if n <= DENSE_STATE_LIMIT:
        codes = np.arange(1 << n)
        transition = _accepted(gains, mask_prob, codes, codes)
        # Rejected proposals stay put. No move leaves the maximal gain, so
        # the absorbing row is the exact unit vector.
        transition[codes, codes] = 1.0 - transition.sum(axis=1)

    return MarkovModel(
        N=n,
        h=h,
        gains=gains,
        absorbing_index=absorbing,
        mask_prob=mask_prob,
        transition=transition,
    )


def gain_distribution(model: MarkovModel, t: int) -> np.ndarray:
    """State distribution after t update steps from the all-(+1) start state.

    One forward pass over the states in ascending gain, BLOCK states at a
    time. A block's accepted moves are gathered once; its own triangle is
    stepped t times, and its outflow to every higher state is then added for
    all steps at once with one matmul. States with a lower gain than the
    start state are never visited and are skipped. Horizons beyond WINDOW
    steps chain passes, each starting from the last one's distribution.
    """
    if t < 0:
        raise FeedbeamError(f"t must be >= 0, got {t}")
    codes = np.argsort(model.gains)
    codes = codes[np.searchsorted(model.gains[codes], model.gains[model.start_index]):]
    dist = (codes == model.start_index).astype(float)
    for done in range(0, t, WINDOW):
        steps = min(WINDOW, t - done)
        # hist[k, i]: P(state codes[i] at step done + k). The columns of a
        # block not yet reached hold the inflow pushed in from lower blocks.
        hist = np.zeros((steps + 1, codes.size))
        hist[0] = dist
        for lo in range(0, codes.size, BLOCK):
            hi = min(lo + BLOCK, codes.size)
            acc = _accepted(model.gains, model.mask_prob, codes[lo:hi], codes[lo:])
            stay = 1.0 - acc.sum(axis=1)
            inner = acc[:, : hi - lo]
            block = hist[:, lo:hi]
            for k in range(steps):
                block[k + 1] += block[k] * stay + block[k] @ inner
            hist[1:, hi:] += block[:-1] @ acc[:, hi - lo :]
        dist = hist[steps]
    out = np.zeros(model.n_states)
    out[codes] = dist
    return out


def expected_gain_exact(model: MarkovModel, t: int) -> float:
    """E[h . alpha_hat[t]] under the exact chain, conditioned on h."""
    return float(gain_distribution(model, t) @ model.gains)


def gain_moments_exact(model: MarkovModel, t: int) -> tuple[float, float]:
    """Exact mean and standard deviation of the gain at step t.

    The standard deviation divided by sqrt(#trajectories) is the true
    Monte Carlo standard error, which stays meaningful even when a finite
    sample happens to be fully absorbed and its sample variance collapses.
    """
    dist = gain_distribution(model, t)
    mean = float(dist @ model.gains)
    var = float(dist @ (model.gains - mean) ** 2)
    return mean, math.sqrt(max(var, 0.0))


def absorption_time_stats(model: MarkovModel) -> tuple[float, np.ndarray]:
    """Expected steps to absorption from every state (0 at the absorbing one).

    Solves the absorbing-chain system (I - Q) tau = 1 by back-substitution
    in descending gain: every accepted move strictly raises the gain, so
    tau_s = (1 + sum_j P(s -> j) tau_j) / (accepted mass out of s) involves
    only states of higher gain. The absorbing state has the unique highest
    gain. Each block of BLOCK states is one small upper-triangular solve:
    its diagonal, the accepted mass out of each state, is positive, so
    `np.linalg.solve` pivots on it, exchanges no rows and back-substitutes.
    The headline mean is taken from the all-(+1) start state.
    """
    codes = np.argsort(model.gains)
    tau = np.zeros(codes.size)  # in gain order; the absorbing state is last
    for hi in range(codes.size - 1, 0, -BLOCK):
        lo = max(hi - BLOCK, 0)
        acc = _accepted(model.gains, model.mask_prob, codes[lo:hi], codes[lo:])
        system = np.diag(acc.sum(axis=1)) - acc[:, : hi - lo]
        tau[lo:hi] = np.linalg.solve(system, 1.0 + acc[:, hi - lo :] @ tau[hi:])
    by_state = np.zeros(codes.size)
    by_state[codes] = tau
    return float(by_state[model.start_index]), by_state


def one_step_absorb_probability(model: MarkovModel) -> np.ndarray:
    """P(next state = absorbing | current state), per state code.

    For a state with r reverse-aligned sources this is (1/N)^r (1-1/N)^(N-r);
    at the absorbing state itself it is 1 (the chain never leaves).
    """
    codes = np.arange(model.n_states)
    probs = model.mask_prob[codes ^ model.absorbing_index]
    probs[model.absorbing_index] = 1.0
    return probs


def state_signs(model: MarkovModel) -> np.ndarray:
    """(2^N, N) matrix of alpha_hat vectors, row s = state code s."""
    return _state_signs(model.N)


def absorbing_matches_sign(model: MarkovModel) -> bool:
    """Consistency check: the absorbing state's weights equal sign(h)."""
    return bool(np.all(state_signs(model)[model.absorbing_index] == sign_pm(model.h)))
