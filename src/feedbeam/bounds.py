"""Closed-form convergence and outage analytics.

Everything here is a deterministic function of the scenario parameters:
the truncated-half-normal constant c_o, read through ``special.q_inverse``,
and the training budget k_o that guarantee an epsilon-level aligned
fraction in expectation, the feasibility ceiling for epsilon, and
``outage_bound``. That one function computes the tail thresholds k1/k2/k3,
the rate constant c_1, the rate schedule R(N) = (1/2) log2(1 + c_1
N^(1-delta)), the three large-deviation terms and the finite-N and
asymptotic outage bounds, and returns them in one ``BoundReport``, whose
fields are the columns of the ``bounds`` artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import abs_moment
from .config import NetworkConfig
from .errors import DomainError, InfeasibleEpsilonError
from .special import q_inverse

__all__ = [
    "c_o",
    "k_o",
    "epsilon_max",
    "BoundReport",
    "outage_bound",
]

_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_LN2 = math.log(2.0)
# Upper-tail coefficient sqrt(2*(1 + ln 2)) shared by k2 and c_1.
_K2_COEFF = math.sqrt(2.0 * (1.0 + _LN2))
# Largest N the closed forms accept. term1's exponent, (1-eps) N log(1 - 1/sqrt(N)), is read
# from k1, which holds N - sqrt(N). Up to 2^53, float(N) is exact and 1/sqrt(N) >= 1e-8 is far
# above the float resolution; from about N = 1e37, rounding alone sets the exponent and
# overflows it.
_N_LIMIT = 2**53


def c_o(epsilon_o: float) -> float:
    """Twice the smallest mean of any density dominated by the half-normal / epsilon.

    Equals 2 * ((1 - exp(-x_o^2/2)) / epsilon_o) * sqrt(2/pi) with
    x_o = Q^{-1}((1 - epsilon_o)/2); this is the per-switch gain constant in
    the epsilon-level convergence guarantee. Increasing in epsilon_o, with
    c_o(1) = 2 sqrt(2/pi) (the dominating density is the full half-normal).
    """
    if not 0.0 < epsilon_o <= 1.0:
        raise DomainError(f"c_o requires epsilon_o in (0, 1], got {epsilon_o!r}")
    if epsilon_o == 1.0:
        return 2.0 * abs_moment()
    x_o = q_inverse((1.0 - epsilon_o) / 2.0)
    return 2.0 * ((1.0 - math.exp(-0.5 * x_o * x_o)) / epsilon_o) * abs_moment()


def k_o(epsilon_o: float) -> float:
    """Training frames per source guaranteeing epsilon_o-level convergence.

    k_o = (1 - 2 eps) e^(1 - eps) / (c_o(eps) eps) * E|h|; independent of N,
    so the training phase length k_o * N scales linearly in N.
    """
    if not 0.0 < epsilon_o < 0.5:
        raise DomainError(f"k_o requires epsilon_o in (0, 1/2), got {epsilon_o!r}")
    return (
        (1.0 - 2.0 * epsilon_o)
        * math.exp(1.0 - epsilon_o)
        / (c_o(epsilon_o) * epsilon_o)
        * abs_moment()
    )


def epsilon_max() -> float:
    """Largest reverse-aligned fraction for which k1 > k2 holds as N grows.

    Closed form 1 / (1 + e * sqrt((4/pi)(1 + ln 2))) ~= 0.20036; above it the
    aligned-sum threshold falls below the reverse-sum threshold for all
    large N and the union-bound construction breaks down.
    """
    return 1.0 / (1.0 + math.e * math.sqrt((4.0 / math.pi) * (1.0 + _LN2)))


def _signal_thresholds(N: int, epsilon_o: float) -> tuple[float, float]:
    k1 = (1.0 - epsilon_o) * (N - math.sqrt(N)) / math.e * _SQRT_PI_OVER_2
    k2 = _K2_COEFF * (epsilon_o * N + math.sqrt(N))
    return k1, k2


def _rate_numerator(epsilon_o: float) -> float:
    return ((1.0 - epsilon_o) * _SQRT_PI_OVER_2 / math.e - _K2_COEFF * epsilon_o) ** 2


@dataclass(frozen=True)
class BoundReport:
    """Thresholds, rate schedule and outage bounds at one N: one row of ``bounds``."""

    N: int
    M: int
    epsilon_o: float
    delta: float
    k1: float
    k2: float
    k3: float
    c_1: float
    rate: float
    term1: float
    term2: float
    term3: float
    bound_finite: float
    bound_asymptotic: float


def outage_bound(N: int, config: NetworkConfig) -> BoundReport:
    """Thresholds, rate and outage bounds at block length N, for any M.

    k1 = (1-eps)(N - sqrt(N))/e * sqrt(pi/2) lower-bounds the aligned |h| sum,
    k2 = sqrt(2(1+ln 2)) (eps N + sqrt(N)) upper-bounds the reverse-aligned
    |h| sum and k3 = (M-1) N^(1+delta) + N N_o/P interference plus noise.
    c_1 is the squared gap of the leading k1/k2 coefficients over M-1. The
    rate is (1/2) log2(1 + c_1 N^(1-delta)); at M = 1, with no interference,
    c_1 is not divided and the rate comes from the SINR threshold
    (k1 - k2)^2 / k3 instead.

    The finite-N bound is the sum of three tail terms, each evaluated in log
    space so large N cannot overflow:
    term1 = (e k1 sqrt(2/pi) / S)^S with S = (1-eps) N  (aligned sum small),
    term2 = (2 exp(-k2^2 / (2 S^2)))^S with S = eps N   (reverse sum large),
    term3 = 2 (M-1) exp(-(k3 - N N_o/P) / (2 N (M-1)))  (interference large);
    term2 is 0 for an empty reverse-aligned set and term3 is 0 when M = 1.
    The asymptotic form exp(-sqrt(N)) + exp(-eps N - 2 sqrt(N)) + 2 (M-1)
    exp(-N^delta / 2) is a diagnostic: it drops sqrt(N) cross terms.

    Rejected, in this order: N < 25 (DomainError), eps >= epsilon_max()
    (InfeasibleEpsilonError), N > 2^53 (DomainError), a k3 beyond the float
    range (DomainError), k1 <= k2 at this N (InfeasibleEpsilonError), and a
    SINR threshold so small that the rate rounds to 0 (DomainError).
    """
    if N < 25:
        raise DomainError(f"outage_bound requires N >= 25 (asymptotic regime), got {N}")
    eps = config.epsilon_o
    if eps >= epsilon_max():
        raise InfeasibleEpsilonError(
            f"epsilon_o={eps} is not feasible: must be below epsilon_max()={epsilon_max():.5f}"
        )
    if N > _N_LIMIT:
        raise DomainError(
            f"N is too large for the closed-form bound: it must be at most 2^53, "
            f"got an N of {N.bit_length()} bits"
        )
    k1, k2 = _signal_thresholds(N, eps)
    interferers = config.M - 1
    k3 = N * config.N_o / config.P
    if interferers:
        try:
            k3 += interferers * float(N) ** (1.0 + config.delta)
        except OverflowError:
            k3 = math.inf
    if not math.isfinite(k3):
        raise DomainError(f"k3 = (M-1) N^(1+delta) + N N_o/P is beyond the float range at N={N}")
    if not k1 > k2:
        raise InfeasibleEpsilonError(
            f"threshold ordering k1 > k2 violated (k1={k1:.6g}, k2={k2:.6g}); "
            f"epsilon_o={eps} is too large at N={N}"
        )
    c_1 = _rate_numerator(eps) / max(interferers, 1)
    snr_threshold = c_1 * float(N) ** (1.0 - config.delta) if interferers else (k1 - k2) ** 2 / k3
    if 1.0 + snr_threshold == 1.0:
        raise DomainError(
            f"the rate rounds to 0 at N={N}: the SINR threshold {snr_threshold:.6g} "
            f"is below the float resolution of 1 + SINR"
        )

    s1 = (1.0 - eps) * N
    term1 = math.exp(s1 * (1.0 + math.log(k1 / s1) + 0.5 * math.log(2.0 / math.pi)))
    s2 = eps * N
    term2 = 0.0 if s2 == 0.0 else math.exp(s2 * _LN2 - k2**2 / (2.0 * s2))
    term3 = 0.0
    asym = math.exp(-math.sqrt(N)) + math.exp(-eps * N - 2.0 * math.sqrt(N))
    if interferers:  # N^delta is finite here, since k3 is
        excess = k3 - N * config.N_o / config.P
        term3 = 2.0 * interferers * math.exp(-excess / (2.0 * N * interferers))
        asym += 2.0 * interferers * math.exp(-float(N) ** config.delta / 2.0)
    return BoundReport(
        N=N,
        M=config.M,
        epsilon_o=eps,
        delta=config.delta,
        k1=k1,
        k2=k2,
        k3=k3,
        c_1=c_1,
        rate=0.5 * math.log2(1.0 + snr_threshold),
        term1=term1,
        term2=term2,
        term3=term3,
        bound_finite=term1 + term2 + term3,
        bound_asymptotic=asym,
    )
