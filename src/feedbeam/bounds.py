"""Closed-form convergence and outage analytics.

Everything here is a deterministic function of the scenario parameters:
the Gaussian tail function and its inverse, the truncated-half-normal
constant c_o and the training budget k_o that guarantee an epsilon-level
aligned fraction in expectation, the feasibility ceiling for epsilon, the
tail thresholds k1/k2/k3 with the rate constant c_1, the three
large-deviation terms, and the assembled outage upper bound with the rate
schedule R(N) = (1/2) log2(1 + c_1 N^(1-delta)).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .channel import abs_moment
from .config import NetworkConfig
from .errors import DimensionError, DomainError, InfeasibleEpsilonError

__all__ = [
    "q_function",
    "q_inverse",
    "c_o",
    "k_o",
    "epsilon_max",
    "BoundParams",
    "bound_params",
    "large_deviation_terms",
    "BoundReport",
    "outage_bound",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_LN2 = math.log(2.0)
# Upper-tail coefficient sqrt(2*(1 + ln 2)) shared by k2 and c_1.
_K2_COEFF = math.sqrt(2.0 * (1.0 + _LN2))
# Largest N the closed forms accept. term1's exponent, (1-eps) N log(1 - 1/sqrt(N)), is read
# from k1, which holds N - sqrt(N). Up to 2^53, float(N) is exact and 1/sqrt(N) >= 1e-8 is far
# above the float resolution; from about N = 1e37, rounding alone sets the exponent and
# overflows it.
_N_LIMIT = 2**53


_STANDARD_NORMAL = NormalDist()
_erfc = np.frompyfunc(math.erfc, 1, 1)


def q_function(v):
    """Standard normal tail probability Q(v) = P(Z > v) from ``math.erfc``; accepts arrays."""
    if np.ndim(v) == 0:
        return 0.5 * math.erfc(float(v) / _SQRT_2)
    return 0.5 * _erfc(np.asarray(v, dtype=float) / _SQRT_2).astype(float)


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1): Q^{-1}(p) = -Phi^{-1}(p), from ``NormalDist.inv_cdf``."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"q_inverse requires p in (0, 1), got {p!r}")
    return -_STANDARD_NORMAL.inv_cdf(p)


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
        return 2.0 * _SQRT_2_OVER_PI
    x_o = q_inverse((1.0 - epsilon_o) / 2.0)
    return 2.0 * ((1.0 - math.exp(-0.5 * x_o * x_o)) / epsilon_o) * _SQRT_2_OVER_PI


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


@dataclass(frozen=True)
class BoundParams:
    """Thresholds and rate constant entering the outage bound.

    k1 lower-bounds the aligned |h| sum, k2 upper-bounds the reverse-aligned
    |h| sum, k3 upper-bounds interference-plus-noise power; c_1 drives the
    rate schedule (1/2) log2(1 + c_1 N^(1-delta)).
    """

    k1: float
    k2: float
    k3: float
    c_1: float
    epsilon_o: float
    delta: float
    M: int
    N: int
    P: float
    N_o: float

    def __post_init__(self) -> None:
        if not self.k1 > self.k2:
            raise InfeasibleEpsilonError(
                f"threshold ordering k1 > k2 violated (k1={self.k1:.6g}, k2={self.k2:.6g}); "
                f"epsilon_o={self.epsilon_o} is too large at N={self.N}"
            )
        noise_floor = self.N * self.N_o / self.P
        if self.k3 < noise_floor * (1.0 - 1e-12):
            raise DomainError(f"k3 must be >= N*N_o/P = {noise_floor:.6g}, got {self.k3:.6g}")


def _signal_thresholds(N: int, epsilon_o: float) -> tuple[float, float]:
    k1 = (1.0 - epsilon_o) * (N - math.sqrt(N)) / math.e * _SQRT_PI_OVER_2
    k2 = _K2_COEFF * (epsilon_o * N + math.sqrt(N))
    return k1, k2


def _rate_numerator(epsilon_o: float) -> float:
    return ((1.0 - epsilon_o) * _SQRT_PI_OVER_2 / math.e - _K2_COEFF * epsilon_o) ** 2


def _build_params(N: int, config: NetworkConfig) -> BoundParams:
    """k1, k2, k3 and c_1 for any M; at M = 1 k3 is the noise term alone."""
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
    return BoundParams(
        k1=k1,
        k2=k2,
        k3=k3,
        c_1=_rate_numerator(eps) / max(interferers, 1),
        epsilon_o=eps,
        delta=config.delta,
        M=config.M,
        N=N,
        P=config.P,
        N_o=config.N_o,
    )


def bound_params(N: int, config: NetworkConfig) -> BoundParams:
    """Evaluate k1, k2, k3 and c_1 for an M >= 2 interference network.

    k1 = (1-eps)(N - sqrt(N))/e * sqrt(pi/2), k2 = sqrt(2(1+ln 2)) (eps N +
    sqrt(N)), k3 = (M-1) N^(1+delta) + N N_o / P, and c_1 is the squared gap
    of the leading k1/k2 coefficients divided by M-1.
    """
    if config.M < 2:
        raise DomainError("bound_params requires M >= 2; the M = 1 case has no interference term")
    return _build_params(N, config)


def large_deviation_terms(N: int, params: BoundParams) -> tuple[float, float, float]:
    """The three tail terms whose sum upper-bounds the outage probability.

    term1 = (e k1 sqrt(2/pi) / S)^S with S = (1-eps) N  (aligned sum small),
    term2 = (2 exp(-k2^2 / (2 S^2)))^S with S = eps N   (reverse sum large),
    term3 = 2 (M-1) exp(-(k3 - N N_o/P) / (2 N (M-1)))  (interference large);
    term2 is 0 for an empty reverse-aligned set and term3 is 0 when M = 1.
    Evaluated in log space so large N cannot overflow.
    """
    if params.N != N:
        raise DimensionError(f"params were built for N={params.N}, not N={N}")
    eps = params.epsilon_o
    s1 = (1.0 - eps) * N
    term1 = math.exp(s1 * (1.0 + math.log(params.k1 / s1) + 0.5 * math.log(2.0 / math.pi)))
    s2 = eps * N
    term2 = 0.0 if s2 == 0.0 else math.exp(s2 * _LN2 - params.k2**2 / (2.0 * s2))
    if params.M == 1:
        term3 = 0.0
    else:
        excess = params.k3 - N * params.N_o / params.P
        term3 = 2.0 * (params.M - 1) * math.exp(-excess / (2.0 * N * (params.M - 1)))
    return term1, term2, term3


@dataclass(frozen=True)
class BoundReport:
    """Rate schedule plus finite-N and asymptotic outage bounds."""

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

    def to_dict(self) -> dict:
        return asdict(self)


def outage_bound(N: int, config: NetworkConfig) -> BoundReport:
    """Assemble the outage bound and its rate at block length N.

    The finite-N bound is term1 + term2 + term3 (primary output); the
    three-exponential asymptotic form exp(-sqrt(N)) + exp(-eps N - 2
    sqrt(N)) + 2 (M-1) exp(-N^delta / 2) is reported as a diagnostic (it
    drops sqrt(N) cross terms). For M >= 2 the rate is (1/2) log2(1 + c_1
    N^(1-delta)); for M = 1 there is no interference, k3 reduces to the
    noise term N N_o / P and the rate comes from the exact SINR threshold
    (k1 - k2)^2 / k3.
    """
    if N < 25:
        raise DomainError(f"outage_bound requires N >= 25 (asymptotic regime), got {N}")
    params = _build_params(N, config)
    if config.M >= 2:
        snr_threshold = params.c_1 * float(N) ** (1.0 - config.delta)
    else:
        snr_threshold = (params.k1 - params.k2) ** 2 / params.k3
    term1, term2, term3 = large_deviation_terms(N, params)
    eps = config.epsilon_o
    asym = math.exp(-math.sqrt(N)) + math.exp(-eps * N - 2.0 * math.sqrt(N))
    if config.M >= 2:  # N^delta is finite here, since k3 is
        asym += 2.0 * (config.M - 1) * math.exp(-float(N) ** config.delta / 2.0)
    return BoundReport(
        N=N,
        M=config.M,
        epsilon_o=eps,
        delta=config.delta,
        k1=params.k1,
        k2=params.k2,
        k3=params.k3,
        c_1=params.c_1,
        rate=0.5 * math.log2(1.0 + snr_threshold),
        term1=term1,
        term2=term2,
        term3=term3,
        bound_finite=term1 + term2 + term3,
        bound_asymptotic=asym,
    )
