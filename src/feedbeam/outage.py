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
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .bounds import outage_bound, q_inverse
from .channel import ChannelRealization, link_amplitudes
from .config import NetworkConfig
from .errors import ConfigError, DimensionError, DomainError, InfeasibleEpsilonError
from .rng import RandomStream
from .training import EnsembleResult, map_networks

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
        """The fields, ``weights_mode`` as ``mode`` and non-finite floats as None."""
        doc = {k: None if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in asdict(self).items()}
        doc["mode"] = doc.pop("weights_mode")
        doc["link"] = 0  # by link symmetry only link 0 is ever evaluated
        return doc


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
    quantile of Beta(k + 1, n - k), with 0 at k = 0 and 1 at k = n. The
    quantiles invert the package's own regularized incomplete beta
    (``_beta_quantile``) to about 1e-13 relative.
    """
    if not 0 <= k <= n or n < 1:
        raise DomainError(f"clopper_pearson requires 0 <= k <= n and n >= 1, got k={k}, n={n}")
    low = 0.0 if k == 0 else _beta_quantile(float(k), float(n - k + 1), 0.025)
    high = 1.0 if k == n else _beta_quantile(float(k + 1), float(n - k), 0.975)
    return low, high


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_correction(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), small and positive for z >= 1."""
    if z < 15.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w * (1.0 / 1680.0 - w / 1188.0)))) / z


def _beta_cdf(a: float, b: float, x: float) -> tuple[float, float]:
    """I_x(a, b) and the Beta(a, b) density at x, for a, b >= 1 and 0 <= x <= 1.

    With lam = a - (a + b) x, the factor x^a (1 - x)^b / B(a, b) is taken
    from Stirling's series for all three log-gammas: its log is
    a log1p(-lam/a) + b log1p(lam/b) + log(ab / (2 pi (a + b))) / 2 plus the
    corrections. So the O((a + b) log(a + b)) terms that cancel in
    lgamma(a + b) - lgamma(a) - lgamma(b) are never formed, and lam, read
    from whichever of x and 1 - x is exact, enters both log1p terms alike.
    The continued fraction runs on the side of the mean where lam >= 0.
    """
    y = 1.0 - x
    lam = a - (a + b) * x if x < 0.5 else (a + b) * y - b
    if not -b < lam < a:  # x is 0 or 1 to working precision
        return (0.0 if lam >= a else 1.0), 0.0
    log_factor = (
        a * math.log1p(-lam / a)
        + b * math.log1p(lam / b)
        + 0.5 * math.log(a / (a + b) * b / (2.0 * math.pi))
        + _stirling_correction(a + b)
        - _stirling_correction(a)
        - _stirling_correction(b)
    )
    factor = math.exp(log_factor)
    if lam >= 0.0:
        value = factor * _beta_fraction(a, b, x, y, lam)
    else:
        value = 1.0 - factor * _beta_fraction(b, a, y, x, -lam)
    return value, factor / (x * y)


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """The continued fraction I_x(a, b) = x^a y^b / B(a, b) * this, for lam >= 0 and integer b.

    DiDonato & Morris (1992, ACM TOMS 708, BFRAC): 1 / (beta_0 + alpha_1 /
    (beta_1 + alpha_2 / (beta_2 + ...))), evaluated by Lentz's method. An
    integer b ends the fraction at alpha_b = 0, and before that every
    alpha_n and beta_n is a sum of positive terms: no Lentz denominator is
    0, and rounding in x or y is not amplified.
    """
    f = a * (lam + 1.0) / (a + 1.0)
    c, d = f, 0.0
    n = 0
    while True:
        n += 1
        s = a + 2 * n
        alpha = (a + n - 1) * (a + b + n - 1) * n * (b - n) * x * x / ((s - 1) * (s - 1))
        beta = n + n * (b - n) * x / (s - 1) + (a + n) / (s + 1) * (lam + 1.0 + n * (1.0 + y))
        d = 1.0 / (beta + alpha * d)
        c = beta + alpha / c
        step = c * d
        f *= step
        if abs(step - 1.0) < 1e-15:
            return 1.0 / f


def _beta_quantile(a: float, b: float, p: float) -> float:
    """The x in (0, 1) with I_x(a, b) = p, for a, b >= 1.

    Newton's method on x from the normal approximation of Abramowitz &
    Stegun 26.5.22, kept inside the bracket that the signs of I_x - p have
    shown so far; a step that would leave it bisects instead. So the loop
    ends, at the latest when the bracket is two adjacent floats.
    """
    z = q_inverse(p)
    al = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = z * math.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
        al + 5.0 / 6.0 - 2.0 / (3.0 * h)
    )
    x = a / (a + b * math.exp(2.0 * w))
    lo, hi = 0.0, 1.0
    while True:
        value, density = _beta_cdf(a, b, x)
        if value < p:
            lo = x
        else:
            hi = x
        step = (value - p) / density if density > 0.0 else math.inf
        new = x - step
        if lo < new < hi:
            # Converged when the step is below 1e-13 of the nearer end, or the float spacing.
            if abs(step) <= 1e-13 * min(new, 1.0 - new) + 2.0 * math.ulp(new):
                return new
        else:
            new = 0.5 * (lo + hi)
            if new in (lo, hi):  # lo and hi are adjacent floats
                return new
        x = new


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
    parts = map_networks(
        partial(_outage_count, rate, mode, config.M),
        config.replace(M=1),
        stream,
        () if mode == "idealized" else [0],
        workers,
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
    if len(set(N_list)) < len(N_list):
        raise ConfigError(f"N_list entries must be distinct, got {list(N_list)!r}")
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
