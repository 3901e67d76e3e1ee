"""Special functions for the analytics, on the standard library alone.

Q^{-1}, the inverse of the Gaussian tail function, from ``NormalDist``, and the
exact Clopper-Pearson interval, by inverting a regularized incomplete beta.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .errors import DomainError

__all__ = ["q_inverse", "clopper_pearson"]

_STANDARD_NORMAL = NormalDist()


def q_inverse(p: float) -> float:
    """Inverse of the normal tail Q(v) = P(Z > v) on (0, 1): -Phi^{-1}(p), from ``NormalDist``."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"q_inverse requires p in (0, 1), got {p!r}")
    return -_STANDARD_NORMAL.inv_cdf(p)


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
