import dataclasses
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtri

from feedbeam import (
    DomainError,
    InfeasibleEpsilonError,
    NetworkConfig,
    abs_moment,
    c_o,
    epsilon_max,
    k_o,
    outage_bound,
)
from feedbeam.bounds import _rate_numerator, _signal_thresholds
from feedbeam.special import q_inverse


def half_normal_pdf(x):
    return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x) if x >= 0 else 0.0


def c_o_quadrature(eps):
    """Oracle: 2 * integral of x * f|h|(x)/eps over the mass-1 truncation."""
    x_o = np.inf if eps == 1.0 else q_inverse((1.0 - eps) / 2.0)
    value, _ = quad(lambda x: x * half_normal_pdf(x) / eps, 0.0, x_o)
    return 2.0 * value


# ---------------------------------------------------------------------------
# Q function


def q_reference(v):
    """Standard normal tail probability Q(v) = P(Z > v)."""
    return 0.5 * math.erfc(v / math.sqrt(2.0))


def test_q_at_zero_and_inverse_at_half():
    assert abs(q_inverse(0.5)) < 1e-12
    assert q_inverse(0.25) == pytest.approx(-q_inverse(0.75), rel=1e-15)


def test_q_against_quadrature_oracle():
    density = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    for p in (0.99865, 0.84134, 0.38209, 0.15866, 0.00621, 9.9e-10):
        tail, _ = quad(density, q_inverse(p), np.inf)
        assert tail == pytest.approx(p, rel=1e-12, abs=1e-15)


def test_q_roundtrip_property():
    ps = np.concatenate(
        [np.logspace(-6, -1, 12), np.linspace(0.1, 0.9, 17), 1.0 - np.logspace(-6, -1, 12)]
    )
    for p in ps:
        assert abs(q_reference(q_inverse(float(p))) - p) < 1e-10
    # Deep tail: Q has relative condition number about v^2 < 1400 there, so
    # the round trip holds to a relative tolerance of a few 1e-13.
    for p in np.logspace(-300, -20, 57):
        assert q_reference(q_inverse(float(p))) == pytest.approx(p, rel=1e-11, abs=0.0)


def test_q_inverse_matches_ndtri():
    ps = np.concatenate(
        [np.logspace(-300, -1, 600), np.linspace(0.01, 0.99, 99), 1.0 - np.logspace(-16, -1, 300)]
    )
    for p in ps:
        assert q_inverse(float(p)) == pytest.approx(-float(ndtri(p)), rel=1e-14)


def test_q_inverse_domain():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            q_inverse(bad)


# ---------------------------------------------------------------------------
# c_o and k_o


def test_c_o_full_mass_limit_exact():
    assert c_o(1.0) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-12)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.5, 1.0])
def test_c_o_matches_quadrature(eps):
    assert abs(c_o(eps) - c_o_quadrature(eps)) < 1e-9


def test_c_o_value_and_monotonicity():
    assert c_o(0.1) == pytest.approx(0.1256, abs=2e-4)
    grid = np.linspace(0.01, 1.0, 60)
    values = [c_o(e) for e in grid]
    assert np.all(np.diff(values) > 0)


def test_c_o_domain():
    for bad in (0.0, -0.1, 1.01):
        with pytest.raises(DomainError):
            c_o(bad)


def test_minimum_mean_over_feasible_densities():
    # c_o(eps)/2 lower-bounds the mean of every density that vanishes on
    # x < 0, stays below half-normal/eps, and integrates to one. Build 20
    # random such densities by filling unit mass from randomly ordered grid
    # cells at the cap height.
    eps = 0.1
    floor = c_o(eps) / 2.0
    dx = 2e-4
    x = np.arange(0.0, 12.0, dx) + dx / 2.0
    cap = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * x * x) / eps
    cell_mass = cap * dx
    rng = np.random.default_rng(2024)
    for _ in range(20):
        order = rng.permutation(x.size)
        cum = np.cumsum(cell_mass[order])
        take = np.searchsorted(cum, 1.0)
        weights = np.zeros(x.size)
        weights[order[:take]] = 1.0
        # partial cell to hit total mass exactly 1
        weights[order[take]] = (1.0 - (cum[take - 1] if take else 0.0)) / cell_mass[order[take]]
        mass = float(np.sum(weights * cell_mass))
        assert mass == pytest.approx(1.0, abs=1e-12)
        mean = float(np.sum(x * weights * cell_mass))
        assert mean >= floor - 1e-6


def test_k_o_value_and_reconstruction():
    # Plugging the quadrature c_o into the defining expression reproduces k_o.
    eps = 0.1
    expected = (1 - 2 * eps) * math.exp(1 - eps) / (c_o_quadrature(eps) * eps) * abs_moment()
    assert k_o(eps) == pytest.approx(expected, rel=1e-9)
    assert k_o(eps) == pytest.approx(125.0, abs=0.2)


def test_k_o_limits_and_monotonicity():
    assert k_o(0.4999999) < 1e-3
    assert k_o(0.2) < k_o(0.1)
    for bad in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(DomainError):
            k_o(bad)


# ---------------------------------------------------------------------------
# feasibility threshold


def test_epsilon_max_value():
    closed = 1.0 / (1.0 + math.e * math.sqrt((4.0 / math.pi) * (1.0 + math.log(2.0))))
    assert epsilon_max() == pytest.approx(closed, abs=1e-15)
    assert epsilon_max() == pytest.approx(0.20036, abs=1e-5)


def test_epsilon_max_matches_threshold_crossover():
    # Independent oracle: solve k1(N, eps) = k2(N, eps) at very large N.
    big_n = 10_000_000
    gap = lambda e: _signal_thresholds(big_n, e)[0] - _signal_thresholds(big_n, e)[1]
    crossover = brentq(gap, 0.01, 0.4, xtol=1e-12)
    assert abs(crossover - epsilon_max()) < 1e-3


def test_threshold_ordering_flips_at_epsilon_max():
    n = 1_000_000
    lo, hi = epsilon_max() - 0.01, epsilon_max() + 0.01
    k1, k2 = _signal_thresholds(n, lo)
    assert k1 > k2
    k1, k2 = _signal_thresholds(n, hi)
    assert k1 < k2


# ---------------------------------------------------------------------------
# thresholds and tail terms


def test_c1_values(make_config):
    cfg = make_config(M=2, epsilon_o=0.05)
    report = outage_bound(200, cfg)
    assert report.c_1 == pytest.approx(0.1197, abs=2e-4)
    cfg0 = make_config(M=2, epsilon_o=0.0)
    assert outage_bound(200, cfg0).c_1 == pytest.approx((math.pi / 2.0) / math.e**2, rel=1e-12)


def test_k3_arithmetic(make_config):
    cfg = make_config(M=2, epsilon_o=0.05, delta=0.5, N_o=1.0, P=1.0)
    report = outage_bound(100, cfg)
    assert report.k3 == pytest.approx(1.0 * 100**1.5 + 100.0, rel=1e-12)


def test_bound_params_guards(make_config):
    with pytest.raises(InfeasibleEpsilonError):
        outage_bound(100, make_config(M=2, epsilon_o=0.25))
    # Feasible epsilon but N too small for k1 > k2.
    with pytest.raises(InfeasibleEpsilonError):
        outage_bound(25, make_config(M=2, epsilon_o=0.19))


def test_term3_value_and_interference_free_case(make_config):
    cfg = make_config(M=2, epsilon_o=0.05, delta=0.5)
    report = outage_bound(200, cfg)
    t1, t2, t3 = report.term1, report.term2, report.term3
    assert t3 == pytest.approx(2.0 * math.exp(-math.sqrt(200) / 2.0), rel=1e-12)
    assert t3 == pytest.approx(1.70e-3, abs=2e-5)
    assert min(t1, t2, t3) >= 0.0
    # M = 1: no interferers, third term vanishes identically.
    solo = outage_bound(200, make_config(M=1, epsilon_o=0.05, delta=0.5, P=1.0, N_o=1.0))
    assert solo.term3 == 0.0


def test_empty_reverse_set_kills_term2(make_config):
    report = outage_bound(200, make_config(M=2, epsilon_o=0.0))
    assert report.term2 == 0.0


# ---------------------------------------------------------------------------
# assembled bound


def test_outage_bound_assembly(make_config):
    cfg = make_config(M=2, epsilon_o=0.05, delta=0.5)
    report = outage_bound(200, cfg)
    t1, t2, t3 = report.term1, report.term2, report.term3
    assert report.bound_finite == pytest.approx(t1 + t2 + t3, rel=1e-12)
    expected_asym = (
        math.exp(-math.sqrt(200))
        + math.exp(-0.05 * 200 - 2 * math.sqrt(200))
        + 2 * math.exp(-(200**0.5) / 2)
    )
    assert report.bound_asymptotic == pytest.approx(expected_asym, rel=1e-12)
    assert report.bound_asymptotic == pytest.approx(1.70e-3, abs=2e-5)
    assert report.rate == pytest.approx(
        0.5 * math.log2(1.0 + report.c_1 * 200**0.5), rel=1e-12
    )


def test_bound_decreases_with_n(make_config):
    cfg = make_config(M=2, epsilon_o=0.05, delta=0.5)
    grid = [100, 200, 400, 1000, 3000, 10_000]
    values = [outage_bound(n, cfg).bound_finite for n in grid]
    assert np.all(np.diff(values) < 0)


def test_smaller_delta_trades_rate_for_interference_margin(make_config):
    sharp = outage_bound(400, make_config(M=2, epsilon_o=0.05, delta=0.3))
    safe = outage_bound(400, make_config(M=2, epsilon_o=0.05, delta=0.5))
    assert sharp.rate > safe.rate
    assert sharp.term3 > safe.term3


def test_outage_bound_single_group(make_config):
    n, eps = 200, 0.05
    report = outage_bound(n, make_config(M=1, epsilon_o=eps, P=10.0, N_o=1.0))
    assert report.term3 == 0.0
    assert report.bound_finite == pytest.approx(report.term1 + report.term2, rel=1e-12)
    # No interference: k3 is the noise term alone and c_1 is not divided.
    assert report.k3 == n * 1.0 / 10.0
    k1, k2 = _signal_thresholds(n, eps)
    assert (report.k1, report.k2) == (k1, k2)
    assert report.c_1 == _rate_numerator(eps)
    gap = (1 - eps) * math.sqrt(math.pi / 2) / math.e - math.sqrt(2 * (1 + math.log(2))) * eps
    assert report.c_1 == pytest.approx(gap**2, rel=1e-14)
    assert report.rate == 0.5 * math.log2(1.0 + (k1 - k2) ** 2 / report.k3)
    assert report.rate > 0
    signal_only = math.exp(-math.sqrt(n)) + math.exp(-eps * n - 2 * math.sqrt(n))
    assert report.bound_asymptotic == signal_only


def test_outage_bound_guards(make_config):
    with pytest.raises(DomainError):
        outage_bound(24, make_config(M=2, epsilon_o=0.05))
    with pytest.raises(InfeasibleEpsilonError):
        outage_bound(200, make_config(M=2, epsilon_o=0.21))
    with pytest.raises(InfeasibleEpsilonError):
        outage_bound(200, make_config(M=1, epsilon_o=0.21))


def test_bound_inputs_beyond_float_range(make_config):
    for cfg in (make_config(M=2, epsilon_o=0.05, delta=1000.0),
                make_config(M=3, epsilon_o=0.05, P=1e-320)):
        with pytest.raises(DomainError, match="k3"):
            outage_bound(100, cfg)
    # delta enters only the interference terms, which M = 1 does not have.
    solo = outage_bound(100, make_config(M=1, epsilon_o=0.05, delta=1000.0))
    reference = outage_bound(100, make_config(M=1, epsilon_o=0.05))
    assert solo == dataclasses.replace(reference, delta=1000.0)


def test_outage_bound_rejects_n_beyond_2_pow_53(make_config):
    for M in (1, 2):
        cfg = make_config(M=M, epsilon_o=0.05)
        assert math.isfinite(outage_bound(2**53, cfg).bound_finite)
        with pytest.raises(DomainError, match="N is too large"):
            outage_bound(2**53 + 1, cfg)


def _log_uniform_n(top):
    """Integers N with log10(N) uniform in [log10(25), top]."""
    return st.floats(math.log10(25), top).map(lambda e: max(25, int(Decimal(10) ** Decimal(e))))


@settings(max_examples=200, deadline=None)
@given(N=_log_uniform_n(400.0) | _log_uniform_n(math.log10(2**53)), M=st.sampled_from([1, 2, 4]))
def test_outage_bound_is_finite_or_rejected(N, M):
    config = NetworkConfig(
        M=M, N=25, P=100.0, N_o=1.0, T_f=50, k_o=10.0, epsilon_o=0.05, delta=0.5, seed=1
    )
    try:
        report = outage_bound(N, config)
    except InfeasibleEpsilonError:  # k1 <= k2, which holds only at small N
        assert N < 1000
        return
    except DomainError as e:
        assert "N is too large" in str(e) and N > 2**53
        return
    for name in ("rate", "k1", "k2", "k3", "bound_finite"):
        assert math.isfinite(getattr(report, name)), name


def test_report_schema(make_config):
    report = outage_bound(200, make_config(M=2, epsilon_o=0.05))
    assert set(dataclasses.asdict(report)) == {
        "N", "M", "epsilon_o", "delta", "k1", "k2", "k3", "c_1", "rate",
        "term1", "term2", "term3", "bound_finite", "bound_asymptotic",
    }
