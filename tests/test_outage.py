import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedbeam import (
    ChannelRealization,
    ConfigError,
    DimensionError,
    DomainError,
    NetworkConfig,
    RandomStream,
    estimate_outage,
    interference_scaling_probe,
    outage_bound,
    sinr,
    train_ensemble,
)
from feedbeam.channel import link_amplitudes
from feedbeam.cli import _json_text
from feedbeam.outage import _idealized_amplitude
from feedbeam.special import clopper_pearson, q_inverse
from feedbeam.util import TRAJ_CHUNK


def test_sinr_without_interference(make_config):
    cfg = make_config(M=1, N=3, P=6.0, N_o=2.0)
    h = np.array([[[1.0, -2.0, 0.5]]])
    w = np.array([[1.0, -1.0, 1.0]])
    expected = (6.0 / 3.0) * 3.5**2 / 2.0
    assert sinr(ChannelRealization(h), w, 0, cfg) == pytest.approx(expected)


def test_sinr_two_group_example(make_config):
    cfg = make_config(M=2, N=1, P=1.0, N_o=1.0)
    h = np.zeros((2, 2, 1))
    h[0, 0, 0] = 2.0
    h[0, 1, 0] = 1.0
    h[1, 0, 0] = -0.3
    h[1, 1, 0] = 0.9
    w = np.ones((2, 1))
    assert sinr(ChannelRealization(h), w, 0, cfg) == pytest.approx(4.0 / 2.0)


def test_aligned_weights_maximize_signal(make_config):
    cfg = make_config(M=1, N=6, P=2.0, N_o=1.0)
    h = RandomStream(5, "h").generator().standard_normal((1, 1, 6))
    ch = ChannelRealization(h)
    best = sinr(ch, np.where(h[0] >= 0, 1.0, -1.0), 0, cfg)
    gen = RandomStream(5, "w").generator()
    for _ in range(25):
        w = np.where(gen.random((1, 6)) < 0.5, -1.0, 1.0)
        assert sinr(ch, w, 0, cfg) <= best + 1e-12


def test_sinr_validation(make_config):
    cfg = make_config(M=2, N=2)
    ch = ChannelRealization(np.ones((2, 2, 2)))
    with pytest.raises(DimensionError):
        sinr(ch, np.ones((1, 2)), 0, cfg)
    with pytest.raises(DimensionError):
        sinr(ch, 0.5 * np.ones((2, 2)), 0, cfg)
    with pytest.raises(DimensionError):
        sinr(ch, np.ones((2, 2)), 5, cfg)


def test_outage_at_extreme_rates(make_config):
    cfg = make_config(M=2, N=40, epsilon_o=0.05, trials=2000, seed=3)
    stream = RandomStream(cfg.seed, "outage")
    low = estimate_outage(cfg, 1e-9, "idealized", stream)
    assert low.outage_empirical == 0.0
    high = estimate_outage(cfg, 50.0, "idealized", stream)
    assert high.outage_empirical == 1.0
    assert high.stderr == 0.0
    with pytest.raises(DomainError):
        estimate_outage(cfg, 0.0, "idealized", stream)
    with pytest.raises(ConfigError):
        estimate_outage(cfg, 1.0, "oracle", stream)


def _beta_quantiles(k, n):
    """The interval from scipy's beta quantiles: the reference, in the tests only."""
    from scipy.stats import beta

    low = 0.0 if k == 0 else beta.ppf(0.025, k, n - k + 1)
    high = 1.0 if k == n else beta.ppf(0.975, k + 1, n - k)
    return low, high


@pytest.mark.parametrize(
    "k, n", [(0, 1), (1, 1), (0, 40), (1, 40), (3, 40), (39, 40), (40, 40), (17, 2000), (0, 100_000)]
)
def test_clopper_pearson_matches_beta_quantiles(k, n):
    low, high = clopper_pearson(k, n)
    assert (low, high) == pytest.approx(_beta_quantiles(k, n), rel=1e-10, abs=0.0)
    assert low <= k / n <= high
    if k == 0:
        # The upper end solves (1 - p)^n = 0.025.
        assert high == pytest.approx(-math.expm1(math.log(0.025) / n), rel=1e-12, abs=0.0)
        assert high > 0


@st.composite
def _binomial_counts(draw):
    """(k, n): n log-uniform in [1, 1e7], k uniform in [0, n] or one of 0, 1, n - 1, n."""
    n = round(10.0 ** draw(st.floats(0.0, 7.0)))
    k = draw(st.integers(0, n) | st.sampled_from([0, 1, n - 1, n]))
    return k, n


# The reference drifts: Boost's beta quantile behind scipy.stats.beta.ppf is off by up to
# 1.14e-10 relative at k = 1 for some n between 9.5e6 and 1e7 (against 30-digit mpmath), so
# a random draw there could fail on the reference alone. The examples are therefore fixed,
# and test_clopper_pearson_closed_forms checks that region without scipy.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(kn=_binomial_counts())
def test_clopper_pearson_matches_scipy_and_mirrors(kn):
    k, n = kn
    low, high = clopper_pearson(k, n)
    assert (low, high) == pytest.approx(_beta_quantiles(k, n), rel=1e-10, abs=0.0)
    assert low <= k / n <= high
    # n - k failures give the mirrored interval; near 1 the float spacing limits 1 - x.
    mirror_low, mirror_high = clopper_pearson(n - k, n)
    assert mirror_low == pytest.approx(1.0 - high, rel=1e-10, abs=1e-15)
    assert mirror_high == pytest.approx(1.0 - low, rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("n", [9_546_477, 9_935_962, 10**7])
def test_clopper_pearson_closed_forms(n):
    # At k = 0, 1, n - 1 and n the beta quantile is a power: Beta(1, m) and Beta(m, 1).
    ends = [clopper_pearson(0, n)[1], clopper_pearson(1, n)[0],
            clopper_pearson(n - 1, n)[1], clopper_pearson(n, n)[0]]
    powers = [-math.expm1(math.log(0.025) / n), -math.expm1(math.log(0.975) / n),
              math.exp(math.log(0.975) / n), math.exp(math.log(0.025) / n)]
    assert ends == pytest.approx(powers, rel=1e-13, abs=0.0)
    # The upper end at k = 1 solves P(Bin(n, x) <= 1) = (1 - x)^(n-1) (1 + (n-1) x) = 0.025.
    # A relative error e in x moves this log residual by about 4.7 e.
    x = clopper_pearson(1, n)[1]
    residual = (n - 1) * math.log1p(-x) + math.log1p((n - 1) * x) - math.log(0.025)
    assert abs(residual) < 1e-13


@pytest.mark.parametrize(
    "k, n",
    [(k, 10**12) for k in (0, 1, 3 * 10**11, 5 * 10**11, 10**12 - 1, 10**12)]
    + [(1, 2**53), (2**52, 2**53), (2**53 - 1, 2**53)],  # the last high end rounds to 1.0
)
def test_clopper_pearson_terminates_at_huge_n(k, n):
    low, high = clopper_pearson(k, n)
    assert 0.0 <= low <= k / n <= high <= 1.0 and low < high
    if min(k, n - k) >= 10**6:  # there the normal approximation holds to about 1e-6
        p = k / n
        half = q_inverse(0.025) * math.sqrt(p * (1.0 - p) / n)
        assert (high - low) / 2.0 == pytest.approx(half, rel=1e-5, abs=0.0)


def test_clopper_pearson_domain():
    for k, n in [(-1, 5), (6, 5), (0, 0)]:
        with pytest.raises(DomainError):
            clopper_pearson(k, n)


def test_outage_interval_is_informative_at_zero_outages(make_config):
    cfg = make_config(M=2, N=40, epsilon_o=0.05, trials=2000, seed=3)
    stream = RandomStream(cfg.seed, "outage")
    none = estimate_outage(cfg, 1e-9, "idealized", stream)
    assert none.outage_empirical == 0.0 and none.stderr == 0.0
    assert (none.ci_low, none.ci_high) == clopper_pearson(0, cfg.trials)
    assert none.ci_high == pytest.approx(1 - 0.025 ** (1 / cfg.trials), rel=1e-9)
    every = estimate_outage(cfg, 50.0, "idealized", stream)
    assert (every.ci_low, every.ci_high) == clopper_pearson(cfg.trials, cfg.trials)
    assert every.ci_high == 1.0 and every.ci_low < 1.0
    assert json.loads(_json_text(none))["ci_high"] == none.ci_high


@pytest.mark.parametrize(
    "mode, M", [("idealized", 1), ("idealized", 3), ("trained", 1), ("trained", 3)],
    ids=["idealized-M1", "idealized-M3", "trained-M1", "trained-M3"],
)
def test_outage_determinism_and_worker_independence(make_config, mode, M):
    # Three chunks in either mode, so that the workers really split the work.
    trials = 40_000 if mode == "idealized" else 600
    cfg = make_config(M=M, N=50, epsilon_o=0.05, trials=trials, seed=13)
    stream = RandomStream(cfg.seed, "outage")
    a = estimate_outage(cfg, 0.4, mode, stream, workers=1)
    b = estimate_outage(cfg, 0.4, mode, stream, workers=3)
    assert a == b
    assert math.isfinite(a.bound_finite)
    assert 0.0 <= a.outage_empirical <= 1.0
    assert a.stderr == pytest.approx(
        math.sqrt(a.outage_empirical * (1 - a.outage_empirical) / cfg.trials)
    )


def _reference_outage_count(cfg, rate, mode, stream):
    """Outage count of link 0 over full M-group networks, built without the
    estimator's shortcuts: (B, M, M, N) channels, weights for every group
    (sign(h_rr) with the sources of the k smallest uniforms reversed, or
    trained ones), and the SINR of link 0 from its link amplitudes.
    """
    B, M, N = cfg.trials, cfg.M, cfg.N
    h = stream.child("channels").generator().standard_normal((B, M, M, N))
    own = h[:, np.arange(M), np.arange(M)]
    if mode == "idealized":
        u = stream.child("flips").generator().random(own.shape)
        k = cfg.reverse_count
        reverse = u < np.sort(u, axis=-1)[..., k : k + 1]
        assert np.all(reverse.sum(axis=-1) == k)
        sign = np.where(own >= 0, 1.0, -1.0)
        w = np.where(reverse, -sign, sign)
    else:
        w = np.stack(
            [train_ensemble(own[:, r], cfg, stream.child(f"train/{r}")).weights for r in range(M)],
            axis=1,
        )
    c = link_amplitudes(h[:, :1], w)[:, 0]
    scale = cfg.P / N
    sinr_0 = scale * c[:, 0] ** 2 / (scale * np.sum(c[:, 1:] ** 2, axis=1) + cfg.N_o)
    return int(np.count_nonzero(sinr_0 < 2.0 ** (2.0 * rate) - 1.0))


@pytest.mark.parametrize(
    "mode, M, N, epsilon_o, rate",
    [
        ("idealized", 3, 50, 0.05, 1.4),
        ("idealized", 4, 60, 0.05, 1.2),
        # Many reversed sources, so that their count shows in the outage.
        ("idealized", 2, 20, 0.4, 0.1),
        ("trained", 3, 50, 0.05, 1.4),
        ("trained", 4, 60, 0.05, 1.2),
        # One interferer: numpy draws gamma shape 1/2 by another algorithm than shape >= 1.
        ("trained", 2, 50, 0.05, 1.4),
    ],
)
def test_outage_matches_full_network_reference(make_config, mode, M, N, epsilon_o, rate):
    # The estimator draws only link 0's own link and its N chi^2_{M-1} interference
    # power; the reference draws and trains every group of the network.
    cfg = make_config(M=M, N=N, P=4.0, epsilon_o=epsilon_o, trials=4000, seed=41)
    est = estimate_outage(cfg, rate, mode, RandomStream(cfg.seed, "outage"))
    ref = _reference_outage_count(cfg, rate, mode, RandomStream(cfg.seed, "reference")) / cfg.trials
    assert 0.01 <= ref <= 0.5 and 0.01 <= est.outage_empirical <= 0.5
    combined = math.sqrt((ref * (1 - ref) + est.stderr**2 * cfg.trials) / cfg.trials)
    assert abs(est.outage_empirical - ref) <= 4.0 * combined


def test_trained_single_group_outage_keeps_its_draws():
    # At M = 1 the estimator draws and trains exactly the networks it drew
    # before interference was sampled from its law; this count is pinned.
    cfg = NetworkConfig(
        M=1, N=50, P=100.0, N_o=1.0, T_f=50, k_o=10.0, epsilon_o=0.05, delta=0.5,
        seed=42, trials=3000,
    )
    res = estimate_outage(cfg, 5.6, "trained", RandomStream(cfg.seed, "outage"))
    assert res.outage_empirical == 308 / 3000


def test_bound_unavailable_at_small_n_reports_nan(make_config):
    # epsilon_o is feasible asymptotically but k1 <= k2 at this N: the
    # empirical estimate is still produced, with NaN bound fields.
    cfg = make_config(M=2, N=30, epsilon_o=0.05, trials=1000, seed=37)
    res = estimate_outage(cfg, 0.4, "idealized", RandomStream(cfg.seed, "outage"))
    assert math.isnan(res.bound_finite)
    assert json.loads(_json_text(res))["bound_finite"] is None
    again = estimate_outage(cfg, 0.4, "idealized", RandomStream(cfg.seed, "outage"))
    # NaN != NaN, so the reruns are compared by their JSON text.
    assert _json_text(res) == _json_text(again)


def test_bound_dominates_empirical_outage(make_config):
    cfg = make_config(M=2, N=100, epsilon_o=0.1, delta=0.5, trials=20_000, seed=17)
    report = outage_bound(cfg.N, cfg)
    res = estimate_outage(cfg, report.rate, "idealized", RandomStream(cfg.seed, "outage"))
    assert res.bound_finite == pytest.approx(report.bound_finite)
    assert res.outage_empirical <= res.bound_finite + 3.0 * res.stderr


def test_outage_nonincreasing_along_rate_schedule(make_config):
    points = []
    for n in (50, 100, 200):
        cfg = make_config(M=2, N=n, epsilon_o=0.05, delta=0.5, trials=10_000, seed=19)
        rate = outage_bound(n, cfg).rate
        points.append(estimate_outage(cfg, rate, "idealized", RandomStream(cfg.seed, f"o/{n}")))
    for a, b in zip(points, points[1:]):
        assert b.outage_empirical <= a.outage_empirical + 3.0 * (a.stderr + b.stderr)


def test_trained_mode_and_all_links(make_config):
    cfg = make_config(M=2, N=50, epsilon_o=0.05, k_o=5.0, trials=1000, seed=23)
    rate = outage_bound(cfg.N, cfg).rate
    res = estimate_outage(cfg, rate, "trained", RandomStream(cfg.seed, "outage"))
    assert res.mode == "trained"
    assert 0.0 <= res.outage_empirical <= 1.0


@pytest.mark.parametrize("mode", ["idealized", "trained"])
def test_estimate_outage_runs_at_huge_m(make_config, mode):
    # 2^40 - 1 interferers are one gamma draw per trial, not a (200, 2^40 - 1) tensor.
    cfg = make_config(M=2**40, N=200, epsilon_o=0.05, trials=200)
    res = estimate_outage(cfg, 0.5, mode, RandomStream(cfg.seed, "outage"))
    assert res.M == 2**40 and res.trials == 200
    assert 0.0 <= res.outage_empirical <= 1.0


def test_outage_keeps_nan_bounds_beyond_float_range(make_config):
    cfg = make_config(M=2, N=50, epsilon_o=0.05, delta=1000.0, trials=100)
    res = estimate_outage(cfg, 0.5, "idealized", RandomStream(cfg.seed, "outage"))
    assert math.isnan(res.bound_finite) and math.isnan(res.bound_asymptotic)
    doc = json.loads(_json_text(res))
    assert doc["bound_finite"] is None and doc["bound_asymptotic"] is None


def test_result_serialization_keys(make_config):
    cfg = make_config(M=2, N=50, epsilon_o=0.05, trials=100, seed=29)
    res = estimate_outage(cfg, 0.5, "idealized", RandomStream(cfg.seed, "outage"))
    assert set(dataclasses.asdict(res)) == {
        "N", "M", "epsilon_o", "delta", "rate", "trials", "outage_empirical",
        "stderr", "bound_finite", "bound_asymptotic", "mode", "ci_low", "ci_high",
    }


def test_interference_probe_statistics(make_config):
    cfg = make_config(M=2, N=10, k_o=5.0, trials=400, seed=31)
    probe = interference_scaling_probe(cfg, [25, 50, 100], RandomStream(cfg.seed, "probe"))
    for row in probe.rows:
        assert abs(row.control_sq / row.N - 1.0) < 0.25
        assert abs(row.mean_sq / row.N - 1.0) < 0.25
        assert abs(row.sample_mean) < 4.0 / math.sqrt(row.trials * row.N)
    assert 0.8 < probe.slope < 1.2
    with pytest.raises(ConfigError):
        interference_scaling_probe(cfg, [], RandomStream(cfg.seed, "probe"))


def test_interference_probe_rejects_repeated_n(make_config):
    cfg = make_config(M=1, N=30, trials=20)
    with pytest.raises(ConfigError, match="distinct"):
        interference_scaling_probe(cfg, [30, 30], RandomStream(cfg.seed, "probe"))


def _whole_chunk_idealized(cfg, rate, stream, c, size):
    """Chunk c of an idealized estimate with its channels redrawn as one
    (size, 1, 1, N) tensor: the own-link amplitudes s and the outage count.
    """
    sub = stream.child(f"chunk/{c}")
    h = sub.child("channels").generator().standard_normal((size, 1, 1, cfg.N))
    a = np.abs(h[:, 0, 0, :])
    s = a.sum(axis=1) - 2.0 * a[:, : cfg.reverse_count].sum(axis=1)
    y = 2.0 * cfg.N * sub.child("cross").generator().standard_gamma((cfg.M - 1) / 2.0, size)
    scale = cfg.P / cfg.N
    sinr_0 = scale * s**2 / (scale * y + cfg.N_o)
    return s, int(np.count_nonzero(sinr_0 < 2.0 ** (2.0 * rate) - 1.0))


@pytest.mark.parametrize(
    "N, rate, trials, slice_bytes, blocks",
    [
        # 655 rows of 1600 bytes fill the buffer; 1000 trials are not a multiple.
        (200, 0.75, 1000, None, [[655, 345]]),
        # A row of 160 bytes is larger than the buffer, so every block is one row.
        (20, 0.12, 5, 159, [[1] * 5]),
        # 6553 rows of 160 bytes per block, over two chunks.
        (20, 0.12, TRAJ_CHUNK + 3, None, [[6553, 6553, 3278], [3]]),
    ],
    ids=["ragged", "row-over-slice", "two-chunks"],
)
def test_idealized_row_blocks_match_the_whole_chunk_draw(
    make_config, monkeypatch, N, rate, trials, slice_bytes, blocks
):
    # A chunk that trains nothing draws its channels in row blocks of one
    # buffer; Philox draws in sequence equal one draw, so the own-link
    # amplitudes and the outage count are those of the whole-tensor draw.
    if slice_bytes is not None:
        monkeypatch.setattr("feedbeam.training.SLICE_BYTES", slice_bytes)
    seen = []

    def spy(h, k):
        seen.append(_idealized_amplitude(h, k))
        return seen[-1]

    monkeypatch.setattr("feedbeam.outage._idealized_amplitude", spy)
    cfg = make_config(M=2, N=N, P=0.02, epsilon_o=0.05, trials=trials, seed=7)
    stream = RandomStream(cfg.seed, "rows")
    res = estimate_outage(cfg, rate, "idealized", stream)
    assert [len(a) for a in seen] == [n for chunk in blocks for n in chunk]
    count, lo = 0, 0
    for c, chunk in enumerate(blocks):
        s, chunk_count = _whole_chunk_idealized(cfg, rate, stream, c, sum(chunk))
        assert np.array_equal(np.concatenate(seen[lo : lo + len(chunk)]), s)
        lo += len(chunk)
        count += chunk_count
    assert 0 < count < trials
    assert res.outage_empirical == count / trials


def test_idealized_outage_memory_does_not_scale_with_the_chunk(make_config):
    # A 16384-trial chunk at N = 200 is 26 MB of channels; drawn in row blocks
    # of at most 1 MiB, the estimate holds about 2 MB at its peak.
    cfg = make_config(M=2, N=200, P=0.02, epsilon_o=0.05, trials=TRAJ_CHUNK, seed=1)
    tracemalloc.start()
    try:
        estimate_outage(cfg, 0.7, "idealized", RandomStream(cfg.seed, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_idealized_outage_memory_does_not_scale_with_m(make_config):
    # 800 interferers of a 16384-trial chunk as amplitudes would take 105 MB;
    # one interference power draw per trial takes 131 kB.
    cfg = make_config(M=801, N=50, epsilon_o=0.05, trials=TRAJ_CHUNK, seed=1)
    tracemalloc.start()
    try:
        estimate_outage(cfg, 0.01, "idealized", RandomStream(cfg.seed, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
