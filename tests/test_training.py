import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import feedbeam.training
import feedbeam.util
from feedbeam import (
    CapacityError,
    ChannelRealization,
    ConfigError,
    DimensionError,
    NetworkConfig,
    RandomStream,
    abs_moment,
    ensemble_gain_stats,
    generate_channels,
    run_convergence,
    train_ensemble,
    train_network,
)
from feedbeam.training import (
    FLIP_BLOCK,
    _flip_cells,
    _traces,
    map_networks,
    network_chunk,
    plan_networks,
)
from feedbeam.util import TRAJ_CHUNK, TRIAL_CHUNK


# ---------------------------------------------------------------------------
# step 1: initialization


def test_init_level_is_scaled_channel_sum(make_config):
    # Perfect mode: frame 0 holds all-ones weights and the channel sum.
    cfg = make_config(N=3, P=3.0)
    H = np.array([[1.0, -2.0, 0.5], [0.25, 0.5, -1.5]])
    res = train_ensemble(H, cfg, RandomStream(cfg.seed, "init"), n_frames=1, record_trace=True)
    assert np.array_equal(res.weights, np.ones((2, 3)))
    assert res.gain[:, 0] == pytest.approx([-0.5, -0.75])
    assert np.array_equal(res.final_gain, res.gain[:, 0])
    assert list(res.aligned_count[:, 0]) == [2, 2]
    assert not res.accepted.any()
    # Noisy mode at N=1, replayed draw for draw: every frame flips the one
    # source, and the proposal is kept iff sqrt(P/N) * (its gain) plus that
    # frame's estimation error beats the stored best level, which starts at
    # sqrt(P/N) * h plus the first error.
    cfg = make_config(N=1, P=2.0, T_f=4, N_o=1.0, estimation_mode="noisy")
    h = np.linspace(-1.0, 1.0, 201)
    stream = RandomStream(cfg.seed, "init-noise")
    res = train_ensemble(h[:, np.newaxis], cfg, stream, n_frames=3, record_trace=True)
    noise = stream.child("noise").generator()
    scale, sigma = math.sqrt(2.0), 0.5
    a = np.ones(h.size)
    best = scale * h + sigma * noise.standard_normal(h.size)
    for t in (1, 2):
        level = scale * -(h * a) + sigma * noise.standard_normal(h.size)
        keep = level > best
        assert 0 < keep.sum() < h.size
        assert np.array_equal(res.accepted[:, t], keep)
        a = np.where(keep, -a, a)
        best = np.where(keep, level, best)
    assert np.array_equal(res.weights[:, 0], a)


def test_init_single_source(make_config):
    cfg = make_config(N=1, P=1.0)
    res = train_ensemble(np.array([[0.7]]), cfg, RandomStream(cfg.seed, "one"), n_frames=1)
    assert res.final_gain == pytest.approx([0.7])
    assert np.array_equal(res.weights, [[1.0]])


def test_noisy_single_source_first_frame_accept_probability(make_config):
    # N=1 flips every frame, so frame 1 proposes -h against the stored +h:
    # accepted iff sqrt(P/N)*(-h) + sigma*z1 > sqrt(P/N)*h + sigma*z0, which
    # for h < 0 has probability Phi(sqrt(2) * sqrt(P/N) * |h| / sigma). A
    # wrong level scale or noise variance, or a reused estimation error,
    # moves the rate by many standard errors.
    cfg = make_config(N=1, P=1.0, T_f=4, N_o=1.0, estimation_mode="noisy")
    trials, h = 100_000, -0.2
    H = np.full((trials, 1), h)
    stream = RandomStream(cfg.seed, "noisy-accept")
    res = train_ensemble(H, cfg, stream, n_frames=2, record_trace=True)
    target = NormalDist().cdf(math.sqrt(2.0) * abs(h) / cfg.estimate_std)
    rate = res.accepted[:, 1].mean()
    assert abs(rate - target) < 4.0 * math.sqrt(target * (1.0 - target) / trials)
    assert np.array_equal(res.weights[:, 0] < 0, res.accepted[:, 1])


def test_init_rejects_wrong_length(make_config):
    cfg = make_config(N=3)
    with pytest.raises(DimensionError):
        train_ensemble(np.ones(3), cfg, RandomStream(0, "x"))  # a vector, not a (B, N) batch
    with pytest.raises(DimensionError):
        train_ensemble(np.ones((2, 4)), cfg, RandomStream(0, "x"))


# ---------------------------------------------------------------------------
# step 2: flip proposals and the accept rule


def test_perturb_flips_deterministically_at_single_source():
    # Flip probability 1/N = 1: every cell flips, each once.
    cells = _flip_cells(RandomStream(0, "p").generator(), 5000, 1)
    assert np.array_equal(cells, np.arange(5000))


class _ShortBatches:
    """A generator whose ``geometric`` and ``standard_exponential`` return at
    most ``batch`` draws per call."""

    def __init__(self, gen, batch):
        self.gen, self.batch, self.calls = gen, batch, 0

    def geometric(self, p, size):
        self.calls += 1
        return self.gen.geometric(p, min(size, self.batch))

    def standard_exponential(self, size):
        self.calls += 1
        return self.gen.standard_exponential(min(size, self.batch))


def test_flip_cells_refill_matches_one_long_draw():
    # Short batches force several refills; batches of one stream concatenate
    # bit for bit, so the cells equal those of one long draw.
    n, n_cells = 10, 5000
    gen = _ShortBatches(RandomStream(11, "refill").generator(), 37)
    cells = _flip_cells(gen, n_cells, n)
    assert gen.calls > 5
    long_draw = RandomStream(11, "refill").generator().geometric(1.0 / n, 4 * n_cells // n)
    pos = np.cumsum(long_draw) - 1
    assert pos[-1] >= n_cells
    assert np.array_equal(cells, pos[pos < n_cells])


def test_flip_cells_refill_with_unit_gaps_flips_every_cell():
    # Gaps of 1 where p = 1/1000 expects gaps near 1000: each batch ends short of
    # the last cell, so the kernel refills until it passes it.
    class UnitGaps:
        def geometric(self, p, size):
            return np.ones(size, dtype=np.int64)

        def standard_exponential(self, size):  # ceil(E / -log1p(-p)) = 1
            return np.full(size, 1e-12)

    assert np.array_equal(_flip_cells(UnitGaps(), 100, 1000), np.arange(100))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 400])
def test_flip_cells_are_the_cumulative_geometric_gaps(n):
    # Below p = 1/3 the gaps come from exponential draws, from p = 1/3 on from
    # gen.geometric; either way they are numpy's geometric(1/n) draws, bit for bit.
    n_cells = 4000 * n
    cells = _flip_cells(RandomStream(21, "gaps").generator(), n_cells, n)
    gaps = RandomStream(21, "gaps").generator().geometric(1.0 / n, 8000)
    pos = np.cumsum(gaps) - 1
    assert pos[-1] >= n_cells
    assert np.array_equal(cells, pos[pos < n_cells])


def test_perturb_applies_flip_rule_elementwise():
    # Cells come out sorted and distinct, inside the block, and uniform over
    # the sources of a frame and over the trials of a block.
    n, trials, frames = 7, 40, 300
    gen = RandomStream(5, "cells").generator()
    per_source = np.zeros(n)
    per_trial = np.zeros(trials)
    for _ in range(10):
        cells = _flip_cells(gen, frames * trials * n, n)
        assert np.all(np.diff(cells) > 0)
        assert cells[0] >= 0 and cells[-1] < frames * trials * n
        per_source += np.bincount(cells % n, minlength=n)
        per_trial += np.bincount(cells // n % trials, minlength=trials)
    assert stats.chisquare(per_source).pvalue > 1e-3
    assert stats.chisquare(per_trial).pvalue > 1e-3


def test_perturb_expected_flip_count_is_one():
    # Flips per (frame, trial) follow Binomial(N, 1/N), mean 1, across
    # repeated block draws from one generator.
    n, groups = 10, 4000
    gen = RandomStream(3, "flips").generator()
    counts = np.concatenate(
        [np.bincount(_flip_cells(gen, groups * n, n) // n, minlength=groups) for _ in range(10)]
    )
    assert abs(counts.mean() - 1.0) < 4.0 * math.sqrt((1 - 1 / n) / counts.size)
    k_max = 4  # pool the tail k >= 4
    observed = np.bincount(np.minimum(counts, k_max), minlength=k_max + 1)
    pmf = stats.binom.pmf(np.arange(k_max), n, 1 / n)
    expected = counts.size * np.append(pmf, 1.0 - pmf.sum())
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_received_level_exact_values(make_config):
    # Frame 1 from all-ones weights at h = (1, -2, 0.5), gain -0.5. Of the
    # eight flip sets, exactly the four that flip source 1 raise the level:
    # {1} -> 3.5, {0,1} -> 1.5, {1,2} -> 2.5, {0,1,2} -> 0.5. The empty set
    # ties and every other set lowers it, so those keep the weights.
    cfg = make_config(N=3, P=3.0)
    trials = 30_000
    h = np.array([1.0, -2.0, 0.5])
    H = np.broadcast_to(h, (trials, 3))
    res = train_ensemble(H, cfg, RandomStream(cfg.seed, "levels"), n_frames=2, record_trace=True)
    acc = res.accepted[:, 1]
    assert np.array_equal(res.weights[~acc], np.ones(((~acc).sum(), 3)))
    assert np.all(res.gain[~acc, 1] == -0.5)
    # kept weights -> (gain, probability of that flip set at p = 1/3)
    outcomes = {
        (1.0, -1.0, 1.0): (3.5, 4 / 27),
        (-1.0, -1.0, 1.0): (1.5, 2 / 27),
        (1.0, -1.0, -1.0): (2.5, 2 / 27),
        (-1.0, -1.0, -1.0): (0.5, 1 / 27),
    }
    seen = np.zeros(trials, dtype=bool)
    for weights, (gain, prob) in outcomes.items():
        rows = np.all(res.weights == weights, axis=1)
        assert np.all(res.gain[rows, 1] == gain)
        assert abs(rows.mean() - prob) < 4.0 * math.sqrt(prob * (1 - prob) / trials)
        seen |= rows
    assert np.array_equal(seen, acc)


# ---------------------------------------------------------------------------
# full training block


def test_train_group_single_source_full_enumeration(make_config):
    # N=1: frame 1 flips with probability 1 and 0.7 > -0.7 is accepted;
    # afterwards every proposal flips back and is rejected, so the feedback
    # rule's accept and reject branches both show in one trace.
    cfg = make_config(N=1, P=1.0, k_o=6.0, seed=9)
    h = np.array([-0.7])
    res = train_ensemble(h[np.newaxis], cfg, RandomStream(cfg.seed, "t"), record_trace=True)
    assert np.array_equal(res.weights[0], [-1.0])
    assert res.gain[0] == pytest.approx([-0.7, 0.7, 0.7, 0.7, 0.7, 0.7])
    assert list(res.accepted[0]) == [False, True, False, False, False, False]
    assert list(res.aligned_count[0]) == [0, 1, 1, 1, 1, 1]


def test_gain_is_monotone_and_capped(make_config):
    cfg = make_config(N=16, k_o=10.0, seed=11)
    gen = RandomStream(cfg.seed, "h").generator()
    for trial in range(20):
        h = gen.standard_normal(cfg.N)
        res = train_ensemble(
            h[np.newaxis], cfg, RandomStream(cfg.seed, f"t/{trial}"), record_trace=True
        )
        gain, aligned = res.gain[0], res.aligned_count[0]
        assert np.all(np.diff(gain) >= 0)
        ceiling = np.abs(h).sum()
        assert np.all(gain <= ceiling + 1e-12)
        assert np.array_equal(np.isclose(gain, ceiling), aligned == cfg.N)


def test_absorption_is_permanent(make_config):
    cfg = make_config(N=4, k_o=40.0, seed=21)
    gen = RandomStream(cfg.seed, "h").generator()
    h = gen.standard_normal(cfg.N)
    res = train_ensemble(h[np.newaxis], cfg, RandomStream(cfg.seed, "t"), record_trace=True)
    aligned = res.aligned_count[0]
    hits = np.flatnonzero(aligned == cfg.N)
    assert hits.size > 0  # long block at N=4 reaches sign(h)
    first = hits[0]
    assert np.all(aligned[first:] == cfg.N)
    assert np.allclose(res.gain[0, first:], np.abs(h).sum())


_CHANNEL_ENTRY = st.floats(1e-3, 1e3).flatmap(lambda x: st.sampled_from([x, -x]))


@st.composite
def perfect_ensembles(draw, max_n=6, max_k_o=30.0):
    """A small perfect-mode config and a (B, N) channel batch."""
    n, b = draw(st.integers(1, max_n)), draw(st.integers(1, 5))
    config = NetworkConfig(
        M=1, N=n, P=draw(st.floats(0.1, 100.0)), N_o=1.0, T_f=20, k_o=draw(st.floats(1.0, max_k_o)),
        epsilon_o=0.1, delta=0.5, seed=draw(st.integers(0, 2**32)), estimation_mode="perfect",
    )
    H = np.array(draw(st.lists(_CHANNEL_ENTRY, min_size=b * n, max_size=b * n))).reshape(b, n)
    return config, H


@settings(max_examples=200, deadline=None)
@given(case=perfect_ensembles())
def test_perfect_mode_recorded_gain_never_decreases(case):
    config, H = case
    res = train_ensemble(H, config, RandomStream(config.seed, "mono"), record_trace=True)
    assert np.all(np.diff(res.gain, axis=1) >= 0)
    assert np.all(res.gain[:, 0] == H.sum(axis=1))


@settings(max_examples=200, deadline=None)
@given(case=perfect_ensembles())
def test_reaching_the_ceiling_is_permanent_and_ends_acceptance(case):
    config, H = case
    res = train_ensemble(H, config, RandomStream(config.seed, "ceiling"), record_trace=True)
    for h, gain, aligned, accepted in zip(H, res.gain, res.aligned_count, res.accepted):
        hits = np.flatnonzero(aligned == config.N)
        if hits.size == 0:
            continue
        first = hits[0]
        assert np.all(aligned[first:] == config.N)
        assert gain[first] == pytest.approx(np.abs(h).sum(), rel=1e-12)
        assert np.all(gain[first:] == gain[first])
        assert not accepted[first + 1 :].any()


def test_trajectory_is_scale_equivariant(make_config):
    cfg = make_config(N=32, k_o=5.0, seed=31)
    h = RandomStream(cfg.seed, "h").generator().standard_normal(cfg.N)
    stream = RandomStream(cfg.seed, "shared")
    r1 = train_ensemble(h[np.newaxis], cfg, stream, record_trace=True)
    r2 = train_ensemble(3.7 * h[np.newaxis], cfg, stream, record_trace=True)
    assert np.array_equal(r1.weights, r2.weights)
    assert np.array_equal(r1.accepted, r2.accepted)
    assert np.allclose(r2.gain, 3.7 * r1.gain, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(case=perfect_ensembles(max_n=8, max_k_o=20.0), k=st.integers(-30, 30))
def test_power_of_two_scaling_is_exact(case, k):
    # Scaling H by c = 2^k scales every product and sum exactly, so each
    # acceptance decision is the same and every gain is exactly c times.
    config, H = case
    c = 2.0**k
    base, scaled = (
        train_ensemble(G, config, RandomStream(config.seed, "scale"), record_trace=True)
        for G in (H, c * H)
    )
    assert np.array_equal(scaled.weights, base.weights)
    assert np.array_equal(scaled.accepted, base.accepted)
    assert np.array_equal(scaled.aligned_count, base.aligned_count)
    assert np.array_equal(scaled.gain, c * base.gain)
    assert np.array_equal(scaled.final_gain, c * base.final_gain)


def _reference_train_ensemble(H, config, stream, n_frames, record_trace):
    """The frame loop that kept the weights A and gathered h at the flipped cells.

    Test-only: ``train_ensemble`` must match it bit for bit, draw for draw.
    """
    B, N = H.shape
    total = n_frames
    gen_u = stream.child("perturb").generator()
    noisy = config.estimation_mode == "noisy"
    gen_w = stream.child("noise").generator() if noisy else None
    scale = (config.P / config.N) ** 0.5
    sigma = config.estimate_std

    A = np.ones((B, N))
    a_flat = A.reshape(-1)
    gain = H.sum(axis=1)
    best = scale * gain
    if noisy:
        best = best + sigma * gen_w.standard_normal(B)

    rec_gain = rec_aligned = rec_accepted = None
    if record_trace:
        rec_gain = np.empty((B, total))
        rec_aligned = np.empty((B, total), dtype=np.min_scalar_type(N))
        rec_accepted = np.zeros((B, total), dtype=bool)
        aligned = (H > 0).sum(axis=1)
        rec_gain[:, 0] = gain
        rec_aligned[:, 0] = aligned

    frame_cells = B * N
    block = max(1, FLIP_BLOCK // max(B, 1))
    for t0 in range(1, total, block):
        n_block = min(block, total - t0)
        cells = _flip_cells(gen_u, n_block * frame_cells, N)
        bounds = np.searchsorted(cells, np.arange(n_block + 1) * frame_cells)
        cells %= frame_cells
        rows = cells // N
        h_cells = H[rows, cells - rows * N]
        for k in range(n_block):
            lo, hi = bounds[k], bounds[k + 1]
            cell, row = cells[lo:hi], rows[lo:hi]
            ha = h_cells[lo:hi] * a_flat[cell]
            delta = -2.0 * np.bincount(row, weights=ha, minlength=B)
            if noisy:
                level = scale * (gain + delta) + sigma * gen_w.standard_normal(B)
                acc = level > best
                best = np.where(acc, level, best)
            else:
                acc = delta > 0
            gain = np.where(acc, gain + delta, gain)
            hit = acc[row]
            a_flat[cell[hit]] *= -1.0
            if record_trace:
                aligned -= np.bincount(row[hit], weights=np.sign(ha[hit]), minlength=B).astype(
                    aligned.dtype
                )
                rec_gain[:, t0 + k] = gain
                rec_aligned[:, t0 + k] = aligned
                rec_accepted[:, t0 + k] = acc

    return A, (H * A).sum(axis=1), rec_gain, rec_aligned, rec_accepted


# Signed zeros, a value whose products and sums round, ties and plain floats.
_EDGE_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 2.0, -2.0]), _CHANNEL_ENTRY)


def _bits(a):
    return a.view(np.uint64) if a.dtype == np.float64 else a


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(["perfect", "noisy"]),
    record_trace=st.booleans(),
    b=st.integers(1, 5),
    n=st.integers(1, 8),
    n_frames=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_ensemble_matches_the_reference_loop_bit_for_bit(
    mode, record_trace, b, n, n_frames, seed, data
):
    config = NetworkConfig(
        M=1, N=n, P=4.0, N_o=1.0, T_f=20, k_o=5.0, epsilon_o=0.1, delta=0.5, seed=seed,
        estimation_mode=mode,
    )
    H = np.array(data.draw(st.lists(_EDGE_ENTRY, min_size=b * n, max_size=b * n))).reshape(b, n)
    stream = RandomStream(seed, "reference")
    res = train_ensemble(H, config, stream, n_frames=n_frames, record_trace=record_trace)
    ref = _reference_train_ensemble(H, config, stream, n_frames, record_trace)
    fields = (res.weights, res.final_gain, res.gain, res.aligned_count, res.accepted)
    for got, want in zip(fields, ref):
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("mode", ["perfect", "noisy"])
@pytest.mark.parametrize("M", [1, 3])
def test_network_training_is_one_ensemble_call_over_the_own_links(make_config, M, mode):
    cfg = make_config(M=M, N=6, k_o=4.0, seed=51, estimation_mode=mode, T_f=10)
    h = RandomStream(cfg.seed, "ch").generator().standard_normal((M, M, cfg.N))
    stream = RandomStream(cfg.seed, "net")
    res = train_network(ChannelRealization(h), cfg, stream)
    m = np.arange(M)
    ref = train_ensemble(h[m, m, :], cfg, stream, record_trace=True)
    for field in ("weights", "final_gain", "gain", "aligned_count", "accepted"):
        assert np.array_equal(getattr(res, field), getattr(ref, field)), field


def test_network_total_frames_and_dimension_check(make_config):
    cfg = make_config(M=3, N=5, k_o=4.0, seed=61)
    h = RandomStream(cfg.seed, "ch").generator().standard_normal((3, 3, 5))
    res = train_network(ChannelRealization(h), cfg, RandomStream(cfg.seed, "net"))
    assert res.weights.shape == (3, 5)
    assert res.gain.shape == res.aligned_count.shape == res.accepted.shape == (3, cfg.block_frames)
    assert res.gain.size == cfg.M * cfg.block_frames
    with pytest.raises(DimensionError):
        train_network(ChannelRealization(h), cfg.replace(M=2), RandomStream(0, "x"))


def test_final_weights_are_independent_of_cross_channels(make_config):
    # Train group 1 of an M=2 network on its own channel; its weights must be
    # uncorrelated with the cross coefficients seen by destination 0. Uses
    # the lockstep ensemble (bit-identical to the per-trial path).
    cfg = make_config(M=2, N=8, k_o=5.0, seed=71, trials=10_000)
    gen = RandomStream(cfg.seed, "ch").generator()
    own = gen.standard_normal((cfg.trials, cfg.N))       # h[1, 1, :]
    cross = gen.standard_normal((cfg.trials, cfg.N))     # h[0, 1, :]
    res = train_ensemble(own, cfg, RandomStream(cfg.seed, "train"))
    corr = float(np.mean(cross * res.weights))
    assert abs(corr) < 3.0 / math.sqrt(cfg.trials * cfg.N)


def test_final_weight_signs_are_symmetric(make_config):
    # The +-1/2 split holds once training has converged to sign(h); the
    # all-ones initialization biases unconverged runs toward +1, so use a
    # block long enough that the residual bias is far below the test noise.
    cfg = make_config(N=5, k_o=40.0, seed=81, trials=10_000)
    h = RandomStream(cfg.seed, "ch").generator().standard_normal((cfg.trials, cfg.N))
    res = train_ensemble(h, cfg, RandomStream(cfg.seed, "train"))
    share = (res.weights > 0).mean(axis=0)
    assert np.all(np.abs(share - 0.5) < 4.0 * math.sqrt(0.25 / cfg.trials))
    # final_gain is recomputed from the weights, not carried across frames.
    assert np.array_equal(res.final_gain, (h * res.weights).sum(axis=1))


def test_ensemble_trace_matches_recount_at_every_recorded_frame(make_config):
    # Recorded gains and aligned counts are kept incrementally. A run cut
    # after frame t draws the same proposals as the full run up to t, so its
    # final weights give a recount of column t, for every frame t.
    for mode in ("perfect", "noisy"):
        cfg = make_config(N=5, k_o=8.0, seed=131, estimation_mode=mode, T_f=10)
        H = RandomStream(cfg.seed, "h").generator().standard_normal((30, cfg.N))
        stream = RandomStream(cfg.seed, "recount")
        res = train_ensemble(H, cfg, stream, record_trace=True)
        assert res.gain.shape == (H.shape[0], cfg.block_frames)
        for t in range(cfg.block_frames):
            cut = train_ensemble(H, cfg, stream, n_frames=t + 1)
            assert np.array_equal(res.aligned_count[:, t], (H * cut.weights > 0).sum(axis=1))
            assert np.allclose(res.gain[:, t], cut.final_gain, rtol=1e-12, atol=0)
        assert np.allclose(res.gain[:, -1], res.final_gain, rtol=1e-12, atol=0)


def test_run_convergence_reaches_ceiling_quickly(make_config):
    cfg = make_config(M=1, N=50, k_o=10.0, seed=91, trials=20)
    res = run_convergence(cfg, RandomStream(cfg.seed, "conv"))
    t10 = 10 * cfg.N - 1
    ratio = res.gain[:, 0, t10].mean() / res.abs_sum.mean()
    assert ratio >= 0.9
    assert np.all(np.diff(res.gain, axis=2) >= 0)


def test_run_convergence_worker_count_does_not_change_results(make_config):
    cfg = make_config(M=1, N=10, k_o=5.0, seed=101, trials=600)  # 3 chunks
    a = run_convergence(cfg, RandomStream(cfg.seed, "conv"), workers=1)
    b = run_convergence(cfg, RandomStream(cfg.seed, "conv"), workers=3)
    assert np.array_equal(a.gain, b.gain)
    assert np.array_equal(a.abs_sum, b.abs_sum)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_of_several_chunks_is_its_chunks_in_order(make_config, workers):
    # Each chunk is copied into its own rows of the run's arrays: the run equals
    # the concatenation of its chunks, each redrawn alone.
    cfg = make_config(M=2, N=4, k_o=3.0, seed=151, trials=2 * TRIAL_CHUNK + 5)
    stream = RandomStream(cfg.seed, "several")
    res = run_convergence(cfg, stream, workers=workers)
    sizes = plan_networks(cfg, True, record_trace=True)
    assert len(sizes) == 3
    parts = [
        network_chunk(_traces, cfg, stream, c, size, True, True) for c, size in enumerate(sizes)
    ]
    for name, *chunks in zip(("gain", "aligned_count", "accepted", "abs_sum"), *parts):
        got, want = getattr(res, name), np.concatenate(chunks)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("N, dtype", [(8, np.uint8), (300, np.uint16)])
def test_aligned_count_is_held_in_the_narrowest_type(make_config, N, dtype):
    # The count runs from 0 to N, so np.min_scalar_type(N) holds every value.
    cfg = make_config(M=2, N=N, k_o=1.0, trials=2)
    assert np.min_scalar_type(N) == dtype
    res = run_convergence(cfg, RandomStream(cfg.seed, "narrow"))
    assert res.aligned_count.dtype == dtype
    H = RandomStream(cfg.seed, "h").generator().standard_normal((3, N))
    trained = train_ensemble(H, cfg, RandomStream(cfg.seed, "t"), record_trace=True)
    assert trained.aligned_count.dtype == dtype
    assert np.array_equal(trained.aligned_count[:, -1], (H * trained.weights > 0).sum(axis=1))


def test_network_chunk_stream_layout_is_pinned(make_config):
    # Chunk 0 redrawn by hand: its channel tensor from chunk/0/channels and
    # one lockstep training of all own links from chunk/0/train, row t*M + i
    # holding trial t's group i. Every Monte Carlo command reads its networks
    # through this layout.
    cfg = make_config(M=2, N=6, k_o=3.0, seed=131, trials=5)
    stream = RandomStream(cfg.seed, "layout")
    res = run_convergence(cfg, stream)
    chunk = stream.child("chunk/0")
    h = chunk.child("channels").generator().standard_normal((cfg.trials, cfg.M, cfg.M, cfg.N))
    m = np.arange(cfg.M)
    own = h[:, m, m, :].reshape(-1, cfg.N)
    ref = train_ensemble(own, cfg, chunk.child("train"), record_trace=True)
    for t in range(cfg.trials):
        for i in range(cfg.M):
            row = t * cfg.M + i
            assert np.array_equal(res.gain[t, i], ref.gain[row])
            assert np.array_equal(res.aligned_count[t, i], ref.aligned_count[row])
            assert np.array_equal(res.accepted[t, i], ref.accepted[row])
            assert res.abs_sum[t, i] == np.abs(own[row]).sum()


@pytest.mark.parametrize("mode", ["perfect", "noisy"])
@pytest.mark.parametrize("M", [1, 3])
def test_one_trial_convergence_is_train_network(make_config, M, mode):
    # A one-network chunk trains exactly as train_network does on the same draws.
    cfg = make_config(M=M, N=6, k_o=4.0, seed=141, estimation_mode=mode, T_f=10, trials=1)
    stream = RandomStream(cfg.seed, "one")
    res = run_convergence(cfg, stream)
    ref = train_network(
        generate_channels(cfg, stream.child("chunk/0/channels")), cfg, stream.child("chunk/0/train")
    )
    assert np.array_equal(res.gain[0], ref.gain)
    assert np.array_equal(res.aligned_count[0], ref.aligned_count)
    assert np.array_equal(res.accepted[0], ref.accepted)


def test_run_group_final_gains_deterministic(make_config):
    cfg = make_config(N=10, k_o=5.0, seed=111, trials=300)
    r1 = run_convergence(cfg, RandomStream(cfg.seed, "fin"))
    r2 = run_convergence(cfg, RandomStream(cfg.seed, "fin"), workers=2)
    g1, s1 = r1.gain[:, 0, -1], r1.abs_sum[:, 0]
    assert np.array_equal(g1, r2.gain[:, 0, -1])
    assert np.array_equal(s1, r2.abs_sum[:, 0])
    assert np.all(g1 <= s1 + 1e-12)


def test_epsilon_level_energy_heuristic(make_config):
    # Long blocks should leave the mean gain close to the ceiling:
    # a coarse version of the epsilon-level guarantee at small scale.
    cfg = make_config(N=30, k_o=20.0, seed=121, trials=100)
    gains = run_convergence(cfg, RandomStream(cfg.seed, "fin")).gain[:, 0, -1]
    assert gains.mean() >= (1 - 2 * 0.1) * cfg.N * abs_moment()


def _chunk_trials(config, h, trained, sub):
    # A chunk that trains nothing hands its reducer the channels as row blocks.
    return h.shape[0] if trained is not None else sum(len(block) for block in h)


def test_map_networks_chunk_size_follows_training(make_config):
    # Runs that train take TRIAL_CHUNK trials per chunk, others TRAJ_CHUNK.
    cfg = make_config(M=1, N=2, k_o=1.0, trials=TRIAL_CHUNK + 1)
    stream = RandomStream(cfg.seed, "chunks")
    assert map_networks(_chunk_trials, cfg, stream, True) == plan_networks(cfg, True)
    assert plan_networks(cfg, True) == [TRIAL_CHUNK, 1]
    assert TRAJ_CHUNK > cfg.trials
    assert map_networks(_chunk_trials, cfg, stream, False) == plan_networks(cfg, False) == [cfg.trials]


def _spy_chunk_sizes(monkeypatch):
    """The chunk sizes of the tasks of each `map_chunks` call that `map_networks` makes."""
    calls = []
    map_chunks = feedbeam.training.map_chunks

    def spy(worker, tasks, workers=1):
        calls.append([task[4] for task in tasks])  # (reduce, config, stream, c, size, ...)
        return map_chunks(worker, tasks, workers)

    monkeypatch.setattr(feedbeam.training, "map_chunks", spy)
    return calls


@pytest.mark.parametrize("train", [True, False], ids=["trained", "untrained"])
def test_map_networks_refuses_a_chunk_over_the_byte_limit(make_config, monkeypatch, train):
    # A chunk of 3 networks at M = 2, N = 5 draws 3 * 2 * 2 * 5 doubles.
    monkeypatch.setattr(feedbeam.util, "CHUNK_BYTES_LIMIT", 3 * 2 * 2 * 5 * 8)
    sizes = _spy_chunk_sizes(monkeypatch)
    stream = RandomStream(1, "cap")
    cfg = make_config(M=2, N=5, k_o=1.0, trials=3)
    assert map_networks(_chunk_trials, cfg, stream, train) == [3]
    assert sizes == [plan_networks(cfg, train)] == [[3]]
    with pytest.raises(CapacityError, match="N=6 take 576 bytes, over 480"):
        map_networks(_chunk_trials, cfg.replace(N=6), stream, train)
    with pytest.raises(CapacityError, match="N=6 take 576 bytes, over 480"):
        plan_networks(cfg.replace(N=6), train)
    # The first chunk is the largest, so more trials than one chunk holds are refused too.
    more = cfg.replace(trials=max(TRIAL_CHUNK, TRAJ_CHUNK) + 1)
    with pytest.raises(CapacityError):
        map_networks(_chunk_trials, more, stream, train)
    assert sizes == [[3]]


def test_map_networks_counts_trace_bytes_against_the_limit(make_config, monkeypatch):
    # Recording traces adds, per group, trial and frame, 8 bytes of gain, one of
    # acceptance and the aligned count in the narrowest type that holds N, one
    # byte at N = 5: here 3 trials x 2 groups x 5 frames on top of the channels'
    # 480 bytes.
    cfg = make_config(M=2, N=5, k_o=1.0, trials=3)
    stream = RandomStream(1, "cap")
    sizes = _spy_chunk_sizes(monkeypatch)
    monkeypatch.setattr(feedbeam.util, "CHUNK_BYTES_LIMIT", 480 + 3 * 2 * 5 * 10)
    assert map_networks(_chunk_trials, cfg, stream, True, record_trace=True) == [3]
    assert sizes == [plan_networks(cfg, True, record_trace=True)] == [[3]]
    monkeypatch.setattr(feedbeam.util, "CHUNK_BYTES_LIMIT", 480 + 3 * 2 * 5 * 10 - 1)
    with pytest.raises(CapacityError, match="channels and traces at N=5 take 780 bytes"):
        map_networks(_chunk_trials, cfg, stream, True, record_trace=True)
    assert map_networks(_chunk_trials, cfg, stream, True) == [3]
    assert sizes == [[3], plan_networks(cfg, True)] == [[3], [3]]
    # At N = 300 the count is uint16, 11 bytes a frame beside 28800 bytes of channels.
    wide = cfg.replace(N=300)
    monkeypatch.setattr(feedbeam.util, "CHUNK_BYTES_LIMIT", 28800 + 3 * 2 * 300 * 11)
    assert plan_networks(wide, True, record_trace=True) == [3]
    monkeypatch.setattr(feedbeam.util, "CHUNK_BYTES_LIMIT", 28800 + 3 * 2 * 300 * 11 - 1)
    with pytest.raises(CapacityError, match="channels and traces at N=300 take 48600 bytes"):
        plan_networks(wide, True, record_trace=True)


@pytest.mark.parametrize(
    "t_list, message",
    [([], "t_list must name at least one frame"), ([-1, 5], "t must be >= 0, got -1"),
     ([2, -3], "t must be >= 0, got -3")],
    ids=["empty", "negative-first", "negative-last"],
)
def test_ensemble_gain_stats_refuses_bad_frames_before_any_draw(
    make_config, monkeypatch, t_list, message
):
    # Frame -1 once read the last recorded frame, and [] reached max() of nothing.
    def no_draw(self):
        raise AssertionError("a generator was created")

    monkeypatch.setattr(RandomStream, "generator", no_draw)
    cfg = make_config(N=4, trials=8)
    with pytest.raises(ConfigError, match=re.escape(message)):
        ensemble_gain_stats(np.ones(4), t_list, cfg, RandomStream(cfg.seed, "mc"))
