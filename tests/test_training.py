import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from feedbeam import (
    ChannelRealization,
    DimensionError,
    RandomStream,
    abs_moment,
    run_convergence,
    run_group_final_gains,
    train_ensemble,
    train_group,
    train_network,
)
from feedbeam.training import _flip_cells


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
        train_group(np.ones(4), cfg, RandomStream(0, "x"))
    with pytest.raises(DimensionError):
        train_ensemble(np.ones((2, 4)), cfg, RandomStream(0, "x"))


# ---------------------------------------------------------------------------
# step 2: flip proposals and the accept rule


def test_perturb_flips_deterministically_at_single_source():
    # Flip probability 1/N = 1: every cell flips, each once.
    cells = _flip_cells(RandomStream(0, "p").generator(), 5000, 1)
    assert np.array_equal(cells, np.arange(5000))


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
    weights, trace = train_group(np.array([-0.7]), cfg, RandomStream(cfg.seed, "t"))
    assert np.array_equal(weights, [-1.0])
    assert trace.gain == pytest.approx([-0.7, 0.7, 0.7, 0.7, 0.7, 0.7])
    assert list(trace.accepted) == [False, True, False, False, False, False]
    assert list(trace.aligned_count) == [0, 1, 1, 1, 1, 1]


def test_gain_is_monotone_and_capped(make_config):
    cfg = make_config(N=16, k_o=10.0, seed=11)
    gen = RandomStream(cfg.seed, "h").generator()
    for trial in range(20):
        h = gen.standard_normal(cfg.N)
        _, trace = train_group(h, cfg, RandomStream(cfg.seed, f"t/{trial}"))
        assert np.all(np.diff(trace.gain) >= 0)
        ceiling = np.abs(h).sum()
        assert np.all(trace.gain <= ceiling + 1e-12)
        at_cap = np.isclose(trace.gain, ceiling)
        assert np.array_equal(at_cap, trace.aligned_count == cfg.N)


def test_absorption_is_permanent(make_config):
    cfg = make_config(N=4, k_o=40.0, seed=21)
    gen = RandomStream(cfg.seed, "h").generator()
    h = gen.standard_normal(cfg.N)
    _, trace = train_group(h, cfg, RandomStream(cfg.seed, "t"))
    hits = np.flatnonzero(trace.aligned_count == cfg.N)
    assert hits.size > 0  # long block at N=4 reaches sign(h)
    first = hits[0]
    assert np.all(trace.aligned_count[first:] == cfg.N)
    assert np.allclose(trace.gain[first:], np.abs(h).sum())


def test_trajectory_is_scale_equivariant(make_config):
    cfg = make_config(N=32, k_o=5.0, seed=31)
    h = RandomStream(cfg.seed, "h").generator().standard_normal(cfg.N)
    stream = RandomStream(cfg.seed, "shared")
    w1, tr1 = train_group(h, cfg, stream)
    w2, tr2 = train_group(3.7 * h, cfg, stream)
    assert np.array_equal(w1, w2)
    assert np.array_equal(tr1.accepted, tr2.accepted)
    assert np.allclose(tr2.gain, 3.7 * tr1.gain, rtol=1e-12)


def test_ensemble_batch_of_one_matches_reference_path(make_config):
    for mode in ("perfect", "noisy"):
        cfg = make_config(N=12, k_o=8.0, seed=41, estimation_mode=mode, T_f=10)
        h = RandomStream(cfg.seed, "h").generator().standard_normal(cfg.N)
        stream = RandomStream(cfg.seed, "twin")
        w_ref, tr_ref = train_group(h, cfg, stream)
        res = train_ensemble(h[np.newaxis, :], cfg, stream, record_trace=True)
        assert np.array_equal(res.weights[0], w_ref)
        assert np.array_equal(res.gain[0], tr_ref.gain)
        assert np.array_equal(res.accepted[0], tr_ref.accepted)
        assert np.array_equal(res.aligned_count[0], tr_ref.aligned_count)


def test_network_training_reduces_to_group_training_at_m1(make_config):
    cfg = make_config(M=1, N=6, k_o=4.0, seed=51)
    h = RandomStream(cfg.seed, "ch").generator().standard_normal((1, 1, cfg.N))
    stream = RandomStream(cfg.seed, "net")
    weights, traces = train_network(ChannelRealization(h), cfg, stream)
    w_ref, tr_ref = train_group(h[0, 0], cfg, stream.child("group/0"))
    assert np.array_equal(weights[0], w_ref)
    assert np.array_equal(traces[0].gain, tr_ref.gain)


def test_network_total_frames_and_dimension_check(make_config):
    cfg = make_config(M=3, N=5, k_o=4.0, seed=61)
    h = RandomStream(cfg.seed, "ch").generator().standard_normal((3, 3, 5))
    weights, traces = train_network(ChannelRealization(h), cfg, RandomStream(cfg.seed, "net"))
    assert weights.shape == (3, 5)
    assert sum(t.gain.size for t in traces) == cfg.M * cfg.block_frames
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
    # final weights give a recount at every recorded frame.
    for mode in ("perfect", "noisy"):
        cfg = make_config(N=5, k_o=8.0, seed=131, estimation_mode=mode, T_f=10)
        H = RandomStream(cfg.seed, "h").generator().standard_normal((30, cfg.N))
        stream = RandomStream(cfg.seed, "recount")
        for decimation in (1, 3):
            res = train_ensemble(H, cfg, stream, record_trace=True, decimation=decimation)
            for k, t in enumerate(res.frames):
                cut = train_ensemble(H, cfg, stream, n_frames=t + 1)
                assert np.array_equal(res.aligned_count[:, k], (H * cut.weights > 0).sum(axis=1))
                assert np.allclose(res.gain[:, k], cut.final_gain, rtol=1e-12, atol=0)
            assert res.frames[-1] == cfg.block_frames - 1
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


def test_network_chunk_stream_layout_is_pinned(make_config):
    # Chunk 0 redrawn by hand: its channel tensor from chunk/0/channels and
    # group i trained from chunk/0/train/group/i. Every Monte Carlo command
    # reads its networks through this layout.
    cfg = make_config(M=2, N=6, k_o=3.0, seed=131, trials=5)
    stream = RandomStream(cfg.seed, "layout")
    res = run_convergence(cfg, stream)
    chunk = stream.child("chunk/0")
    h = chunk.child("channels").generator().standard_normal((cfg.trials, cfg.M, cfg.M, cfg.N))
    for i in range(cfg.M):
        ref = train_ensemble(
            h[:, i, i, :], cfg, chunk.child(f"train/group/{i}"), record_trace=True
        )
        assert np.array_equal(res.gain[:, i], ref.gain)
        assert np.array_equal(res.abs_sum[:, i], np.abs(h[:, i, i, :]).sum(axis=1))


def test_run_group_final_gains_deterministic(make_config):
    cfg = make_config(N=10, k_o=5.0, seed=111, trials=300)
    g1, s1 = run_group_final_gains(cfg, RandomStream(cfg.seed, "fin"))
    g2, s2 = run_group_final_gains(cfg, RandomStream(cfg.seed, "fin"), workers=2)
    assert np.array_equal(g1, g2)
    assert np.array_equal(s1, s2)
    assert np.all(g1 <= s1 + 1e-12)


def test_epsilon_level_energy_heuristic(make_config):
    # Long blocks should leave the mean gain close to the ceiling:
    # a coarse version of the epsilon-level guarantee at small scale.
    cfg = make_config(N=30, k_o=20.0, seed=121, trials=100)
    gains, ceilings = run_group_final_gains(cfg, RandomStream(cfg.seed, "fin"))
    assert gains.mean() >= (1 - 2 * 0.1) * cfg.N * abs_moment()
