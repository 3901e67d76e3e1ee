import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve

from feedbeam import (
    CapacityError,
    DegenerateChannelError,
    RandomStream,
    absorption_time_stats,
    build_markov,
    ensemble_gain_stats,
    expected_gain_exact,
    gain_distribution,
    gain_moments_exact,
    one_step_absorb_probability,
    train_ensemble,
)
from feedbeam.markov import BLOCK, DENSE_STATE_LIMIT, WINDOW
from feedbeam.util import TRAJ_CHUNK, chunk_sizes


def brute_force_transition(h):
    """Independent oracle: enumerate every (state, flip pattern) pair."""
    h = np.asarray(h, dtype=float)
    n = h.size
    size = 2**n
    signs = np.array([[1.0 if (s >> j) & 1 else -1.0 for j in range(n)] for s in range(size)])
    T = np.zeros((size, size))
    for s in range(size):
        gain_s = signs[s] @ h
        for pattern in itertools.product([0, 1], repeat=n):
            prob = 1.0
            target = list(signs[s])
            for j, flip in enumerate(pattern):
                prob *= (1.0 / n) if flip else (1.0 - 1.0 / n)
                if flip:
                    target[j] = -target[j]
            target = np.array(target)
            if target @ h > gain_s:
                code = sum(1 << j for j in range(n) if target[j] > 0)
                T[s, code] += prob
            else:
                T[s, s] += prob
    return T


def test_matches_brute_force_enumeration():
    gen = RandomStream(17, "h").generator()
    for n in (1, 2, 3, 4, 7):
        h = gen.standard_normal(n)
        model = build_markov(h)
        assert np.allclose(model.transition, brute_force_transition(h), atol=1e-14)


def test_mask_prob_matches_a_popcount_loop():
    for n in range(1, 15):
        p = 1.0 / n
        counts = np.array([bin(m).count("1") for m in range(1 << n)])
        expected = p**counts * (1.0 - p) ** (n - counts)
        got = build_markov(np.ones(n)).mask_prob
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), n


def _traced_peak(fn):
    """fn() and the tracemalloc peak, in bytes, of the call."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_dense_matrix_is_built_on_first_read():
    gen = RandomStream(61, "h").generator()
    # Building a dense-size chain holds no 4^N array (16 MiB at N = 10).
    model, peak = _traced_peak(lambda: build_markov(gen.standard_normal(DENSE_STATE_LIMIT)))
    assert peak < 2**20
    # test_matches_brute_force_enumeration checks a first read entry by entry.
    first = model.transition
    assert np.all(first >= 0)
    assert np.max(np.abs(first.sum(axis=1) - 1.0)) < 1e-12
    assert model.transition is first
    # Above the dense limit the matrix is None and reading it costs nothing.
    model = build_markov(gen.standard_normal(DENSE_STATE_LIMIT + 1))
    transition, peak = _traced_peak(lambda: model.transition)
    assert transition is None
    assert peak < 1024


def test_all_reverse_state_jumps_to_absorbing_with_quarter_probability():
    # N=2, h=(1,2): from (-1,-1) both sources must flip, probability (1/2)^2.
    model = build_markov([1.0, 2.0])
    assert model.absorbing_index == 0b11
    assert model.transition[0b00, 0b11] == pytest.approx(0.25)


def test_single_reverse_state_row():
    # N=2, h=(1,2), state (-1,+1) has gain 1: only flipping source 0 improves.
    model = build_markov([1.0, 2.0])
    s = 0b10  # alpha = (-1, +1)
    row = model.transition[s]
    assert row[0b11] == pytest.approx(0.25)
    assert row[s] == pytest.approx(0.75)
    assert row[0b00] == 0.0 and row[0b01] == 0.0


def test_rows_are_stochastic_and_absorbing_row_is_unit():
    gen = RandomStream(23, "h").generator()
    for n in (2, 5, 8):
        model = build_markov(gen.standard_normal(n))
        assert np.all(model.transition >= 0)
        assert np.max(np.abs(model.transition.sum(axis=1) - 1.0)) < 1e-12
        row = model.transition[model.absorbing_index]
        unit = np.zeros(model.n_states)
        unit[model.absorbing_index] = 1.0
        assert np.array_equal(row, unit)
        bits = (model.absorbing_index >> np.arange(n)) & 1
        assert np.array_equal(2 * bits - 1, np.where(model.h >= 0, 1.0, -1.0))


def test_absorbing_state_reachable_from_everywhere_in_one_step():
    gen = RandomStream(29, "h").generator()
    for n in (2, 4, 6):
        model = build_markov(gen.standard_normal(n))
        probs = one_step_absorb_probability(model)
        assert np.all(probs >= (1.0 / n) ** n - 1e-15)
        # Direct jump needs every reverse-aligned source to flip and the
        # aligned ones to hold still.
        s = model.start_index
        r = bin(s ^ model.absorbing_index).count("1")
        assert probs[s] == pytest.approx((1 / n) ** r * (1 - 1 / n) ** (n - r))


def test_distribution_starts_at_all_plus_state():
    model = build_markov([-1.0, 2.0])
    dist = gain_distribution(model, 0)
    assert dist[model.start_index] == 1.0
    assert dist.sum() == 1.0


def test_single_step_distribution_by_enumeration():
    # N=2, h=(-1,2): from (+1,+1) only the flip of source 0 improves.
    model = build_markov([-1.0, 2.0])
    dist = gain_distribution(model, 1)
    assert model.absorbing_index == 0b10
    assert dist[0b10] == pytest.approx(0.25)
    assert dist[0b11] == pytest.approx(0.75)
    assert dist.sum() == pytest.approx(1.0)
    assert expected_gain_exact(model, 1) == pytest.approx(0.25 * 3.0 + 0.75 * 1.0)


def test_expected_gain_limits():
    gen = RandomStream(31, "h").generator()
    h = gen.standard_normal(3)
    model = build_markov(h)
    assert expected_gain_exact(model, 0) == pytest.approx(h.sum())
    t_long = 600
    residual = 1.0 - gain_distribution(model, t_long)[model.absorbing_index]
    assert residual < 1e-9
    assert expected_gain_exact(model, t_long) == pytest.approx(np.abs(h).sum(), abs=1e-6)


def test_expected_gain_is_monotone_in_t():
    model = build_markov(RandomStream(37, "h").generator().standard_normal(5))
    values = [expected_gain_exact(model, t) for t in range(0, 60, 3)]
    assert np.all(np.diff(values) >= -1e-12)


def test_absorption_times_small_cases():
    # N=1, h<0: the start state flips deterministically into absorption.
    mean, by_state = absorption_time_stats(build_markov([-0.5]))
    assert mean == pytest.approx(1.0)
    assert by_state[0] == 0.0
    # N=1, h>0: the start state is absorbing.
    mean, _ = absorption_time_stats(build_markov([0.5]))
    assert mean == 0.0
    # N=3, all-positive channel: start = absorbing even with gain ties.
    mean, _ = absorption_time_stats(build_markov([1.0, 1.0, 1.0]))
    assert mean == 0.0


def test_absorption_time_agrees_with_simulation():
    h = np.array([0.8, -1.3, 0.4])
    model = build_markov(h)
    mean, _ = absorption_time_stats(model)
    gen = RandomStream(41, "sim").generator()
    times = []
    target = np.sign(h)
    for _ in range(4000):
        a = np.ones(3)
        best = a @ h
        t = 0
        while not np.array_equal(a, target):
            t += 1
            prop = np.where(gen.random(3) < 1 / 3, -a, a)
            g = prop @ h
            if g > best:
                a, best = prop, g
        times.append(t)
    times = np.asarray(times, dtype=float)
    assert abs(times.mean() - mean) < 3.5 * times.std() / np.sqrt(times.size)


def _assert_matches_dense_reference(model):
    """Gain-ordered passes against repeated dist @ T and a dense solve.

    The last horizon takes two forward passes of WINDOW steps or fewer.
    """
    dist = np.zeros(model.n_states)
    dist[model.start_index] = 1.0
    for t in range(WINDOW + 45):
        if t in (0, 1, 7, 25, 50, WINDOW, WINDOW + 44):
            assert np.allclose(gain_distribution(model, t), dist, rtol=0, atol=1e-13)
        dist = dist @ model.transition
    transient = np.setdiff1d(np.arange(model.n_states), [model.absorbing_index])
    Q = model.transition[np.ix_(transient, transient)]
    tau_ref = np.zeros(model.n_states)
    tau_ref[transient] = solve(np.eye(transient.size) - Q, np.ones(transient.size))
    mean, tau = absorption_time_stats(model)
    assert tau[model.absorbing_index] == 0.0
    assert mean == pytest.approx(tau_ref[model.start_index], rel=1e-8)
    assert np.allclose(tau, tau_ref, rtol=1e-8, atol=0)


@pytest.mark.parametrize("n", [6, 10])
def test_gain_ordered_passes_match_dense_reference(n):
    # N=6 fits in one block; at N=10 the states span 1024 / BLOCK blocks.
    _assert_matches_dense_reference(
        build_markov(RandomStream(43, "h").generator().standard_normal(n))
    )


def test_gain_ties_across_block_edges():
    # Magnitudes from {1, 2, 3} make large classes of exactly tied gains.
    gen = RandomStream(59, "ties").generator()
    h = gen.choice([1.0, 2.0, 3.0], size=10) * np.repeat([-1.0, 1.0], [7, 3])
    model = build_markov(h)
    values, sizes = np.unique(model.gains, return_counts=True)
    # A tie class larger than a block spans a block edge however the blocks
    # fall; this one is also reachable from the start state.
    assert np.any((sizes > BLOCK) & (values >= model.gains[model.start_index]))
    tied = model.gains[:, np.newaxis] == model.gains
    np.fill_diagonal(tied, False)
    assert np.all(model.transition[tied] == 0.0)
    _assert_matches_dense_reference(model)
    mean, _ = absorption_time_stats(build_markov([1.0, 1.0, 1.0]))
    assert mean == 0.0


def test_large_n_builds_without_dense_matrix():
    model = build_markov(RandomStream(47, "h").generator().standard_normal(12))
    assert model.transition is None
    dist = gain_distribution(model, 50)
    assert np.all(dist >= 0)
    assert abs(dist.sum() - 1.0) <= 1e-12
    means = [expected_gain_exact(model, t) for t in (1, 10, 50)]
    assert means[0] <= means[1] <= means[2]
    # tau = 1 + T tau at every transient state, with row s of T applied
    # mask by mask: s moves to s ^ m iff that strictly raises the gain.
    _, tau = absorption_time_stats(model)
    assert tau[model.absorbing_index] == 0.0
    masks = np.arange(model.n_states)
    worst = 0.0
    for s in np.delete(masks, model.absorbing_index):
        targets = s ^ masks
        moved = model.gains[targets] > model.gains[s]
        t_tau = model.mask_prob @ np.where(moved, tau[targets], tau[s])
        worst = max(worst, abs(1.0 + t_tau - tau[s]) / tau[s])
    assert worst < 1e-9


def test_capacity_and_degeneracy_guards():
    with pytest.raises(CapacityError):
        build_markov(np.ones(15))
    with pytest.raises(DegenerateChannelError):
        build_markov([1.0, 0.0, -1.0])
    for h in ([math.nan, 1.0, 2.0], [math.inf, 1.0, 2.0], [1e308, 1e308, 1e308]):
        with pytest.raises(DegenerateChannelError):
            build_markov(h)


def test_simulator_matches_exact_chain(make_config):
    # Small version of the oracle-equivalence acceptance check: 3 standard
    # errors from the exact chain's own standard deviation, as criterion 2.
    h = RandomStream(53, "h").generator().standard_normal(4)
    model = build_markov(h)
    cfg = make_config(N=4, seed=53, trials=20_000)
    t_list = [1, 5, 20]
    assert cfg.trials > TRAJ_CHUNK  # more than one chunk of trajectories
    mean = ensemble_gain_stats(h, t_list, cfg, RandomStream(53, "mc"))
    for k, t in enumerate(t_list):
        exact, std = gain_moments_exact(model, t)
        assert abs(mean[k] - exact) <= 3.0 * std / math.sqrt(cfg.trials) + 1e-9
    # The mean equals that of the pooled trajectories.
    pooled = np.concatenate(
        [
            train_ensemble(
                np.broadcast_to(h, (size, h.size)),
                cfg,
                RandomStream(53, "mc").child(f"chunk/{c}"),
                n_frames=max(t_list) + 1,
                record_trace=True,
            ).gain[:, t_list]
            for c, size in enumerate(chunk_sizes(cfg.trials, TRAJ_CHUNK))
        ]
    )
    assert np.allclose(mean, pooled.mean(axis=0), rtol=1e-12, atol=0)
