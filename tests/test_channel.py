import math

import numpy as np
import pytest
from scipy.integrate import quad

from feedbeam import (
    ChannelRealization,
    ConfigError,
    DimensionError,
    RandomStream,
    abs_moment,
    generate_channels,
)


def test_single_scalar_layout(make_config):
    cfg = make_config(M=1, N=1)
    ch = generate_channels(cfg, RandomStream(cfg.seed, "channels"))
    assert ch.h.shape == (1, 1, 1)
    assert np.isfinite(ch.h[0, 0, 0])


def test_moments_at_one_million_entries(make_config):
    # 10^6 i.i.d. entries in one tensor: mean within 0.004, variance within
    # 0.005 (3-4 sigma at this sample size; seed makes it deterministic).
    cfg = make_config(M=2, N=250_000)
    ch = generate_channels(cfg, RandomStream(cfg.seed, "channels"))
    flat = ch.h.ravel()
    assert flat.size == 1_000_000
    assert abs(flat.mean()) < 0.004
    assert abs(flat.var() - 1.0) < 0.005


def test_regenerations_are_independent_across_labels(make_config):
    cfg = make_config(M=1, N=1)
    root = RandomStream(cfg.seed, "regen")
    draws = np.array(
        [generate_channels(cfg, root.child(k)).h[0, 0, 0] for k in range(4096)]
    )
    assert abs(draws.mean()) < 4.0 / math.sqrt(draws.size)
    assert abs(draws.var() - 1.0) < 4.0 * math.sqrt(2.0 / draws.size)


def test_same_seed_and_label_reproduce_bit_for_bit(make_config):
    cfg = make_config(M=2, N=3)
    a = generate_channels(cfg, RandomStream(cfg.seed, "channels"))
    b = generate_channels(cfg, RandomStream(cfg.seed, "channels"))
    assert np.array_equal(a.h, b.h)
    c = generate_channels(cfg, RandomStream(cfg.seed, "other"))
    assert not np.array_equal(a.h, c.h)


def test_realization_validation():
    with pytest.raises(DimensionError):
        ChannelRealization(np.zeros((2, 3, 4)))  # not square in (M, M)
    with pytest.raises(DimensionError):
        ChannelRealization(np.full((1, 1, 2), np.nan))
    ch = ChannelRealization(np.arange(8.0).reshape(2, 2, 2))
    assert ch.M == 2 and ch.N == 2
    assert np.array_equal(ch.group_channel(1), ch.h[1, 1, :])


def test_config_validation_rejects_bad_dimensions():
    with pytest.raises(ConfigError):
        from feedbeam import NetworkConfig

        NetworkConfig(
            M=0, N=1, P=1.0, N_o=1.0, T_f=1, k_o=1.0, epsilon_o=0.1, delta=0.5, seed=1
        )


def test_abs_moment_closed_form():
    assert abs_moment() == math.sqrt(2.0 / math.pi)


def test_abs_moment_sampling_oracle(make_config):
    cfg = make_config(M=1, N=1_000_000)
    ch = generate_channels(cfg, RandomStream(cfg.seed, "absmom"))
    assert abs(np.abs(ch.h).mean() - abs_moment()) < 0.002


def test_abs_moment_quadrature_oracle():
    phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    value, err = quad(lambda x: 2.0 * x * phi(x), 0.0, np.inf)
    assert err < 1e-7
    assert abs(value - abs_moment()) < 1e-10
