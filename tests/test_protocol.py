import numpy as np
import pytest

from feedbeam import (
    ChannelRealization,
    DomainError,
    RandomStream,
    StateError,
    compare_protocols,
    expected_interference_power,
    frame_ratio,
    interference_power,
    train_ensemble,
)


def test_interference_power_first_group_sees_none(make_config):
    cfg = make_config(M=2, N=1)
    ch = ChannelRealization(np.ones((2, 2, 1)))
    assert interference_power(ch, np.ones((0, 1)), 0, cfg) == 0.0


def test_interference_power_single_prior_group(make_config):
    cfg = make_config(M=2, N=1, P=1.0)
    h = np.zeros((2, 2, 1))
    h[1, 0, 0] = 3.0
    assert interference_power(ChannelRealization(h), np.ones((1, 1)), 1, cfg) == pytest.approx(9.0)


def test_interference_power_requires_prior_weights(make_config):
    cfg = make_config(M=3, N=4)
    ch = ChannelRealization(np.ones((3, 3, 4)))
    with pytest.raises(StateError):
        interference_power(ch, np.ones((1, 4)), 2, cfg)


def test_frame_ratio_values():
    assert frame_ratio(0.0, 1.0) == 1.0
    assert frame_ratio(2.5, 2.5) == 2.0
    assert frame_ratio(9.0, 1.0) == 10.0
    with pytest.raises(DomainError):
        frame_ratio(1.0, 0.0)
    with pytest.raises(DomainError):
        frame_ratio(-0.1, 1.0)


def test_condition_instances(make_config):
    cfg = make_config(M=3, N_o=1.0)
    assert compare_protocols(0.4, cfg, 1.0).modified_better  # 0.4 < 1 - 2/4
    assert not compare_protocols(0.6, cfg, 1.0).modified_better
    with pytest.raises(DomainError):
        compare_protocols(0.1, make_config(M=1), 1.0)


def test_condition_matches_throughput_on_random_grid(make_config):
    gen = RandomStream(3, "grid").generator()
    for _ in range(100):
        cfg = make_config(
            M=int(gen.integers(2, 7)),
            N=int(gen.integers(1, 50)),
            T_f=int(gen.integers(1, 200)),
            N_o=float(gen.uniform(0.1, 5.0)),
            k_o=float(gen.uniform(0.5, 20.0)),
        )
        sigma = float(gen.uniform(0.0, 3.0 * cfg.N_o))
        r = float(gen.uniform(0.1, 6.0))
        rep = compare_protocols(sigma, cfg, r)
        assert rep.modified_better == (rep.bits_modified > rep.bits_original)
        assert rep.frame_ratio == pytest.approx(1.0 + rep.condition_lhs)
        assert rep.frame_ratio >= 1.0
        assert (rep.frame_ratio == 1.0) == (sigma == 0.0)


def test_expected_interference_power_is_p_m_over_2(make_config):
    assert expected_interference_power(make_config(M=2, P=2.5)) == 2.5
    assert expected_interference_power(make_config(M=4, P=10.0)) == 20.0
    # The mean of i * P over the links i = 1 .. M-1 that see interference.
    for M, P in [(3, 0.1), (7, 1e-3), (12, 3.3)]:
        cfg = make_config(M=M, P=P)
        assert expected_interference_power(cfg) == pytest.approx(np.arange(1, M).mean() * P)
    with pytest.raises(DomainError):
        expected_interference_power(make_config(M=1))


def test_reference_matches_interference_power_of_each_network(make_config, mc_interference_power):
    # The batched Monte Carlo reference, trial by trial, is the single-network API.
    cfg = make_config(M=3, N=16, P=2.0, k_o=2.0, trials=3, seed=5)
    stream = RandomStream(cfg.seed, "reference")
    ref = mc_interference_power(cfg, stream)
    h = stream.child("channels").generator().standard_normal((cfg.trials, cfg.M, cfg.M, cfg.N))
    w = np.stack(
        [train_ensemble(h[:, r, r, :], cfg, stream.child(f"train/group/{r}")).weights
         for r in range(cfg.M - 1)],
        axis=1,
    )
    for t in range(cfg.trials):
        got = [interference_power(ChannelRealization(h[t]), w[t], i, cfg) for i in range(cfg.M)]
        assert got == pytest.approx(ref[t], rel=1e-12)


def test_interference_grows_linearly_with_prior_groups(make_config, mc_interference_power):
    cfg = make_config(M=4, N=64, P=2.5, k_o=5.0, trials=512, seed=7)
    est = mc_interference_power(cfg, RandomStream(cfg.seed, "protocol")).mean(axis=0)
    assert est.shape == (cfg.M,)
    assert est[0] == 0.0
    slope = np.polyfit(np.arange(cfg.M), est, 1)[0]
    assert abs(slope - cfg.P) / cfg.P < 0.15


def test_sequential_protocol_wins_at_reasonable_snr(make_config, mc_interference_power):
    # SNR = P/N_o = 10 dB; sigma_I^2 ~ (#prior groups) * P swamps the
    # condition threshold, so overlapping training with data never pays.
    cfg = make_config(M=4, N=64, P=10.0, N_o=1.0, k_o=5.0, trials=256, seed=13)
    est = mc_interference_power(cfg, RandomStream(cfg.seed, "protocol")).mean(axis=0)
    for sigma in (est[1:].mean(), expected_interference_power(cfg)):
        rep = compare_protocols(sigma, cfg, 1.0)
        assert rep.condition_lhs > rep.condition_rhs
        assert not rep.modified_better
