import numpy as np
import pytest

from feedbeam import NetworkConfig, RandomStream, link_amplitudes, train_ensemble


@pytest.fixture
def make_config():
    """Config factory with small, fast defaults; override per test."""

    def _make(**overrides):
        base = dict(
            M=1,
            N=8,
            P=4.0,
            N_o=1.0,
            T_f=20,
            k_o=5.0,
            epsilon_o=0.1,
            delta=0.5,
            seed=1234,
            estimation_mode="perfect",
            trials=4,
        )
        base.update(overrides)
        return NetworkConfig(**base)

    return _make


@pytest.fixture
def mc_interference_power():
    """Monte Carlo reference of sigma_I^2: entry [t, i] of its result is
    (P/N) sum_{r<i} c[i, r]^2 in trial t.

    Each trial draws an (M, M, N) network and trains groups 0 .. M-2 on their own links.
    """

    def _estimate(config: NetworkConfig, stream: RandomStream) -> np.ndarray:
        M = config.M
        h = stream.child("channels").generator().standard_normal((config.trials, M, M, config.N))
        trained = [
            train_ensemble(h[:, r, r, :], config, stream.child(f"train/group/{r}")).weights
            for r in range(M - 1)
        ]
        c = link_amplitudes(h, np.stack(trained, axis=1))  # (trials, M, M - 1)
        return config.P / config.N * np.sum(c**2 * np.tri(M, M - 1, -1), axis=2)

    return _estimate
