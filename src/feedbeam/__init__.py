"""Feedback-based iterative distributed beamforming: simulator and analytics.

M groups of N single-antenna sources learn +-1 beamforming weights for
their own slow-fading channels from one broadcast feedback bit per frame,
then spatially multiplex M concurrent streams. The package simulates the
training dynamics, checks them against an exact absorbing-Markov-chain
oracle at small N, evaluates the closed-form convergence and outage
bounds, and validates those bounds by Monte Carlo.
"""

from .bounds import (
    BoundParams,
    BoundReport,
    bound_params,
    c_o,
    epsilon_max,
    k_o,
    large_deviation_terms,
    outage_bound,
    q_function,
    q_inverse,
)
from .channel import ChannelRealization, abs_moment, generate_channels, sign_pm
from .config import NetworkConfig
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateChannelError,
    DimensionError,
    DomainError,
    FeedbeamError,
    InfeasibleEpsilonError,
    StateError,
)
from .markov import (
    MarkovModel,
    absorption_time_stats,
    build_markov,
    expected_gain_exact,
    gain_distribution,
    gain_moments_exact,
    one_step_absorb_probability,
)
from .outage import (
    OutageResult,
    ProbeResult,
    ProbeRow,
    estimate_outage,
    interference_scaling_probe,
    sinr,
)
from .protocol import (
    InterferenceEstimate,
    ProtocolReport,
    compare_protocols,
    estimate_interference_power,
    frame_ratio,
    interference_power,
)
from .rng import RandomStream
from .training import (
    EnsembleResult,
    TrainingTrace,
    ensemble_gain_stats,
    run_convergence,
    run_group_final_gains,
    train_ensemble,
    train_group,
    train_network,
)

__version__ = "0.1.0"

__all__ = [
    "NetworkConfig",
    "RandomStream",
    "ChannelRealization",
    "generate_channels",
    "abs_moment",
    "sign_pm",
    "TrainingTrace",
    "EnsembleResult",
    "train_group",
    "train_network",
    "train_ensemble",
    "run_convergence",
    "run_group_final_gains",
    "ensemble_gain_stats",
    "MarkovModel",
    "build_markov",
    "gain_distribution",
    "expected_gain_exact",
    "gain_moments_exact",
    "absorption_time_stats",
    "one_step_absorb_probability",
    "q_function",
    "q_inverse",
    "c_o",
    "k_o",
    "epsilon_max",
    "BoundParams",
    "BoundReport",
    "bound_params",
    "large_deviation_terms",
    "outage_bound",
    "OutageResult",
    "sinr",
    "estimate_outage",
    "ProbeRow",
    "ProbeResult",
    "interference_scaling_probe",
    "ProtocolReport",
    "interference_power",
    "frame_ratio",
    "compare_protocols",
    "InterferenceEstimate",
    "estimate_interference_power",
    "FeedbeamError",
    "ConfigError",
    "DimensionError",
    "DomainError",
    "CapacityError",
    "DegenerateChannelError",
    "InfeasibleEpsilonError",
    "StateError",
]
