"""Feedback-based iterative distributed beamforming: simulator and analytics.

M groups of N single-antenna sources learn +-1 beamforming weights for
their own slow-fading channels from one broadcast feedback bit per frame,
then spatially multiplex M concurrent streams. The package simulates the
training dynamics, checks them against an exact absorbing-Markov-chain
oracle at small N, evaluates the closed-form convergence and outage
bounds, and validates those bounds by Monte Carlo.
"""

from . import bounds, channel, config, errors, markov, outage, protocol, rng, special, training
from .bounds import *
from .channel import *
from .config import *
from .errors import *
from .markov import *
from .outage import *
from .protocol import *
from .rng import *
from .special import *
from .training import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    name
    for module in (
        bounds, channel, config, errors, markov, outage, protocol, rng, special, training
    )
    for name in module.__all__
]
