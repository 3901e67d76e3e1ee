"""Exception types shared across the package."""

__all__ = [
    "FeedbeamError", "ConfigError", "DimensionError", "CapacityError",
    "DegenerateChannelError", "DomainError", "InfeasibleEpsilonError", "StateError",
]


class FeedbeamError(ValueError):
    """Base class for all package-specific errors."""


class ConfigError(FeedbeamError):
    """A scenario parameter is missing, malformed, or out of range."""


class DimensionError(FeedbeamError):
    """Array arguments do not match the configured dimensions."""


class CapacityError(FeedbeamError):
    """A requested exact chain or Monte Carlo chunk exceeds its supported size."""


class DegenerateChannelError(FeedbeamError):
    """A channel coefficient is zero or non-finite, or the gains it implies overflow."""


class DomainError(FeedbeamError):
    """A scalar argument lies outside the mathematical domain of an operation."""


class InfeasibleEpsilonError(ConfigError):
    """Reverse-aligned fraction too large for the outage bound to hold."""


class StateError(FeedbeamError):
    """An operation was called before its prerequisites were computed."""
