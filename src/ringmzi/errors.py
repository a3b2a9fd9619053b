"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An argument lies outside the physically meaningful domain."""


class ThresholdError(ValueError):
    """The injection is at or above the parametric-oscillation threshold."""


class ConvergenceError(RuntimeError):
    """A steady-state solve missed its stop rule."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""
