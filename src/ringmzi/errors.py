"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An argument lies outside the physically meaningful domain."""


class ThresholdError(ValueError):
    """The injection is at or above the parametric-oscillation threshold."""


class ConvergenceError(RuntimeError):
    """A steady-state solve missed its stop rule, or its empty-cavity pump number
    overflows; ``index`` is the flat index of the first grid point that failed, where there
    is a grid."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""
