"""Exception types shared across the toolkit."""


class GeoStableError(Exception):
    """Base class for toolkit-specific failures."""


class UnsupportedDimensionError(GeoStableError, ValueError):
    """Numeric evaluation requested in a dimension/regime the quadratures do not cover."""


class SingularPointError(GeoStableError, ValueError):
    """Evaluation requested exactly at a non-integrable singularity."""


class ConvergenceError(GeoStableError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConsistencyError(GeoStableError, RuntimeError):
    """Two evaluation routes of the same quantity disagreed beyond tolerance."""


class ConfigError(GeoStableError, ValueError):
    """Invalid configuration, rejected before any computation starts."""
