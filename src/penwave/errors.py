"""Exception types shared across the toolkit."""


class PenwaveError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PenwaveError):
    """Input lies outside the mathematical domain of the operation."""


class ConvergenceError(PenwaveError):
    """An iterative scheme failed to converge."""


class MaskError(PenwaveError):
    """A finite-difference stencil reached into masked-out grid nodes."""


class OrderError(PenwaveError):
    """Requested derivative order exceeds the capacity of the data."""


class StabilityError(PenwaveError):
    """Time-stepping configuration violates the stability constraint."""


class NaNError(PenwaveError):
    """The evolution produced nonfinite values."""


class ConfigError(PenwaveError):
    """Invalid or inconsistent configuration."""


class CoverageError(PenwaveError):
    """Stored trajectory does not cover the requested space-time region."""


class RangeError(PenwaveError):
    """Query point outside the stored domain."""


class ParseError(PenwaveError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FitError(PenwaveError):
    """Degenerate data for a regression fit."""
