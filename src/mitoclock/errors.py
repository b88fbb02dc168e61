"""Exception and warning types shared across the package."""


class MitoclockError(Exception):
    """Base class for all package errors."""


class ValidationError(MitoclockError, ValueError):
    """Input violates a documented precondition."""


class ParseError(ValidationError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class StateError(MitoclockError, ValueError):
    """Value is in the wrong normalization/kind state for this operation."""


class DegenerateInputError(ValidationError):
    """Structurally valid input with no usable information (e.g. all-zero histogram)."""


class UnsupportedVariantError(MitoclockError, ValueError):
    """The requested operation has no closed form for this model family."""


class ConfigurationError(MitoclockError, RuntimeError):
    """A numerical routine cannot proceed with the given configuration."""


class GridTooSmallError(ConfigurationError):
    """The age cells are too short: simulated mass reached the upper age boundary, or the
    cells end before the division rate's divergence range."""


class FitConvergenceError(MitoclockError, RuntimeError):
    """Optimizer failed to converge; carries the best result found so far."""

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


class TruncationWarning(UserWarning):
    """A tabulated result was truncated to its numerically reliable range."""


class BoundaryWarning(UserWarning):
    """One or more fitted parameters are pinned at a bound."""
