"""Exception hierarchy shared across the pipeline.

ConfigError and SnapshotFormatError map to CLI exit code 2 (bad input),
NumericalError and its subclasses map to exit code 3 (computation failed).
"""


class PodrError(Exception):
    """Base class for all package errors."""


class ConfigError(PodrError):
    """Invalid experiment configuration (unknown keys, bad values)."""


class SnapshotFormatError(PodrError):
    """Malformed snapshot file (bad magic, truncation, shape mismatch,
    a non-finite value)."""


class NumericalError(PodrError):
    """A numerical stage failed to produce a usable result."""


class FieldError(NumericalError):
    """Bad field data: non-finite values or a zero or infinite norm."""


class ConvergenceError(NumericalError):
    """Steady-state iteration ran out of iterations.

    Carries the final residual so callers can report how far off it was.
    """

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class BondSearchError(NumericalError):
    """Bond-dimension search could not reach the requested threshold."""

    def __init__(self, message, best_estimator, plan):
        super().__init__(message)
        self.best_estimator = best_estimator
        self.plan = plan
