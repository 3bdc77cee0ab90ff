"""Exception hierarchy shared by all trunctet modules."""


class TruncTetError(Exception):
    """Base class for all trunctet errors."""


class InvalidArgumentError(TruncTetError, ValueError):
    """Non-finite or malformed input."""


class DomainError(TruncTetError, ValueError):
    """Input outside the mathematical domain of an operation."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class AccuracyError(TruncTetError, RuntimeError):
    """Requested tolerance could not be reached; carries the best estimate."""

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class NotATetrahedronError(DomainError):
    """Angle 6-tuple does not describe a compact truncated tetrahedron.

    ``index`` identifies the failing vertex (1-4) or edge pair (i, j).
    """

    def __init__(self, message, index=None, value=None):
        super().__init__(message, value=value)
        self.index = index


class NotInClosureError(DomainError):
    """Length 6-tuple lies outside the closure of the length chart."""


class InconsistencyError(TruncTetError):
    """Two independent computations of the same quantity disagree."""


class NearDegenerateError(TruncTetError):
    """Numerical linear algebra too ill-conditioned to trust."""


class EvaluationError(TruncTetError):
    """Volume formula rejected its input or produced non-finite values.

    ``diagnostics`` is a dict with detG, z1, z2 when available.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SamplingError(TruncTetError):
    """Rejection sampler exhausted its draw budget."""
