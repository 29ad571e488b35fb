"""Exception types shared across the package."""

from contextlib import contextmanager


class EmbedError(ValueError):
    """Base class for all cwembed errors."""


class MalformedPotentialError(EmbedError):
    """Slope profile of a piecewise-linear function is not of measure type."""


class InvalidSplitError(EmbedError):
    """Split mass outside the admissible bracket at the split point."""


class InvalidIntervalError(EmbedError):
    """Interval endpoints out of order or otherwise unusable."""


class InvalidTangentError(EmbedError):
    """Tangent lies strictly below the running potential everywhere."""


class InadmissibleConstantError(EmbedError):
    """Requested shift constant is below the potential gap of the pair."""


class IncompletePlanError(EmbedError):
    """Operation requires a plan whose residual is zero."""


class UndefinedBarycentreError(EmbedError):
    """Barycentre is requested where the maximum-law bound vanishes."""


class InvalidParameterError(EmbedError):
    """Parameter outside its documented domain."""


class ProblemSpecError(EmbedError):
    """A problem spec or plan file failed to parse or validate."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


@contextmanager
def field_errors(field):
    """Raise a failure to read or convert a value inside the block as a
    ProblemSpecError naming ``field``."""
    try:
        yield
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ProblemSpecError("missing" if isinstance(exc, KeyError) else exc, field) from None
