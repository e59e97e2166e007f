"""Exception hierarchy for fairmmd.

Every error raised on purpose by this package derives from :class:`FairmmdError`,
so callers can catch one type at the boundary.  Subclasses mirror the kinds of
contract violations the public operations check for: malformed inputs, samples
that are too small or miss a stratum, points outside a kernel's domain,
weights that do not normalize, checks applied outside their preconditions,
unsupported parameter combinations, and diverging training runs.
"""

__all__ = [
    "FairmmdError",
    "ValidationError",
    "SizeError",
    "DomainError",
    "StratificationError",
    "EmptyCellError",
    "NormalizationError",
    "InapplicableError",
    "ConfigurationError",
    "UnsupportedError",
    "TrainingError",
]


class FairmmdError(Exception):
    """Base class for all errors raised by fairmmd."""


class ValidationError(FairmmdError):
    """An input object violates its structural contract (shape, dtype, range)."""


class SizeError(ValidationError):
    """A sample is too small for the requested estimator."""


class DomainError(ValidationError):
    """A point lies outside the kernel's declared domain, or dimensions mismatch."""


class StratificationError(ValidationError):
    """A required group or (s, y) cell is empty."""


class EmptyCellError(StratificationError):
    """A specific (s, y) cell required by the computation has no rows."""


class NormalizationError(ValidationError):
    """Probabilities or mixture weights do not normalize to one."""


class InapplicableError(FairmmdError):
    """A checker's precondition fails, so its verdict would be meaningless."""


class ConfigurationError(FairmmdError):
    """A config file or CLI invocation is malformed or inconsistent."""


class UnsupportedError(FairmmdError):
    """The requested operation is not defined for this parameter combination."""


class TrainingError(FairmmdError):
    """An optimization run produced non-finite values."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step
