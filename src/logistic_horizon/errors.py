"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`LogisticHorizonError`,
so callers (the CLI in particular) can catch one type and map it to a
nonzero exit status without guessing which module complained.
"""

from __future__ import annotations


class LogisticHorizonError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LogisticHorizonError, ValueError):
    """An argument was outside the documented domain of an operation."""


def require_int(value, what: str, minimum: int | None = None) -> None:
    """Raise DomainError unless ``value`` is an int, not a bool, and at least ``minimum``."""
    bad = not isinstance(value, int) or isinstance(value, bool)
    if bad or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise DomainError(f"{what} must be an integer{bound}, got {value!r}")


class NumericalError(LogisticHorizonError):
    """A computation could not be completed to acceptable accuracy."""


class EstimationError(LogisticHorizonError):
    """A saturation estimate could not be produced from the given data."""


class CharacteristicPointNotFound(EstimationError):
    """No admissible characteristic point exists under the requested policy.

    The detector still computed a fallback (the global maximum of the
    defined difference values); it is attached as ``fallback`` so callers
    can report something useful instead of nothing.
    """

    def __init__(self, message, fallback=None):
        super().__init__(message)
        self.fallback = fallback


class ParseError(LogisticHorizonError):
    """Malformed input text. The message names the 1-based offending line."""
