"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "HullforgeError",
    "DimensionError",
    "InvalidCodeError",
    "WrongParityError",
    "WrongConstructionError",
    "NoRankGainError",
    "ResourceLimitError",
    "ClaimViolationError",
    "CorpusFormatError",
    "CorpusValidationError",
    "UsageError",
]


class HullforgeError(Exception):
    """Base class for library errors."""


class DimensionError(HullforgeError, ValueError):
    """Operands have incompatible lengths or shapes."""


class InvalidCodeError(HullforgeError, ValueError):
    """A matrix does not define a usable code (e.g. zero rank)."""


class WrongParityError(HullforgeError, ValueError):
    """Extension vector has the wrong self-product for the construction."""


class WrongConstructionError(HullforgeError, ValueError):
    """Extension vector is valid but belongs to a different construction."""


class NoRankGainError(HullforgeError, ValueError):
    """Augmenting vector already lies in the code."""


class ResourceLimitError(HullforgeError, RuntimeError):
    """Requested computation exceeds a configured size cap.

    limit is the cap and requested the size that was asked for, in the
    same unit (k, n - k, bits, ...); both are None where no size applies.
    """

    def __init__(
        self, message: str, limit: int | None = None, requested: int | None = None
    ):
        super().__init__(message)
        self.limit = limit
        self.requested = requested


class ClaimViolationError(HullforgeError, RuntimeError):
    """A computed result contradicts a construction claim or a proven identity
    (raised, so python -O keeps it)."""


class CorpusFormatError(HullforgeError, ValueError):
    """A corpus file does not parse."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CorpusValidationError(HullforgeError, ValueError):
    """A corpus entry parses but its recomputed parameters contradict its claim."""


class UsageError(HullforgeError, ValueError):
    """Invalid arguments at an interface boundary."""
