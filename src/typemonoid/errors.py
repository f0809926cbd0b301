"""Shared exception types."""


class TypemonoidError(Exception):
    """Base class for all library errors."""


class CarrierMismatchError(TypemonoidError):
    """Two partial maps live on carriers of different sizes."""


class ClosureCapError(TypemonoidError):
    """Monoid closure exceeded the element cap."""

    def __init__(self, cap: int, found: int):
        super().__init__(f"closure exceeded cap {cap} (at least {found} elements)")
        self.cap = cap
        self.found = found


class InvalidTableError(TypemonoidError):
    """Operation requires a valid inverse monoid table."""


class NotMeasurableError(TypemonoidError):
    """A point set is not a union of atoms."""


class SpaceMismatchError(TypemonoidError):
    """Operands belong to different spaces or have wrong dimension."""


class NormalizationImpossibleError(TypemonoidError):
    """Measure normalization target is empty or has null type."""


class BudgetExhaustedError(TypemonoidError):
    """A definite verdict was required but the decision budget ran out."""


class MalformedCertificateError(TypemonoidError):
    """Certificate file or object violates its schema."""


class AmbiguousMaximumError(TypemonoidError):
    """A unique maximum was required but incomparable maxima exist."""


class ContractError(TypemonoidError):
    """A documented precondition does not hold."""
