"""Exception types shared across the package."""


class CyclotopeError(Exception):
    """Base class for all package-specific errors."""


class DimensionTooSmall(CyclotopeError):
    """The ambient dimension t must be at least 3."""


class DimensionMismatch(CyclotopeError):
    """Two objects that must share a dimension do not."""


class EmptySetError(CyclotopeError):
    """An operation that needs a nonempty ground-set subset got the empty set."""


class NotProperSubset(CyclotopeError):
    """The equal-size criterion is defined for proper subsets only."""


class CapExceeded(CyclotopeError):
    """An enumeration, a dense matrix or the oracle's subset search was
    requested above its size cap."""


class InvalidSpectrum(CyclotopeError):
    """A coordinate vector does not satisfy the spectrum invariants."""


class VerificationMismatch(CyclotopeError):
    """An internal check failed: a library fault, never bad input."""
