"""Exception types shared across the package."""


class HasseSchmidtError(Exception):
    """Base class for all errors raised by this package."""


class IncompatibleAmbient(HasseSchmidtError):
    """Operands live in different ambient rings (nvars or field mismatch)."""


class LengthMismatch(HasseSchmidtError):
    """Exponent vectors of different lengths were combined."""


class NotAUnit(HasseSchmidtError):
    """Inversion was requested for a series with zero constant term."""


class ComponentOutOfRange(HasseSchmidtError):
    """A component index exceeds the length of a Hasse-Schmidt derivation."""


class NotABasis(HasseSchmidtError):
    """The degree-1 parts of the supplied family are not a basis (determinant not a unit)."""


class PrecisionExhausted(HasseSchmidtError):
    """The requested operation would consume more precision than is available."""


class ProblemFormatError(HasseSchmidtError):
    """A JSON problem file or embedded object failed validation."""


class CoefficientTooLarge(HasseSchmidtError):
    """A coefficient has too many digits to be written as text."""


class DegreeLimitExceeded(HasseSchmidtError):
    """A monomial would reach total degree series.DEGREE_LIMIT, where its
    packed exponent key could carry from one exponent into the next."""
