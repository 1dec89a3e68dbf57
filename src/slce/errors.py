"""Exception types shared across the package."""


class SlceError(Exception):
    """Base class for all errors raised by this package."""


class CompositeP(SlceError):
    """p is not an odd prime."""


class SizeExceeded(SlceError):
    """Requested object is larger than the configured size cap."""


class LogOfZero(SlceError):
    """Discrete logarithm of the zero element."""


class EvenK(SlceError):
    """k must be odd."""


class BadAlphabet(SlceError):
    """Alphabet size d must be a prime divisor of q - 1."""


class ConductorMismatch(SlceError):
    """Cyclotomic integers live in incompatible rings."""


class NotSemiprimitive(SlceError):
    """No power of p is congruent to -1 modulo the character order."""


class HOutOfRange(SlceError):
    """Multiplicity exponent h outside 1..u."""


class PreconditionUnmet(SlceError):
    """A stated precondition (e.g. q mod 4 branch) does not hold."""


class InternalInconsistency(SlceError):
    """A computed invariant failed: an implementation bug, not bad input."""
