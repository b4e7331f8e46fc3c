"""Exception hierarchy shared by all modules."""


class RayclassError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidArgumentError(RayclassError, ValueError):
    """An argument violates a precondition (bad modulus, composite where a prime is required, ...)."""


class NotCoprimeError(RayclassError, ValueError):
    """Two quantities required to be coprime are not."""


class TooLargeError(RayclassError, ValueError):
    """An input exceeds a bound: a group table over the desk-scale materialization
    bound, or an integer beyond the range where primality is decided exactly."""


class InvalidHalfSystemError(RayclassError, ValueError):
    """A claimed half-system does not meet each pair {a, -a} exactly once."""


class InvalidHomomorphismError(RayclassError, ValueError):
    """A tabulated map fails the homomorphism check."""


class InvalidDiscriminantError(RayclassError, ValueError):
    """An integer is not a fundamental discriminant of a quadratic field."""


class RamifiedError(RayclassError, ValueError):
    """A prime divides the relevant modulus or discriminant, so the unramified machinery does not apply."""


class NotInTakagiGroupError(RayclassError, ValueError):
    """The given integer has Kronecker symbol != +1, so it lies outside the norm group."""


class WitnessNotFoundError(RayclassError):
    """No factorization witness was found under the prime bound; retry with a larger bound."""


class InternalInconsistencyError(RayclassError):
    """Two routes that must agree disagreed; indicates a bug, not a data condition."""
