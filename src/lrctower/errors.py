"""Exception hierarchy shared by all lrctower modules, and the size guard
they enforce."""

#: the largest field order any routine builds or factors; TooLarge above it
SIZE_GUARD = 1 << 20


class LrcError(Exception):
    """Base class for all lrctower errors."""


class NotPrime(LrcError, ValueError):
    """The requested field characteristic is not a prime."""


class TooLarge(LrcError, ValueError):
    """A size guard for exhaustive computation was exceeded."""


class DivideByZero(LrcError, ZeroDivisionError):
    """Multiplicative inverse of zero."""


class SpecMismatch(LrcError, ValueError):
    """Operands belong to different fields, or serialized data disagrees
    with the deterministic field construction."""


class NoSquareRoot(LrcError, ValueError):
    """The field order is not a square (odd extension degree)."""


class NotDivisor(LrcError, ValueError):
    """A required divisibility condition on a subgroup order fails."""


class NotAdmissible(LrcError, ValueError):
    """(u, v) does not satisfy the subgroup admissibility conditions, or a
    bound is queried outside its structural constraints."""


class DomainError(LrcError, ValueError):
    """A numeric argument lies outside the domain of the requested bound."""


class ConvergenceFailure(LrcError, ArithmeticError):
    """A root bracketing / bisection step could not locate a sign change."""


class NotDivisible(LrcError, ValueError):
    """(r+1) does not divide the code length."""


class LocalityTooSmall(LrcError, ValueError):
    """Requested locality r is below n/k."""


class SOutOfRange(LrcError, ValueError):
    """Divisor degree s lies outside the permitted range."""


class DistanceNonpositive(LrcError, ValueError):
    """The designed distance lower bound would be < 1."""


class InvariantViolation(LrcError, AssertionError):
    """A structural invariant that should hold by construction failed.
    These act as built-in test oracles and should never fire in normal use."""


class RankDeficiency(LrcError, AssertionError):
    """A generator matrix did not reach its predicted rank."""


class NotRepairable(LrcError, ValueError):
    """More than one erasure inside a repair group."""


class NoGroups(LrcError, ValueError):
    """The code carries no repair-group partition."""


class LengthMismatch(LrcError, ValueError):
    """Vector length disagrees with the code dimension or length."""
