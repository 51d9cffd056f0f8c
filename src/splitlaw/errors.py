"""Exception types shared across the package."""


class SplitlawError(Exception):
    """Base class for all errors raised by this package."""


class NonInvertible(SplitlawError):
    """Attempt to invert zero (or a non-unit) in a field context."""


class ExtensionTooLarge(SplitlawError):
    """Requested extension degree exceeds the configured cap."""


class ZeroDivisor(SplitlawError):
    """Division by the zero polynomial."""


class UnsupportedDegree(SplitlawError):
    """Polynomial degree outside the supported range for this operation."""


class EvenDegree(SplitlawError):
    """Curve model requires an odd-degree defining polynomial."""


class NotSquarefree(SplitlawError):
    """Operation requires a squarefree polynomial."""


class BadCharacteristic(SplitlawError):
    """Operation is not defined in characteristic 2."""


class NotMonic(SplitlawError):
    """Operation requires a monic polynomial."""


class CurveMismatch(SplitlawError):
    """Divisors from different curves were combined."""


class ZeroDiscriminant(SplitlawError):
    """Integer polynomial is not squarefree over the rationals."""


class NotIrreducible(SplitlawError):
    """Integer polynomial failed the heuristic irreducibility check."""


class EmptyRange(SplitlawError):
    """No good primes at or below the requested bound."""


class PolynomialSyntaxError(SplitlawError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# A failed internal check, as opposed to refused input: the CLI exits 3 on these
# and on a ValueError in the work at one prime. BrokenProcessPool is a RuntimeError.
INTERNAL_ERRORS = (RuntimeError, AssertionError, ArithmeticError)
