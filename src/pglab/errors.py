"""Exception hierarchy.

Validation failures (bad input) map to CLI exit code 1, cap refusals to
exit code 2.  InternalContradiction subclasses flag conditions that are
impossible on validated inputs; raising one means a bug, not bad data.
"""


class PolyadicError(Exception):
    """Base class for all library errors."""


class ValidationError(PolyadicError):
    """Input fails a structural requirement."""


class ParseError(ValidationError):
    """A JSON document does not match the expected schema."""


class NoIdentityAtZero(ValidationError):
    """Index 0 does not act as a two-sided identity."""


class NotLatinSquare(ValidationError):
    """Some row or column of the table repeats an entry."""


class NotAssociative(ValidationError):
    """Associativity fails; the message names the first violating tuple."""


class NotSolvable(ValidationError):
    """Some positional equation has no solution."""


class NotAutomorphism(ValidationError):
    """A permutation does not respect the group operation."""


class BNotFixed(ValidationError):
    """The twisting automorphism does not fix the constant."""


class PowerCondition(ValidationError):
    """theta^(n-1) differs from conjugation by the constant."""


class NotCentral(ValidationError):
    """The constant of a b-derived operation must be central."""


class ArityMismatch(ValidationError):
    """Wrong number of arguments for the operation's arity."""


class NotNormal(ValidationError):
    """The given subgroup is not normal."""


class ConditionViolated(ValidationError):
    """A (a, phi) pair fails one of the two composition conditions."""


class InternalContradiction(PolyadicError):
    """A check that cannot fail on validated inputs failed anyway."""


class NoSolution(InternalContradiction):
    """No element satisfies an equation that must be solvable."""


class NotUnique(InternalContradiction):
    """An equation with a guaranteed unique solution has several."""


class RoundTripMismatch(InternalContradiction):
    """A reconstructed presentation does not reproduce the operation."""


class DecompositionFailed(InternalContradiction):
    """A validated homomorphism admits no right-translation split."""


class IllDefined(InternalContradiction):
    """A quotient operation depends on the choice of representatives."""


class MethodDisagreement(InternalContradiction):
    """Theorem-based and oracle computations returned different results."""


class CapExceeded(PolyadicError):
    """A configured resource cap (cap: the Caps field) refuses a computation."""

    def __init__(self, message: str, *, cap: str, required: int | None = None):
        super().__init__(message)
        self.cap = cap
        self.required = required


class OrderCapExceeded(CapExceeded):
    """Carrier too large for the requested enumeration."""


class CostCapExceeded(CapExceeded):
    """Estimated operation count exceeds the configured budget."""
