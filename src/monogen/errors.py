"""Exception hierarchy shared across the package."""


class MonogenError(Exception):
    """Base class for all errors raised by this package."""


class ArityMismatch(MonogenError):
    pass


class BaseRingMismatch(MonogenError):
    pass


class NonSquare(MonogenError):
    pass


class ZeroPolynomial(MonogenError):
    pass


class NonMonic(MonogenError):
    pass


class NotClosedUnderMultiplication(MonogenError):
    pass


class SingularBasisMatrix(MonogenError):
    pass


class NotIntegerBase(MonogenError):
    pass


class LengthMismatch(MonogenError):
    pass


class InvalidAlgebra(MonogenError):
    pass


class BudgetExceeded(MonogenError):
    pass


class ZeroIndexForm(MonogenError):
    pass


class SplitFailure(MonogenError):
    pass


class IdentityNotInBasis(MonogenError):
    pass


class DegenerateDegree(MonogenError):
    pass


class ParseError(MonogenError):
    pass


class ValidationError(MonogenError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
