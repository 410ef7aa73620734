"""Shared exception types, the default work budget and the one rule enforcing it."""


class FriezeError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeCharacteristic(FriezeError):
    """Field characteristic is not a prime number."""


class ReducibleModulus(FriezeError):
    """Supplied extension modulus factors over the prime field."""


class SingularMatrix(FriezeError):
    """Attempt to invert a 2x2 matrix with determinant zero."""


class InvalidWidth(FriezeError):
    """Frieze width outside the supported range (w >= 1)."""


class OddN(FriezeError):
    """Operation requires an even number of points."""


class OddNWithSignFilter(OddN):
    """Sign-class filtering requested for an odd-length configuration."""


class NotLiftable(FriezeError):
    """Even-length configuration outside the plus class has no equal-determinant lift."""


class CriterionFails(FriezeError):
    """First row does not satisfy the -Id matrix criterion."""


class NonIntegralResult(FriezeError):
    """An exact division that must be integral left a remainder (implementation bug)."""


class BudgetExceeded(FriezeError):
    """Estimated work is above the configured budget."""


class DescriptorError(FriezeError):
    """Malformed field descriptor string."""


# Cap on elementary operations (matrix multiplications, configuration visits)
# accepted by the enumeration routines unless the caller overrides it.
DEFAULT_BUDGET = 10**8


def check_budget(terms, budget: int, what: str) -> None:
    """Raise BudgetExceeded at the first partial sum of terms above budget.
    A term is an int >= 0 or a pair (base, e), base >= 2, for base**e; terms
    are read lazily, and a power with e > budget.bit_length() is above budget
    (2**e > budget) without being built.  The message names the budget and
    the unit `what`, not the estimate, which may be too long to print."""
    total = 0
    for term in terms:
        if isinstance(term, tuple):
            base, e = term
            term = base**e if e <= budget.bit_length() else budget + 1
        total += term
        if total > budget:
            raise BudgetExceeded(f"{what} exceed budget {budget}")
