"""Exception types shared across the package."""


class GsalgError(Exception):
    """Base class for every error this package raises deliberately."""


class MixedFields(GsalgError):
    """Coefficients from two different fields were combined."""


class DivisionByZero(GsalgError, ZeroDivisionError):
    """Division by the zero scalar."""


class AmbientMismatch(GsalgError):
    """Polynomials live over different ambients (variable count or field)."""


class ParseError(GsalgError):
    """Malformed polynomial text.  `position` is the 1-based column."""

    def __init__(self, message, position):
        super().__init__("%s (column %d)" % (message, position))
        self.position = position


class VariableOutOfRange(ParseError):
    """A parsed variable index lies outside x1..xd."""


class TooLarge(GsalgError):
    """An enumeration or matrix would exceed the configured cap."""


class NonHomogeneousGenerator(GsalgError):
    """An ideal generator mixes degrees (or is zero, so has no degree)."""


class DegreeBelowTwo(GsalgError):
    """An ideal generator has degree 0 or 1."""


class DegreeExceedsTable(GsalgError):
    """A membership query needs degrees beyond the table's maxdeg."""


class InvalidParams(GsalgError):
    """Parameters violate a documented precondition."""


class DimensionBoundViolated(GsalgError):
    """A dimension/relation table contradicts the graded lower bound.

    The bound holds for every table produced by build_table, so this fires
    only on inconsistent externally supplied data.
    """


class BlueprintMismatch(GsalgError):
    """A loaded blueprint differs from the rebuild of its own parameters."""


class ConstantTerm(GsalgError):
    """A polynomial that must lie in T_{>=1} has a constant term."""


class DegreeNotCovered(GsalgError):
    """No blueprint block covers the queried degree."""


class DegreeTooHigh(GsalgError):
    """A polynomial exceeds the degree window it must fit in."""


def require_int(value, what: str, low: int, high=None) -> None:
    """Raise InvalidParams unless value is an int, not a bool, in [low..high]."""
    if isinstance(value, int) and not isinstance(value, bool) and (
        low <= value and (high is None or value <= high)
    ):
        return
    rule = {0: "a nonnegative integer", 1: "a positive integer"}.get(low, "an integer >= %d" % low)
    if high is not None:
        rule = "an integer in [%d..%d]" % (low, high)
    raise InvalidParams("%s must be %s, got %r" % (what, rule, value))
