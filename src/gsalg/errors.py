"""Exception types shared across the package, and its one file reader and writer.

read_text, read_json and write_text_atomic turn every failure to read or
write a file into InvalidParams, which the CLI maps to exit 2.
"""

import os


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


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path all at once or not at all.

    The text goes to a new file beside path, is flushed to disk and then
    renamed over path, so a failed write leaves an earlier file unchanged
    and removes its own temporary file.  Write errors raise InvalidParams.
    """
    tmp = os.path.join(
        os.path.dirname(os.path.abspath(path)),
        ".%s.%s.tmp" % (os.path.basename(path), os.urandom(4).hex()),
    )
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidParams("cannot write %s: %s" % (path, exc)) from None


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of an input file.

    A file that cannot be opened or decoded raises InvalidParams
    "cannot read <what> <path>: ..."; ValueError covers undecodable bytes.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise InvalidParams("cannot read %s %s: %s" % (what, path, exc)) from None


def read_json(path: str, what: str):
    """The JSON value in an input file; failures raise as in read_text.

    ValueError covers JSON syntax, RecursionError nesting deeper than the
    decoder recurses.
    """
    import json

    text = read_text(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidParams("cannot read %s %s: %s" % (what, path, exc)) from None
