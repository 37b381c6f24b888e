"""Exception hierarchy.  The three branches map to CLI exit codes.

Messages name the points involved through `brief`, so they stay short
even when coordinates run to thousands of digits.
"""

import sys
from contextlib import contextmanager

# CPython's limit on int/str conversion in base 10: 0 while lifted, and
# always 0 on an interpreter that has none, such as CPython before 3.10.7
digit_limit = getattr(sys, "get_int_max_str_digits", int)


@contextmanager
def lifted_digit_limit():
    """Lift CPython's limit on converting a large int to or from decimal
    text for the block, and restore it after.  Coordinates run to 10⁴
    digits, so the places that write or read them as decimals (`brief`,
    a run's `digits`, `serialize`) convert inside one; importing the
    package leaves the limit alone."""
    saved = digit_limit()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


def brief(value) -> str:
    """str(value), cut to 48 characters with a trailing "..."."""
    with lifted_digit_limit():
        text = str(value)
    return text if len(text) <= 48 else text[:45] + "..."


class SchroeterError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ValidationError(SchroeterError):
    """Bad or inconsistent input data (CLI exit code 1)."""

    exit_code = 1


class DegeneracyError(SchroeterError):
    """Configuration too degenerate for the requested operation (exit code 2)."""

    exit_code = 2


class InvariantViolation(SchroeterError):
    """A structural guarantee failed: corrupt data or an internal bug (exit code 3)."""

    exit_code = 3


# --- input / validation -------------------------------------------------

class IdenticalPoints(ValidationError):
    pass


class IdenticalLines(ValidationError):
    pass


class NotInPencil(ValidationError):
    pass


class DuplicatePoints(ValidationError):
    pass


class FourCollinear(ValidationError):
    pass


class CompleteQuadrilateral(ValidationError):
    pass


class OverlappingBootstrap(ValidationError):
    pass


class NotOnCurve(ValidationError):
    pass


class BasePointDegenerate(ValidationError):
    pass


class OffChartCurve(ValidationError):
    pass


class ZeroDenominator(ValidationError):
    pass


class SeedFormatError(ValidationError):
    pass


# --- degeneracy / ambiguity ----------------------------------------------

class TooDegenerate(DegeneracyError):
    pass


class AmbiguousFit(DegeneracyError):
    pass


class SingularPoint(DegeneracyError):
    pass


class LineComponent(DegeneracyError):
    pass


class SharedPoint(DegeneracyError):
    pass


class DegenerateLines(DegeneracyError):
    pass


class LinesNotDistinct(DegeneracyError):
    pass


class DegenerateDirection(DegeneracyError):
    pass


class HypothesisFailed(DegeneracyError):
    pass


class DegenerateHexagon(DegeneracyError):
    pass
