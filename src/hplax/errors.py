"""Exception hierarchy shared by all modules.

Each class carries the exit code and the stderr label the command line
reports it with; a subclass inherits both unless it sets its own.
``check_window`` is the one check of a window where it enters the library,
and ``check_sequence`` the one check of a sequence of values.
"""

from __future__ import annotations

from collections.abc import Sequence


class HplaxError(Exception):
    """Base class for all library errors."""

    exit_code = 1               # an internal mismatch: unreachable on valid data
    label = "error"


class ParseError(HplaxError):
    """A document, or a value where it enters the library, does not match
    its schema: for example a string that is not a rational."""

    exit_code, label = 2, "parse error"


class DimensionError(HplaxError):
    """Matrix or polynomial arguments with incompatible shapes."""


class TruncationError(HplaxError):
    """An operation would read series or moment data past its validity."""

    exit_code, label = 5, "truncation"


class WindowError(HplaxError):
    """A lattice index outside the covered window was requested."""


def check_window(n, m) -> None:
    """Raise WindowError unless n and m are nonnegative ints; a bool is not
    one, as in the documents' windows."""
    if not all(type(v) is int and v >= 0 for v in (n, m)):
        raise WindowError(f"window ({n!r}, {m!r}) needs two nonnegative ints")


def check_sequence(seq, name: str) -> None:
    """Raise ParseError unless seq is a sequence; a str, bytes or bytearray
    is not one here, since its items are characters or bytes, not values."""
    if not isinstance(seq, Sequence) or isinstance(seq, (str, bytes, bytearray)):
        raise ParseError(f"{name} must be a sequence, got {type(seq).__name__}")


class NotNormalError(HplaxError):
    """The determinant at a multi-index vanishes, so no monic table entry exists."""

    exit_code, label = 3, "not normal"

    def __init__(self, n: int, m: int, message: str | None = None):
        self.index = (n, m)
        super().__init__(message or f"index ({n}, {m}) is not normal")


class DegeneracyError(HplaxError):
    """A required denominator (Hankel value, determinant, series head) vanishes."""

    exit_code, label = 3, "degenerate data"


class DisjointSupportError(DegeneracyError):
    """Measure supports overlap where disjoint intervals are required."""


class PoleError(DegeneracyError):
    """A Cauchy-transform weight is evaluated at one of its own poles."""


class IntegrityError(HplaxError):
    """An internal identity that must hold on valid data failed; signals a bug."""


class NonPerfectBoundaryError(HplaxError):
    """Boundary data hit a zero denominator: it does not come from a perfect system."""

    exit_code, label = 4, "non-perfect boundary"

    def __init__(self, n: int, m: int, message: str | None = None):
        self.index = (n, m)
        super().__init__(message or f"(c-d) vanishes at ({n}, {m}); boundary data are not perfect")
