"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class HplaxError(Exception):
    """Base class for all library errors."""


class DimensionError(HplaxError):
    """Matrix or polynomial arguments with incompatible shapes."""


class TruncationError(HplaxError):
    """An operation would read series or moment data past its validity."""


class WindowError(HplaxError):
    """A lattice index outside the covered window was requested."""


class NotNormalError(HplaxError):
    """The determinant at a multi-index vanishes, so no monic table entry exists."""

    def __init__(self, n: int, m: int, message: str | None = None):
        self.index = (n, m)
        super().__init__(message or f"index ({n}, {m}) is not normal")


class DegeneracyError(HplaxError):
    """A required denominator (Hankel value, determinant, series head) vanishes."""


class DisjointSupportError(DegeneracyError):
    """Measure supports overlap where disjoint intervals are required."""


class PoleError(DegeneracyError):
    """A Cauchy-transform weight is evaluated at one of its own poles."""


class IntegrityError(HplaxError):
    """An internal identity that must hold on valid data failed; signals a bug."""


class NonPerfectBoundaryError(HplaxError):
    """Boundary data hit a zero denominator: it does not come from a perfect system."""

    def __init__(self, n: int, m: int, message: str | None = None):
        self.index = (n, m)
        super().__init__(message or f"(c-d) vanishes at ({n}, {m}); boundary data are not perfect")
