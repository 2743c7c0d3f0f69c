"""Measure models and exact moment machinery.

Moments are always exact rationals, which restricts the admissible measures
to finite atom sets and Lebesgue measure on rational intervals.  The Cauchy
transform convention is fixed throughout the library:

    g(z) = integral of d(mu)(x) / (z - x) = sum_k s_k z^(-k-1),  s_0 = |mu| > 0,

with the J-fraction  g ~ 1/(z - c_0 - a_1/(z - c_1 - ...)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DegeneracyError, DisjointSupportError, PoleError,
                     TruncationError)
from .kernel import LeadingMinors, Poly, Ratlike, cleared, rat

DISCRETE = "discrete"
INTERVAL = "interval"


@dataclass(frozen=True)
class MeasureModel:
    """A finite atomic measure or Lebesgue measure on a rational interval."""

    kind: str
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()
    lo: Fraction | None = None
    hi: Fraction | None = None

    @staticmethod
    def discrete(atoms) -> "MeasureModel":
        pts = tuple((rat(t), rat(w)) for t, w in atoms)
        nodes = [t for t, _ in pts]
        if len(set(nodes)) != len(nodes):
            raise DegeneracyError("discrete measure nodes must be pairwise distinct")
        return MeasureModel(DISCRETE, atoms=pts)

    @staticmethod
    def interval(lo: Ratlike, hi: Ratlike) -> "MeasureModel":
        lo, hi = rat(lo), rat(hi)
        if not lo < hi:
            raise DegeneracyError(f"interval needs lo < hi, got [{lo}, {hi}]")
        return MeasureModel(INTERVAL, lo=lo, hi=hi)

    def support_bounds(self) -> tuple[Fraction, Fraction]:
        if self.kind == INTERVAL:
            return self.lo, self.hi
        nodes = [t for t, _ in self.atoms]
        if not nodes:
            raise DegeneracyError("empty atomic measure has no support")
        return min(nodes), max(nodes)


@dataclass(frozen=True)
class MomentSystem:
    """Two exact moment sequences of a common truncation order."""

    s1: tuple[Fraction, ...]
    s2: tuple[Fraction, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "s1", tuple(rat(x) for x in self.s1))
        object.__setattr__(self, "s2", tuple(rat(x) for x in self.s2))
        if len(self.s1) != len(self.s2):
            raise DegeneracyError(
                f"moment sequences differ in length: {len(self.s1)} vs {len(self.s2)}")

    @property
    def count(self) -> int:
        return len(self.s1)

    def check_depth(self, n: int, m: int, bordered: bool) -> None:
        """Raise unless both sequences hold the moments that S(n, m), or with
        ``bordered`` P(n, m), is built from."""
        extra = 1 if bordered else 0
        need1, need2 = max(2 * n + m - 1 + extra, 0), max(n + 2 * m - 1 + extra, 0)
        if max(need1, need2) > self.count:
            raise TruncationError(
                f"index ({n}, {m}) needs {need1} moments of the first sequence and "
                f"{need2} of the second, have {self.count}")


@dataclass(frozen=True)
class JFraction:
    """Diagonal coefficients c_n, subdiagonal products a_(n+1), total mass s0."""

    c: tuple[Fraction, ...]
    a: tuple[Fraction, ...]
    s0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(rat(x) for x in self.c))
        object.__setattr__(self, "a", tuple(rat(x) for x in self.a))
        object.__setattr__(self, "s0", rat(self.s0))
        if not self.c:
            raise DegeneracyError("J-fraction depth must be at least 1")
        if len(self.a) not in (len(self.c) - 1, len(self.c)):
            raise DegeneracyError(
                f"J-fraction lengths inconsistent: {len(self.c)} diagonal, "
                f"{len(self.a)} subdiagonal")
        if any(x == 0 for x in self.a):
            raise DegeneracyError("J-fraction subdiagonal entries must be nonzero")

    @property
    def depth(self) -> int:
        return len(self.c)


def measure_moments(mu: MeasureModel, count: int) -> list[Fraction]:
    """Exact power moments: entry k is the integral of x^k against mu."""
    if mu.kind == INTERVAL:
        return [(mu.hi ** (k + 1) - mu.lo ** (k + 1)) / (k + 1) for k in range(count)]
    out = []
    for k in range(count):
        out.append(sum((w * t ** k for t, w in mu.atoms), Fraction(0)))
    return out


def _require_disjoint(mu1: MeasureModel, mu2: MeasureModel) -> None:
    lo1, hi1 = mu1.support_bounds()
    lo2, hi2 = mu2.support_bounds()
    if not (hi1 < lo2 or hi2 < lo1):
        raise DisjointSupportError(
            f"supports [{lo1}, {hi1}] and [{lo2}, {hi2}] are not disjoint")


def make_angelesco(mu1: MeasureModel, mu2: MeasureModel, count: int) -> MomentSystem:
    """Pair of measures on disjoint closed intervals; every index is normal."""
    _require_disjoint(mu1, mu2)
    return MomentSystem(tuple(measure_moments(mu1, count)),
                        tuple(measure_moments(mu2, count)),
                        label="angelesco")


def make_nikishin(sigma1: MeasureModel, sigma2: MeasureModel, count: int) -> MomentSystem:
    """Pair (sigma1, sigma2-hat weighted sigma1) from two discrete generators.

    The second sequence carries the moments of the measure obtained by
    weighting sigma1 with the Cauchy transform of sigma2; both component
    measures must be discrete so the weights stay rational.
    """
    if sigma1.kind != DISCRETE or sigma2.kind != DISCRETE:
        raise DegeneracyError("Nikishin generators must both be discrete")
    nodes2 = {t for t, _ in sigma2.atoms}
    for x, _ in sigma1.atoms:
        if x in nodes2:
            raise PoleError(f"sigma2 has an atom at node {x} of sigma1")
    if sigma2.atoms:
        _require_disjoint(sigma1, sigma2)
    s1 = measure_moments(sigma1, count)
    s2 = []
    for k in range(count):
        acc = Fraction(0)
        for x, v in sigma1.atoms:
            weight = sum((w / (x - t) for t, w in sigma2.atoms), Fraction(0))
            acc += v * x ** k * weight
        s2.append(acc)
    return MomentSystem(tuple(s1), tuple(s2), label="nikishin")


class HankelMinors:
    """The Hankel blocks of one moment sequence, as integer leading minors.

    The moments are cleared of denominators once (D s_j, D their lcm).
    ``shift(k, width)`` is one fraction-free elimination
    (``kernel.LeadingMinors``) of the Hankel rows D s[k + r:k + r + width],
    made on the first request for that shift and width and kept.  Its
    leading minor of order n is D^n H(n, k), the determinant of the block
    [s_(k+i+j)], i, j < n, and its null vector of order n holds the monic
    orthogonal polynomial of degree n of the functional x^k s, scaled.  Each
    caller fixes the width from its own reads: a minor of order n needs n
    columns, a null vector or ``null_tail`` of order n needs n + 1.

    The rows are zero-padded past the last moment, as ``HPTable``'s are:
    column t of a reduced row depends only on columns <= t, so a read
    whose moments exist, up to index k + 2n - 2 for a minor and
    k + 2n - 1 for a null vector, never sees the padding.
    """

    def __init__(self, moments):
        self._ints, self.scale = cleared([rat(x) for x in moments])
        self._eliminations: dict[tuple[int, int], LeadingMinors] = {}

    def shift(self, k: int, width: int) -> LeadingMinors:
        key = (k, width)
        if key not in self._eliminations:
            ints = self._ints

            def row(r: int) -> list[int]:
                entries = ints[k + r:k + r + width]
                return entries + [0] * (width - len(entries))

            self._eliminations[key] = LeadingMinors(row, width)
        return self._eliminations[key]


def monic_orthogonal_polys(s, upto: int) -> list[Poly]:
    """Monic orthogonal polynomials pi_0..pi_upto for the moment functional.

    Determinant route, independent of the Chebyshev recurrence of
    moments_to_jfraction: pi_n is the monic null vector of the Hankel rows
    s[r + j] (r < n, j <= n), which is the table's P(n, 0) for the single
    sequence s.  One elimination of the Hankel rows (``HankelMinors``),
    upto + 1 columns wide, serves all degrees.
    """
    if upto < 0:
        return []
    need = max(2 * upto, 1)
    if len(s) < need:
        raise TruncationError(
            f"need {need} moments for orthogonal polynomials up to degree {upto}, "
            f"have {len(s)}")
    hankel = HankelMinors(s[:need]).shift(0, upto + 1)
    polys = []
    for n in range(upto + 1):
        if hankel.minor(n) == 0:
            raise DegeneracyError(
                f"moment functional degenerates at depth {n} "
                f"(Hankel determinant of order {n} vanishes)")
        polys.append(Poly.monic(hankel.null_vector(n)))
    return polys


def moments_to_jfraction(s, depth: int) -> JFraction:
    """Three-term recurrence coefficients c_0..c_(depth-1), a_1..a_(depth-1).

    Chebyshev's algorithm on the mixed moments sigma_(k,l) = L[pi_k x^l]
    (Gautschi 2004, section 2.1.7): row k follows from rows k - 1 and k - 2
    by the recurrence itself, so no polynomial is formed.  Fails loudly
    (naming the depth) at the first vanishing norm sigma_(k,k) = L[pi_k^2],
    that is, where a leading principal Hankel determinant vanishes.
    """
    s = [rat(x) for x in s]
    if depth < 1:
        raise DegeneracyError("J-fraction depth must be at least 1")
    if len(s) < 2 * depth:
        raise TruncationError(
            f"depth {depth} needs {2 * depth} moments, have {len(s)}")
    c: list[Fraction] = []
    a: list[Fraction] = []
    # row k is read at l >= k only (sigma_(k,l) vanishes below); prev is row k - 1
    prev, row = [0] * (2 * depth), s[:2 * depth]
    for k in range(depth):
        if row[k] == 0:
            raise DegeneracyError(
                f"vanishing Hankel determinant: functional degenerates at depth {k}")
        c.append(row[k + 1] / row[k] - (prev[k] / prev[k - 1] if k else 0))
        if k:
            a.append(row[k] / prev[k - 1])
        ak = a[-1] if k else 0
        prev, row = row, [row[l + 1] - c[k] * row[l] - ak * prev[l] if l > k else 0
                          for l in range(2 * depth - k - 1)]
    return JFraction(tuple(c), tuple(a), s[0])


def jfraction_to_moments(j: JFraction, count: int) -> list[Fraction]:
    """Recover moments as s0 times the (0,0) entry of powers of the monic
    tridiagonal matrix with diagonal c and subdiagonal a.

    Exact left-inverse of moments_to_jfraction on its image for
    count <= 2 * depth.
    """
    if count < 0:
        raise DegeneracyError(f"moment count must be nonnegative, got {count}")
    if count == 0:
        return []
    d = j.depth
    # iterate v := T^k e_0 without forming T
    v = [Fraction(1)] + [Fraction(0)] * (d - 1)
    out = [j.s0 * v[0]]
    for _ in range(count - 1):
        w = [Fraction(0)] * d
        for i in range(d):
            acc = j.c[i] * v[i]
            if i + 1 < d:
                acc += v[i + 1]            # superdiagonal of the monic matrix is 1
            if i >= 1 and i - 1 < len(j.a):
                acc += j.a[i - 1] * v[i - 1]
            w[i] = acc
        v = w
        out.append(j.s0 * v[0])
    return out
