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
from math import gcd

from .errors import (DegeneracyError, DisjointSupportError, ParseError, PoleError,
                     TruncationError, check_int, check_sequence)
from .kernel import Poly, Ratlike, cleared, rat, solve_exact

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
        """The measure of the atoms, a sequence of (node, weight) pairs, each
        a sequence of two values that ``kernel.rat`` accepts; anything else
        raises ParseError."""
        check_sequence(atoms, "discrete measure atoms")
        for atom in atoms:
            check_sequence(atom, f"atom {atom!r}")
            if len(atom) != 2:
                raise ParseError(f"bad atom {atom!r}; expected [node, weight]")
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
    """Two exact moment sequences of a common truncation order, each a
    sequence of values that ``kernel.rat`` accepts; a non-sequence, or a
    str, bytes or bytearray (whose items are characters or bytes, not
    moments), raises ParseError."""

    s1: tuple[Fraction, ...]
    s2: tuple[Fraction, ...]
    label: str = ""

    def __post_init__(self):
        for name in ("s1", "s2"):
            seq = getattr(self, name)
            check_sequence(seq, f"moment sequence {name}")
            object.__setattr__(self, name, tuple(rat(x) for x in seq))
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
    """Diagonal coefficients c_n, subdiagonal products a_(n+1), total mass s0.

    c and a are sequences of values that ``kernel.rat`` accepts, as in
    ``MomentSystem``; a non-sequence, or a str, bytes or bytearray, raises
    ParseError."""

    c: tuple[Fraction, ...]
    a: tuple[Fraction, ...]
    s0: Fraction

    def __post_init__(self):
        for name in ("c", "a"):
            seq = getattr(self, name)
            check_sequence(seq, f"J-fraction {name}")
            object.__setattr__(self, name, tuple(rat(x) for x in seq))
        object.__setattr__(self, "s0", rat(self.s0))
        if not self.c:
            raise DegeneracyError("J-fraction depth must be at least 1")
        if len(self.a) not in (len(self.c) - 1, len(self.c)):
            raise DegeneracyError(
                f"J-fraction lengths inconsistent: {len(self.c)} diagonal, "
                f"{len(self.a)} subdiagonal")
        if any(x == 0 for x in self.a):
            raise DegeneracyError("J-fraction subdiagonal entries must be nonzero")
        if self.s0 == 0:
            raise DegeneracyError("J-fraction total mass s0 must be nonzero")

    @property
    def depth(self) -> int:
        return len(self.c)


def measure_moments(mu: MeasureModel, count: int) -> list[Fraction]:
    """Exact power moments: entry k is the integral of x^k against mu.

    Each is one Fraction of integers.  A discrete measure's moments are
    integer power sums over one denominator (``_power_sums``); with its ends
    cleared to A / Q and C / Q, moment j - 1 of the interval [A / Q, C / Q]
    is (C^j - A^j) / (j Q^j)."""
    check_int(count, "moment count", error=DegeneracyError)
    if mu.kind == INTERVAL:
        (a, c), q = cleared([mu.lo, mu.hi])
        return [Fraction(c ** j - a ** j, j * q ** j) for j in range(1, count + 1)]
    return _power_sums(mu.atoms, count)


def _power_sums(atoms, count: int) -> list[Fraction]:
    """sum w t^k over the atoms (t, w), for k < count.

    The nodes and the weights are cleared of denominators once (t = P / Q,
    w = W / L), so moment k is the one Fraction sum W P^k / (L Q^k) of
    running integer powers W P^k."""
    nodes, q = cleared([t for t, _ in atoms])
    terms, scale = cleared([w for _, w in atoms])
    out = []
    for _ in range(count):
        out.append(Fraction(sum(terms), scale))
        terms = [w * p for w, p in zip(terms, nodes)]
        scale *= q
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
    measures must be discrete so the weights stay rational.  The weighted
    atom v sum_t w / (x - t) at each node x of sigma1 is formed once, with
    |sigma1| x |sigma2| Fraction divisions whatever the count, and both
    sequences are integer power sums over one denominator (``_power_sums``).
    """
    if sigma1.kind != DISCRETE or sigma2.kind != DISCRETE:
        raise DegeneracyError("Nikishin generators must both be discrete")
    nodes2 = {t for t, _ in sigma2.atoms}
    for x, _ in sigma1.atoms:
        if x in nodes2:
            raise PoleError(f"sigma2 has an atom at node {x} of sigma1")
    if sigma2.atoms:
        _require_disjoint(sigma1, sigma2)
    weighted = [(x, v * sum((w / (x - t) for t, w in sigma2.atoms), Fraction(0)))
                for x, v in sigma1.atoms]
    s1 = measure_moments(sigma1, count)
    s2 = _power_sums(weighted, count)
    return MomentSystem(tuple(s1), tuple(s2), label="nikishin")


def hankel_row(ints: list[int], start: int, width: int) -> list[int]:
    """The Hankel row ints[start:start + width] of a cleared moment sequence,
    zero-padded past its last moment to width entries.  Column t of a row
    reduced by fraction-free steps depends only on the columns <= t of it
    and of its pivot rows, so a read whose moments all exist never sees the
    padding."""
    entries = ints[start:start + width]
    return entries + [0] * (width - len(entries))


def monic_orthogonal_polys(s, upto: int) -> list[Poly]:
    """Monic orthogonal polynomials pi_0..pi_upto for the moment functional.

    Determinant route, independent of the Chebyshev recurrence of
    moments_to_jfraction: the lower coefficients of pi_n solve the Hankel
    system sum_(j<n) s[r + j] p_j = -s[r + n], r < n (``solve_exact``), so
    pi_n is the monic null vector of the rows s[r:r + n + 1], which is the
    table's P(n, 0) for the single sequence s.  The system is singular
    exactly where the Hankel determinant of order n vanishes.
    """
    check_sequence(s, "moment sequence")
    check_int(upto, "orthogonal polynomial degree")
    need = max(2 * upto, 1)
    if len(s) < need:
        raise TruncationError(
            f"need {need} moments for orthogonal polynomials up to degree {upto}, "
            f"have {len(s)}")
    s = [rat(x) for x in s[:need]]
    polys = []
    for n in range(upto + 1):
        try:
            low = solve_exact([s[r:r + n] for r in range(n)], [-s[r + n] for r in range(n)])
        except DegeneracyError:
            raise DegeneracyError(
                f"moment functional degenerates at depth {n} "
                f"(Hankel determinant of order {n} vanishes)") from None
        polys.append(Poly((*low, 1)))
    return polys


def jfraction_entries(s) -> list[Fraction]:
    """The J-fraction data of the moment functional s, as far as its
    moments fix them: a_0 = s_0, c_0, a_1, c_1, ..., where entry j reads
    s_0 .. s_j only.  A zero a_k (a vanishing Hankel determinant of order
    k + 1) is the last entry: c_k does not exist there.

    Chebyshev's algorithm on the mixed moments sigma_(k,l) = L[pi_k x^l],
    l >= k, cut to the moments present (Gautschi 2004, section 2.1.7), so
    no polynomial is formed.  Row k holds the ints R_k(l) = E_k sigma_(k,l)
    over one denominator E_k.  With r0, r1 its first two entries and p0, p1
    those of row k - 1, c_k = r1 / r0 - p1 / p0, a_k = r0 E_(k-1) / (E_k p0),
    and row k + 1 is

        r0 p0 R_k(l+1) - (r1 p0 - p1 r0) R_k(l) - r0^2 R_(k-1)(l)

    over r0 p0 E_k, with its content (the gcd of its denominator and
    entries) divided out once; so E_(k+1) divides D H_(k+1), H the Hankel
    determinants of the cleared moments D s.  Only c_k and a_k are
    Fractions.  Row -1 is 1, 0, 0, ... over 1, so a_0 = s_0.  The moments
    are read as ``MomentSystem`` reads them: through ``kernel.rat``, with a
    non-sequence or a str, bytes or bytearray refused with ParseError.
    """
    check_sequence(s, "moment sequence")
    row, den = cleared([rat(x) for x in s])
    prev, prev_den = [1] + [0] * len(row), 1
    out = []
    while row:
        r0, p0 = row[0], prev[0]
        out.append(Fraction(r0 * prev_den, den * p0))
        if r0 == 0 or len(row) == 1:
            break
        t = row[1] * p0 - prev[1] * r0
        out.append(Fraction(t, r0 * p0))
        u, w = r0 * p0, r0 * r0
        new = [u * row[i + 2] - t * row[i + 1] - w * prev[i + 2]
               for i in range(len(row) - 2)]
        g = gcd(u * den, *new)
        prev, prev_den = row, den
        row, den = [x // g for x in new], u * den // g
    return out


def moments_to_jfraction(s, depth: int) -> JFraction:
    """Three-term recurrence coefficients c_0..c_(depth-1), a_1..a_(depth-1)
    off the first 2 depth moments (``jfraction_entries``).  Fails loudly
    (naming the depth) at the first vanishing norm sigma_(k,k) = L[pi_k^2],
    that is, where a leading principal Hankel determinant vanishes.
    """
    s = [rat(x) for x in s]
    check_int(depth, "J-fraction depth", 1, DegeneracyError)
    if len(s) < 2 * depth:
        raise TruncationError(
            f"depth {depth} needs {2 * depth} moments, have {len(s)}")
    entries = jfraction_entries(s[:2 * depth])
    if len(entries) < 2 * depth:
        raise DegeneracyError("vanishing Hankel determinant: functional degenerates "
                              f"at depth {len(entries) // 2}")
    return JFraction(tuple(entries[1::2]), tuple(entries[2::2]), s[0])


def jfraction_to_moments(j: JFraction, count: int) -> list[Fraction]:
    """Recover moments as s0 times the (0,0) entry of powers of the monic
    tridiagonal matrix with diagonal c and subdiagonal a.

    Exact left-inverse of moments_to_jfraction on its image for
    count <= 2 * depth.  The matrix is scaled by L, the lcm of the
    denominators of the c and a it reads, so v := (L T) v runs in ints and
    moment k is s0 v_0 / L^k.  Step k computes only the rows below k + 1,
    where T^k e_0 can be nonzero, and below count - k, from which v_0 can
    still be reached.
    """
    check_int(count, "moment count", error=DegeneracyError)
    if count == 0:
        return []
    d = j.depth
    ints, scale = cleared(j.c + j.a[:d - 1])
    c, a = ints[:d], ints[d:]
    num, den = j.s0.numerator, j.s0.denominator
    v = [1]
    out = [j.s0]
    for k in range(1, count):
        rows = min(d, k + 1, count - k)
        v += [0] * (rows + 1 - len(v))
        v = [c[i] * v[i] + scale * v[i + 1] + (a[i - 1] * v[i - 1] if i else 0)
             for i in range(rows)]
        den *= scale
        out.append(Fraction(num * v[0], den))
    return out
