"""Exact arithmetic substrate.

Scalars are arbitrary-precision rationals (``fractions.Fraction``).  On top
of them sit dense polynomials, truncated Laurent tails at infinity, and small
square matrices of polynomials.  Every value is immutable after construction
and safe to share between tasks, except a ``LeadingMinors`` elimination, which
grows in place, in depth only, as deeper minors are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Callable, Iterable, Sequence, Union

from .errors import DegeneracyError, DimensionError, IntegrityError, TruncationError

Ratlike = Union[Fraction, int, str]

ZERO = Fraction(0)


def rat(x: Ratlike) -> Fraction:
    """Coerce an int, a ``p/q`` string, or a Fraction to an exact rational."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _coerced(coeffs: Iterable[Ratlike]) -> tuple[Fraction, ...]:
    return tuple(rat(c) for c in coeffs)


def _trimmed(coeffs: Iterable[Ratlike]) -> tuple[Fraction, ...]:
    out = list(_coerced(coeffs))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Poly:
    """Dense polynomial, coefficients by ascending power of x.

    The zero polynomial is the empty tuple; no trailing zero coefficient is
    ever stored, so ``degree == len(coeffs) - 1`` always holds.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trimmed(self.coeffs))

    @staticmethod
    def of(*coeffs: Ratlike) -> "Poly":
        return Poly(coeffs)

    @staticmethod
    def monic(ints: Sequence[int]) -> "Poly":
        """The polynomial sum ints[i] / ints[-1] x^i, ints[-1] nonzero: its
        coefficients are built once, already exact and trimmed."""
        lead = ints[-1]
        poly = object.__new__(Poly)
        object.__setattr__(poly, "coeffs", tuple(Fraction(v, lead) for v in ints))
        return poly

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    @property
    def is_monic(self) -> bool:
        return self.leading == 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def evaluate(self, t: Ratlike) -> Fraction:
        t = rat(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(tuple(a + b for a, b in zip_longest(self.coeffs, other.coeffs,
                                                         fillvalue=ZERO)))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(tuple(a - b for a, b in zip_longest(self.coeffs, other.coeffs,
                                                         fillvalue=ZERO)))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly | Ratlike") -> "Poly":
        if not isinstance(other, Poly):
            c = rat(other)
            return Poly(tuple(c * a for a in self.coeffs))
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            mag = abs(c)
            body = "" if (mag == 1 and k > 0) else str(mag)
            xpow = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            term = body + ("*" if body and xpow else "") + xpow
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


#: The monomial x, handy for assembling degree-1 matrix entries.
X = Poly.of(0, 1)


@dataclass(frozen=True)
class LaurentTail:
    """Truncated Laurent series at infinity: entry k is the coefficient of
    z^(-k-1).  The number of stored entries is the truncation order; trailing
    zeros are significant and kept.  Any read past the stored window raises
    instead of guessing.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coerced(self.coeffs))

    @staticmethod
    def of(*coeffs: Ratlike) -> "LaurentTail":
        return LaurentTail(coeffs)

    @staticmethod
    def zeros(order: int) -> "LaurentTail":
        return LaurentTail((Fraction(0),) * order)

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs)

    def coeff(self, k: int) -> Fraction:
        if k < 0:
            raise DimensionError("Laurent tail has no nonnegative powers")
        if k >= len(self.coeffs):
            raise TruncationError(
                f"coefficient of z^-{k + 1} requested, but only "
                f"{len(self.coeffs)} coefficients are valid"
            )
        return self.coeffs[k]

    def head(self, count: int) -> tuple[Fraction, ...]:
        if count > len(self.coeffs):
            raise TruncationError(
                f"{count} coefficients requested, only {len(self.coeffs)} valid"
            )
        return self.coeffs[:count]

    def __add__(self, other: "LaurentTail") -> "LaurentTail":
        n = min(len(self.coeffs), len(other.coeffs))
        return LaurentTail(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n)))

    def __mul__(self, scalar: Ratlike) -> "LaurentTail":
        c = rat(scalar)
        return LaurentTail(tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__


@dataclass(frozen=True)
class MatPoly:
    """Square matrix of polynomials (dimension 2 or 3 in practice)."""

    rows: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionError("matrix polynomial must be square")
        if any(not isinstance(e, Poly) for r in rows for e in r):
            raise DimensionError("matrix entries must be Poly")
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def identity(dim: int) -> "MatPoly":
        one, zero = Poly.of(1), Poly()
        return MatPoly(tuple(tuple(one if i == j else zero for j in range(dim))
                             for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for r in self.rows for e in r)

    def __mul__(self, other: "MatPoly") -> "MatPoly":
        """Matrix product: entry (i, j) is the sum over k of the Poly
        products self[i][k] * other[k][j].  The production routes form no
        product; it serves the oracles (zero-curvature residuals, transport
        along lattice paths, wave propagation)."""
        if self.dim != other.dim:
            raise DimensionError("matrix dimensions differ")
        cols = tuple(zip(*other.rows))
        return MatPoly(tuple(tuple(sum((f * g for f, g in zip(row, col)), Poly())
                                   for col in cols)
                             for row in self.rows))

    def __sub__(self, other: "MatPoly") -> "MatPoly":
        if self.dim != other.dim:
            raise DimensionError("matrix dimensions differ")
        return MatPoly(tuple(tuple(a - b for a, b in zip(ra, rb))
                             for ra, rb in zip(self.rows, other.rows)))

    def scale(self, c: Ratlike) -> "MatPoly":
        return MatPoly(tuple(tuple(e * c for e in r) for r in self.rows))

    def det(self) -> Poly:
        n = self.dim
        if n == 1:
            return self.rows[0][0]
        acc = Poly()
        for j in range(n):
            minor = MatPoly(tuple(tuple(r[k] for k in range(n) if k != j)
                                  for r in self.rows[1:]))
            term = self.rows[0][j] * minor.det()
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    def adjugate(self) -> "MatPoly":
        n = self.dim
        if n == 1:
            return MatPoly(((Poly.of(1),),))
        cof = [[Poly()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = MatPoly(tuple(
                    tuple(self.rows[r][k] for k in range(n) if k != j)
                    for r in range(n) if r != i))
                d = minor.det()
                cof[j][i] = d if (i + j) % 2 == 0 else -d
        return MatPoly(tuple(tuple(r) for r in cof))

    def inverse(self) -> "MatPoly":
        """Exact inverse; requires the determinant to be a nonzero constant."""
        d = self.det()
        if d.is_zero:
            raise DegeneracyError("matrix polynomial is singular")
        if d.degree > 0:
            raise IntegrityError(
                "determinant is not x-independent; inverse is not polynomial")
        return self.adjugate().scale(1 / d.coeff(0))


def cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, as ints, and that lcm."""
    mult = 1
    for x in values:    # pairwise: lcm(*...) here raised peak memory by ~1.5 MiB
        mult = lcm(mult, x.denominator)
    return [x.numerator * (mult // x.denominator) for x in values], mult


def ratio_sum(*terms: tuple) -> tuple[int, int]:
    """The sum of sign * x_1 * ... * x_k over the terms (sign, x_1, ..., x_k),
    each x a (numerator, denominator) pair of ints, as one such pair: the
    numerator over the product of every factor's denominator.  No gcd is
    taken, so a sum that must vanish costs no reduction."""
    num, den = 0, 1
    for sign, *factors in terms:
        tn, td = sign, 1
        for p, q in factors:
            tn *= p
            td *= q
        num, den = num * td + tn * den, den * td
    return num, den


def settle(pair: tuple[int, int]) -> Fraction:
    """The Fraction of a (numerator, denominator) pair; ZERO, with no gcd
    taken, when the numerator vanishes."""
    num, den = pair
    return Fraction(num, den) if num else ZERO


class LeadingMinors:
    """Leading principal minors of an integer matrix of ``width`` columns,
    by fraction-free (Bareiss) elimination with row exchanges, extended in
    depth on demand.

    ``row(r)`` gives row r, of which the first width entries are read, once,
    when a step first needs the row; a shorter row raises.  Minors reach
    order width, null vectors order width - 1.  Step c fixes the row at
    position c as its pivot row and divides by the pivot of step c - 1;
    every division is exact (``_step``).  A stored row at position i has
    gone through min(i, steps) steps and keeps its multipliers row[c], c < i,
    where a one-shot elimination would zero them.  At a zero pivot, step c
    exchanges in the first row at positions c + 1 .. k - 1 with a nonzero
    entry in column c, k the order asked for; no row past k - 1 is read.
    When there is none the elimination stops, and a deeper request searches
    again.  The leading k x k minor is 0 when fewer than k steps finish or an
    exchange at a step c < k brought in a row from a position r >= k (rows
    c .. k - 1 are then zero in column c); otherwise it is the pivot of step
    k - 1, negated once per exchange at a step below k.

    ``fork(k, tail, width)`` eliminates the matrix of this one's rows
    0 .. k - 1, tail, tail + 1, .., at a width no wider than this one's,
    starting from this one's exchange-free prefix: its first j steps, j the
    least of k, the steps it finishes among its first k rows, and the step
    of its first exchange.  No exchange precedes step j, so those steps'
    pivot rows are rows 0 .. j - 1 as they stand: the fork takes them over
    with their pivots (``inherited`` counts the steps), and reads its rows
    j .. k - 1 afresh, as a fresh elimination would, running the j steps on
    each.  Each row tail + i the fork reaches comes from the parent as it
    stands after the j steps (``_level``), cut to the fork's width, and the
    fork runs only its own steps on it.  The parent keeps such a row after
    every step count a fork asked for, so forks at different j reduce it
    once, and never steps it further.  Neither's later steps, exchanges or
    reads change the other's minors.  A fork is not forked.
    """

    def __init__(self, row: Callable[[int], Sequence[int]], width: int):
        self._row = row
        self.width = width
        # a fork's parent, its k and its tail
        self._parent: tuple[LeadingMinors, int, int] | None = None
        self.inherited = 0                          # steps taken over at a fork
        self._rows: list[list[int]] = []            # by position
        self._pivots: list[int] = []                # rows[c][c] of each finished step
        self._swaps: list[tuple[int, int]] = []     # (c, r): step c took position r
        self._levels: dict[int, list[list[int]]] = {}   # row -> it after 0, 1, .. steps

    def _read(self, r: int) -> list[int]:
        entries = list(self._row(r)[:self.width])
        if len(entries) != self.width:
            raise DimensionError(f"row {r} has fewer than {self.width} columns")
        return entries

    @staticmethod
    def _step(row: list[int], top: list[int], c: int, pivot: int, prev: int) -> None:
        """Step c on a row below its pivot row top, in place: each entry x
        past column c becomes (x pivot - row[c] top[t]) / prev, exactly, prev
        the pivot of step c - 1 (1 at c = 0)."""
        lead = row[c]
        row[c + 1:] = [(x * pivot - lead * t) // prev
                       for x, t in zip(row[c + 1:], top[c + 1:])]

    def _at(self, i: int) -> list[int]:
        """The row at position i, reading and reducing the rows up to it."""
        rows, pivots = self._rows, self._pivots
        while len(rows) <= i:
            r = len(rows)
            if self._parent and r >= self._parent[1]:
                parent, k, tail = self._parent
                first = self.inherited                  # the row's first step
                row = parent._level(tail + r - k, first)[:self.width]
            else:
                first, row = 0, self._read(r)
            for c in range(first, len(pivots)):
                self._step(row, rows[c], c, pivots[c], pivots[c - 1] if c else 1)
            rows.append(row)
        return rows[i]

    def _reach(self, k: int) -> int:
        """Finish the steps below k, exchanging rows only among positions
        below k; the number of finished steps."""
        rows, pivots = self._rows, self._pivots
        while (c := len(pivots)) < k:
            r = next((r for r in range(c, k) if self._at(r)[c]), None)
            if r is None:
                break
            if r != c:
                rows[c], rows[r] = rows[r], rows[c]
                self._swaps.append((c, r))
            top, prev = rows[c], pivots[-1] if pivots else 1
            for row in rows[c + 1:]:
                self._step(row, top, c, top[c], prev)
            pivots.append(top[c])
        return len(pivots)

    def minor(self, k: int) -> int:
        """The leading k x k minor, 0 <= k <= width; any other order raises,
        here and in ``null_vector`` and ``null_tail``."""
        if not 0 <= k <= self.width:
            raise DimensionError(f"no leading minor of order {k} in {self.width} columns")
        if k == 0:
            return 1
        if self._reach(k) < k:
            return 0
        below = [r for c, r in self._swaps if c < k]
        if any(r >= k for r in below):
            return 0
        return -self._pivots[k - 1] if len(below) % 2 else self._pivots[k - 1]

    def _pivot_rows(self, k: int) -> list[list[int]]:
        """The pivot rows at positions below k, whose leading minor must not
        vanish, and column k must exist."""
        if k >= self.width:
            raise DimensionError(f"no column {k} in {self.width} columns")
        if self.minor(k) == 0:
            raise DegeneracyError(f"the leading minor of order {k} vanishes")
        return self._rows[:k]

    def null_vector(self, k: int) -> list[int]:
        """Integers v_0 .. v_k, v_k = +-(the leading k x k minor), such that
        sum_i v_i row_r[i] = 0 for every r < k; that minor must not vanish.
        Fraction-free back substitution on the pivot rows at positions below
        k, with column k as the right-hand side; every division is exact.
        """
        rows = self._pivot_rows(k)
        det = self._pivots[k - 1] if k else 1
        scaled = [0] * k
        for i in range(k - 1, -1, -1):
            row = rows[i]
            acc = -row[k] * det
            for j in range(i + 1, k):
                acc -= row[j] * scaled[j]
            scaled[i] = acc // row[i]
        scaled.append(det)
        return scaled

    def null_tail(self, k: int) -> tuple[int, int]:
        """(v_(k-1), v_k) of ``null_vector(k)``, (0, 1) at k = 0, with no
        back substitution: the pivot row at position k - 1 has the pivot
        v_k on its diagonal, so v_(k-1) is minus its entry in column k.
        The same minor must not vanish."""
        rows = self._pivot_rows(k)
        return (-rows[k - 1][k], self._pivots[k - 1]) if k else (0, 1)

    def fork(self, k: int, tail: int, width: int) -> "LeadingMinors":
        """The elimination of this one's rows 0 .. k - 1, tail, tail + 1, ..
        at width columns, started from this one's exchange-free prefix of
        at most k steps (see the class)."""
        if self._parent is not None:
            raise DimensionError("a fork is not forked")
        if width > self.width:
            raise DimensionError(f"a fork of {width} columns outgrows its parent's {self.width}")
        self.minor(k)
        first_exchange = self._swaps[0][0] if self._swaps else k
        j = min(k, len(self._pivots), first_exchange)
        fork = LeadingMinors(self._row, width)     # it reads this one's rows
        fork._parent, fork.inherited = (self, k, tail), j
        fork._rows = self._rows[:j]
        fork._pivots = self._pivots[:j]
        return fork

    def _level(self, r: int, j: int) -> list[int]:
        """Row r, which no step below j pivots on, after the first j steps.
        The row is kept after every step count asked for, so a deeper step
        count steps on from the deepest one kept."""
        levels = self._levels.get(r)
        if levels is None:
            levels = self._levels[r] = [self._read(r)]
        rows, pivots = self._rows, self._pivots
        for c in range(len(levels) - 1, j):
            row = list(levels[c])
            self._step(row, rows[c], c, pivots[c], pivots[c - 1] if c else 1)
            levels.append(row)
        return levels[j]


def det_exact(rows: Sequence[Sequence[Ratlike]]) -> Fraction:
    """Exact determinant of a square grid of rationals.

    Denominators are cleared row by row, then fraction-free Bareiss
    elimination, with a row swap on each zero pivot, runs over plain
    integers (every interior division is exact), which sidesteps both float
    ill-conditioning and rational blow-up.  The 0x0 determinant is 1 by
    convention.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    grid = [[rat(x) for x in row] for row in rows]
    if any(len(row) != n for row in grid):
        raise DimensionError(f"determinant needs a square grid, got {n} rows "
                             f"of lengths {[len(r) for r in grid]}")
    scale = 1
    m: list[list[int]] = []
    for row in grid:
        ints, mult = cleared(row)
        scale *= mult
        m.append(ints)
    sign = 1
    prev = 1
    for c in range(n):
        if m[c][c] == 0:
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    m[c], m[i] = m[i], m[c]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        top = m[c]
        pivot = top[c]
        for i in range(c + 1, n):
            row = m[i]
            lead = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return Fraction(sign * prev, scale)


def solve_exact(a: Sequence[Sequence[Ratlike]], b: Sequence[Ratlike]) -> list[Fraction]:
    """Solve a small square linear system exactly by Gaussian elimination."""
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise DimensionError("solve_exact needs a square system")
    m = [[rat(x) for x in row] + [rat(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise DegeneracyError(f"singular linear system (column {col})")
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / m[col][col]
                for j in range(col, n + 1):
                    m[r][j] -= f * m[col][j]
    out = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = m[i][n]
        for j in range(i + 1, n):
            acc -= m[i][j] * out[j]
        out[i] = acc / m[i][i]
    return out


def moment_pairing(p: Poly, moments: Sequence[Fraction], shift: int = 0) -> Fraction:
    """The moment functional L[x^k] = moments[k] applied to x^shift * p(x).

    This is sum_i p_i * moments[shift + i]; it raises instead of reading past
    the last moment.  Only the oracles pair this way (through
    ``poly_from_series_product``); the table pairs its cleared integers.
    """
    if shift + p.degree >= len(moments):
        raise TruncationError(
            f"pairing needs moment index {shift + p.degree}, have {len(moments)}")
    return sum((c * s for c, s in zip(p.coeffs, moments[shift:])), Fraction(0))


def series_from_moments(moments: Sequence[Ratlike]) -> LaurentTail:
    """Tail with coefficient of z^(-k-1) equal to the k-th moment."""
    return LaurentTail(tuple(rat(s) for s in moments))


def poly_from_series_product(f: LaurentTail, p: Poly) -> tuple[Poly, LaurentTail]:
    """Split the formal product f(z) * p(z) into polynomial part and tail.

    The tail keeps f.truncation_order - deg(p) valid coefficients; asking for
    a product with fewer than zero valid tail coefficients raises.
    """
    if p.is_zero:
        return Poly(), LaurentTail.zeros(f.truncation_order)
    d = p.degree
    if f.truncation_order < d:
        raise TruncationError(
            f"series valid to order {f.truncation_order} cannot absorb a "
            f"degree-{d} polynomial factor")
    poly_part = [Fraction(0)] * d
    for i in range(1, d + 1):
        pi = p.coeff(i)
        if pi == 0:
            continue
        for k in range(i):
            poly_part[i - 1 - k] += pi * f.coeffs[k]
    tail = tuple(moment_pairing(p, f.coeffs, t)
                 for t in range(f.truncation_order - d))
    return Poly(tuple(poly_part)), LaurentTail(tail)


def series_of_ratio(num: Poly, den: Poly, order: int) -> LaurentTail:
    """Laurent expansion at infinity of num/den, to the requested order.

    Plain long division in powers of 1/z; requires deg(num) < deg(den) so the
    ratio is O(1/z).
    """
    if den.is_zero:
        raise DegeneracyError("division by the zero polynomial")
    if num.degree >= den.degree:
        raise DimensionError("series_of_ratio expects deg(num) < deg(den)")
    dd = den.degree
    lead = den.leading
    out: list[Fraction] = []
    for r in range(order):
        acc = num.coeff(dd - 1 - r)
        for k in range(r):
            acc -= den.coeff(dd - r + k) * out[k]
        out.append(acc / lead)
    return LaurentTail(tuple(out))
