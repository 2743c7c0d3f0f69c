"""Exact arithmetic substrate.

Scalars are arbitrary-precision rationals (``fractions.Fraction``).  On top
of them sit dense polynomials, truncated Laurent tails at infinity, and small
square matrices of polynomials.  Every value is immutable after construction
and safe to share between tasks, except the eliminations: a ``LeadingMinors``
grows in place, in depth only, as deeper minors are read, and a
``SharedPrefix`` takes steps and keeps rows as its forks ask for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Callable, Iterable, Sequence, Union

from .errors import (DegeneracyError, DimensionError, IntegrityError, ParseError,
                     TruncationError)

Ratlike = Union[Fraction, int, str]

ZERO = Fraction(0)


def rat(x: Ratlike) -> Fraction:
    """Coerce an int, a ``p/q`` string, or a Fraction to an exact rational.
    Anything that is not a rational raises ParseError, whose text shows at
    most the first 40 characters of the value, or only its type where its
    repr holds an int past the interpreter's limit on int-to-text conversion,
    whatever limit the caller has set.  A finite float or a bool is refused
    too, since its value is not the rational its writer meant: "expected an
    exact rational, got 0.5"."""
    if isinstance(x, Fraction):
        return x
    try:
        value = Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        try:
            text = repr(x)
            if len(text) > 40:
                text = f"{text[:40]}... ({len(text)} characters)"
        except ValueError:      # an int in x past the digit limit
            text = f"{type(x).__name__} with an int too long to print"
        raise ParseError(f"bad rational {text}") from exc
    if isinstance(x, (bool, float)):
        raise ParseError(f"expected an exact rational, got {x!r}")
    return value


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


def lowest_terms(num: int, den: int) -> tuple[int, int]:
    """num / den as the pair of its Fraction, in lowest terms with den > 0,
    from one gcd; a zero den raises ZeroDivisionError, as Fraction does."""
    if not den:
        raise ZeroDivisionError(f"ratio {num}/0")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


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

    An elimination forked from a ``SharedPrefix`` starts with that prefix's
    first ``inherited`` steps taken, and ``row(r)`` gives its rows as they
    stand after those steps; a plain one starts with none.
    """

    def __init__(self, row: Callable[[int], Sequence[int]], width: int):
        self._row = row
        self.width = width
        self.inherited = 0                          # steps each row arrives through
        self._rows: list[list[int]] = []            # by position
        self._pivots: list[int] = []                # rows[c][c] of each finished step
        self._swaps: list[tuple[int, int]] = []     # (c, r): step c took position r

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
            row = self._read(len(rows))
            for c in range(self.inherited, len(pivots)):
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


class SharedPrefix:
    """The exchange-free prefix of a fraction-free elimination of the rows
    ``row(0), row(1), ..`` at ``width`` columns, kept for the
    ``LeadingMinors`` eliminations forked from it.

    Step c pivots on row c as it stands after c steps.  It is taken only
    while that pivot, the leading minor of order c + 1, is nonzero: at the
    first zero pivot the prefix stops for good, so it never exchanges rows.
    Each row is read once, as ``LeadingMinors`` reads it, and kept after
    every step count a fork asks for, so the forks share each step on it.

    ``fork(k, tail, width)`` eliminates the rows 0 .. k - 1, tail,
    tail + 1, .. at width columns, no wider than the prefix.  It starts
    from the first j = min(k, steps before the first zero pivot) steps,
    with their pivot rows and pivots, and every row it reads is the
    prefix's row after those j steps, cut to its width, rows j .. k - 1
    included.  It reads as a fresh elimination of its rows would, and
    neither its steps nor its exchanges change the prefix.
    """

    def __init__(self, row: Callable[[int], Sequence[int]], width: int):
        self._row = row
        self.width = width
        self._rows: list[list[int]] = []            # pivot row of each step
        self._pivots: list[int] = []
        self._levels: dict[int, list[list[int]]] = {}   # row -> it after 0, 1, .. steps

    _read = LeadingMinors._read

    def _level(self, r: int, j: int) -> list[int]:
        """Row r after the first j steps, j no more than the steps taken,
        stepped on from the deepest step count kept."""
        levels = self._levels.get(r)
        if levels is None:
            levels = self._levels[r] = [self._read(r)]
        rows, pivots = self._rows, self._pivots
        for c in range(len(levels) - 1, j):
            row = list(levels[c])
            LeadingMinors._step(row, rows[c], c, pivots[c], pivots[c - 1] if c else 1)
            levels.append(row)
        return levels[j]

    def fork(self, k: int, tail: int, width: int) -> LeadingMinors:
        """The elimination of the rows 0 .. k - 1, tail, tail + 1, .. at
        width columns, started from this prefix's first j steps (see the
        class)."""
        if max(k, width) > self.width:
            raise DimensionError(f"a fork of {k} rows and {width} columns outgrows "
                                 f"the prefix's {self.width} columns")
        rows, pivots = self._rows, self._pivots
        while (c := len(pivots)) < k and (top := self._level(c, c))[c]:
            rows.append(top)
            pivots.append(top[c])
        j = min(k, len(pivots))
        fork = LeadingMinors(lambda r: self._level(r if r < k else tail + r - k, j), width)
        fork.inherited, fork._rows, fork._pivots = j, rows[:j], pivots[:j]
        return fork


def _echelon(m: list[list[Fraction]]) -> tuple[int, int]:
    """Gaussian elimination in Fractions, in place, of the rows m, each at
    least len(m) long: column c pivots on the first row at or below row c
    with a nonzero entry in it.  The number of row exchanges, and the first
    column with no such row (len(m) when there is none)."""
    n, swaps = len(m), 0
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return swaps, c
        if p != c:
            m[c], m[p] = m[p], m[c]
            swaps += 1
        top = m[c]
        for row in m[c + 1:]:
            if row[c]:
                f = row[c] / top[c]
                row[c:] = [x - f * t for x, t in zip(row[c:], top[c:])]
    return swaps, n


def det_exact(rows: Sequence[Sequence[Ratlike]]) -> Fraction:
    """Exact determinant of a square grid of rationals, the product of the
    pivots of ``_echelon``, negated once per row exchange; 0 when a column
    has no pivot.  The 0x0 determinant is 1 by convention.  It is the plain
    oracle of the table's and the qd field's integer minors.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[rat(x) for x in row] for row in rows]
    if any(len(row) != n for row in m):
        raise DimensionError(f"determinant needs a square grid, got {n} rows "
                             f"of lengths {[len(r) for r in m]}")
    swaps, rank = _echelon(m)
    if rank < n:
        return Fraction(0)
    det = Fraction(-1 if swaps % 2 else 1)
    for i in range(n):
        det *= m[i][i]
    return det


def solve_exact(a: Sequence[Sequence[Ratlike]], b: Sequence[Ratlike]) -> list[Fraction]:
    """Solve a small square linear system exactly: ``_echelon`` on the
    augmented rows, then back substitution.  A column with no pivot raises,
    naming that column."""
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise DimensionError("solve_exact needs a square system")
    m = [[rat(x) for x in row] + [rat(b[i])] for i, row in enumerate(a)]
    _, rank = _echelon(m)
    if rank < n:
        raise DegeneracyError(f"singular linear system (column {rank})")
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
