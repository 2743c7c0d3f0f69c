"""Determinant table, normality tests, and the table polynomials.

Each polynomial is produced by two independent routes: a bordered-determinant
formula and a direct linear solve of the orthogonality conditions.  The two
must agree exactly at every normal index; they are each other's oracle.

The bordered-determinant route clears each moment sequence of denominators
once per table, D_j s_j, over the prefix its window can reach.  Column m of
the table is a fraction-free elimination with row exchanges
(``kernel.LeadingMinors``) of the rows [s2 shifts 0..m-1, s1 shifts 0..],
one column per power of x up to x^(max_n + m), the degree of the column's
deepest P.  Its leading minor of order n + m is (-1)^(nm) D1^n D2^m S(n, m),
zero pivots included (``minor``), and it is extended only as deep as a call
needs.  Every column forks from one shared elimination of
[s2 shifts 0..max_m-1, s1 shifts 0..], max_n + max_m + 1 columns wide, after
the steps it finishes among its first m rows before its first row exchange,
so the table eliminates the s2 Hankel block once and reduces each s1 row by
each of those steps once (``LeadingMinors.fork``).  The shared elimination
is only that prefix: it answers no read, and every read, n = 0 included,
goes through its column.  P(n, m) is the monic null vector of the leading
n + m rows, read by back substitution once per index.
The subleading coefficient of P(n, m), all that the recurrence field needs
of it, is one entry of the pivot row at position n + m - 1 over that row's
pivot (``subleading``), so the field forms no polynomial.

The pairings L_j[x^t P(n, m)] (orthogonality and the normalisations) pair
the integer null vector v of index (n, m), the one P is built from, with the
cleared moments: dot(v, D_j s_j[t:]) / (v_k D_j), k = n + m.  So they form
no polynomial either, and a pairing that vanishes costs no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable

from .errors import (DegeneracyError, IntegrityError, NotNormalError,
                     TruncationError, WindowError)
from .kernel import (LaurentTail, LeadingMinors, Poly, cleared,
                     poly_from_series_product, settle, solve_exact)
from .measures import MomentSystem


class HPTable:
    """Grid of determinants S(n, m) and monic polynomials P(n, m).

    The memos hold integers only, the minors K(n, m) and the null vectors
    of P(n, m); each cell is written once and never recomputed, and each S
    and P is built from them when read.  The column eliminations behind the
    memos are extended in place, so one table must not be filled from
    several threads at once.
    """

    def __init__(self, moments: MomentSystem, max_n: int, max_m: int):
        self.moments = moments
        self.max_n = max_n
        self.max_m = max_m
        self._k: dict[tuple[int, int], int] = {}
        self._p_ints: dict[tuple[int, int], list[int]] = {}
        # D_j s_j over the moments the window reaches, P pairings included
        self._c1, self._d1 = cleared(moments.s1[:2 * max_n + max_m + 1])
        self._c2, self._d2 = cleared(moments.s2[:max_n + 2 * max_m + 1])
        # the shared elimination's rows: [D2 s2 shifts 0..max_m-1, D1 s1 shifts 0..]
        c1, c2 = self._c1, self._c2
        width = max_n + max_m + 1

        def row(r: int) -> list[int]:
            # zeros past the cleared moments: column t of a reduced row depends
            # only on columns <= t, so no read that passes check_depth sees them
            seq, shift = (c2, r) if r < max_m else (c1, r - max_m)
            entries = seq[shift:shift + width]
            return entries + [0] * (width - len(entries))

        self._shared = LeadingMinors(row, width)
        self._columns: dict[int, LeadingMinors] = {}

    # -- bookkeeping ------------------------------------------------------

    def _check_window(self, n: int, m: int) -> None:
        if n < 0 or m < 0 or n > self.max_n or m > self.max_m:
            raise WindowError(
                f"index ({n}, {m}) outside table window ({self.max_n}, {self.max_m})")

    def _column(self, m: int) -> LeadingMinors:
        """Elimination of the rows [D2 s2 shifts 0..m-1, D1 s1 shifts 0..],
        max_n + m + 1 columns wide: the shared one's first m rows and its s1
        rows, forked from its exchange-free steps among those m rows on the
        column's first read."""
        if m not in self._columns:
            self._columns[m] = self._shared.fork(m, self.max_m, self.max_n + m + 1)
        return self._columns[m]

    # -- determinants and normality ---------------------------------------

    def minor(self, n: int, m: int) -> int:
        """K(n, m) = (-1)^(nm) D1^n D2^m S(n, m), the integer leading minor
        of column m's elimination; the empty case is 1.
        """
        key = (n, m)
        if key not in self._k:
            self._check_window(n, m)
            self.moments.check_depth(n, m, bordered=False)
            self._k[key] = self._column(m).minor(n + m)
        return self._k[key]

    def s_det(self, n: int, m: int) -> Fraction:
        """Mixed Hankel-type determinant of size n + m; the empty case is 1."""
        minor = self.minor(n, m)
        return Fraction(-minor if n * m % 2 else minor, self._d1 ** n * self._d2 ** m)

    def is_normal(self, n: int, m: int) -> bool:
        return self.s_det(n, m) != 0

    # -- the two polynomial routes ----------------------------------------

    def _p_column(self, n: int, m: int) -> LeadingMinors:
        """Column m's elimination, which holds P(n, m), after the window,
        the normality and the bordered-depth checks, in that order."""
        self._check_window(n, m)
        if self.minor(n, m) == 0:
            raise NotNormalError(n, m)
        self.moments.check_depth(n, m, bordered=True)
        return self._column(m)

    def hp_poly_det(self, n: int, m: int) -> Poly:
        """Monic table polynomial via the bordered determinant: the memoized
        null vector over its last entry."""
        return Poly.monic(self._null_vector(n, m))

    def _null_vector(self, n: int, m: int) -> list[int]:
        """The integer null vector v_0 .. v_k, k = n + m, of column m's
        elimination, P(n, m) = v / v_k, memoized per index, after
        the checks of ``_p_column``."""
        key = (n, m)
        if key not in self._p_ints:
            self._p_ints[key] = self._p_column(n, m).null_vector(n + m)
        return self._p_ints[key]

    def subleading(self, n: int, m: int) -> tuple[int, int]:
        """Integers (u, w) with u/w the coefficient of x^(n+m-1) in P(n, m),
        0/1 at the origin; read off the column elimination without forming
        P, and raising what ``hp_poly_det`` raises."""
        return self._p_column(n, m).null_tail(n + m)

    def hp_poly_solve(self, n: int, m: int) -> Poly:
        """Monic table polynomial via the orthogonality linear system.

        Independent of the determinant route; the two must agree exactly.
        """
        self._check_window(n, m)
        if self.s_det(n, m) == 0:
            raise NotNormalError(n, m)
        self.moments.check_depth(n, m, bordered=True)
        size = n + m
        if size == 0:
            return Poly.of(1)
        s1, s2 = self.moments.s1, self.moments.s2
        rows, rhs = [], []
        for seq, count in ((s1, n), (s2, m)):
            for k in range(count):
                rows.append([seq[k + i] for i in range(size)])
                rhs.append(-seq[k + size])
        try:
            sol = solve_exact(rows, rhs)
        except DegeneracyError as exc:  # singular at a normal index: impossible
            raise IntegrityError(
                f"orthogonality system singular at normal index ({n}, {m})") from exc
        return Poly(tuple(sol) + (Fraction(1),))

    # -- remainders and orthogonality --------------------------------------

    def hp_remainder(self, f1: LaurentTail, f2: LaurentTail, n: int, m: int
                     ) -> tuple[Poly, Poly, Poly, LaurentTail, LaurentTail]:
        """(P, Q1, Q2, R1, R2) with f_j * P = Q_j + R_j: split each product
        into numerator and remainder and enforce the order condition."""
        need = n + m + max(n, m) + 2
        for j, f in ((1, f1), (2, f2)):
            if f.truncation_order < need:
                raise TruncationError(
                    f"remainder at ({n}, {m}) needs series order {need}, "
                    f"f{j} has {f.truncation_order}")
        p = self.hp_poly_det(n, m)
        q1, r1 = poly_from_series_product(f1, p)
        q2, r2 = poly_from_series_product(f2, p)
        for j, (r, order) in enumerate(((r1, n), (r2, m)), start=1):
            for t in range(order):
                if r.coeff(t) != 0:
                    raise IntegrityError(
                        f"remainder order condition fails at ({n}, {m}): "
                        f"coefficient z^-{t + 1} of R{j} is {r.coeff(t)}")
        return p, q1, q2, r1, r2

    def _pairings(self, which: int, n: int, m: int, shifts: Iterable[int]
                  ) -> list[Fraction]:
        """L_which[x^t P(n, m)] for each t in shifts, after the checks of
        ``_p_column``.

        P(n, m) is v / v_k for the integer null vector v (``_null_vector``);
        each pairing is one integer dot product of v with the cleared moments
        over v_k D_which, a Fraction only where it does not vanish.  It
        raises instead of reading past the last moment.
        """
        v = self._null_vector(n, m)
        seq, scale = (self._c1, self._d1) if which == 1 else (self._c2, self._d2)
        scale *= v[-1]
        out = []
        for t in shifts:
            last = t + len(v) - 1
            if last >= self.moments.count:
                raise TruncationError(
                    f"pairing needs moment index {last}, have {self.moments.count}")
            if last >= len(seq):
                raise WindowError(f"pairing at shift {t} of P({n}, {m}) reads "
                                  f"past the moments of the table window")
            out.append(settle((sum(map(mul, v, seq[t:last + 1])), scale)))
        return out

    def pairing(self, which: int, n: int, m: int, shift: int) -> Fraction:
        """L_which[x^shift P(n, m)], the moment functional of sequence
        ``which`` (1 or 2) applied to x^shift P(n, m), shift >= 0."""
        if which not in (1, 2):
            raise WindowError(f"which must be 1 or 2, got {which!r}")
        if shift < 0:
            raise WindowError(f"pairing shift {shift} is negative")
        return self._pairings(which, n, m, (shift,))[0]

    def orthogonality_residuals(self, n: int, m: int) -> tuple[list[Fraction], list[Fraction]]:
        """Pairings of P(n, m) with the first monomials; all must vanish."""
        return self._pairings(1, n, m, range(n)), self._pairings(2, n, m, range(m))
