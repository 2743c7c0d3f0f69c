"""Determinant table, normality tests, and the table polynomials.

Each polynomial is produced by two independent routes: a bordered-determinant
formula and a direct linear solve of the orthogonality conditions.  The two
must agree exactly at every normal index; they are each other's oracle.

The bordered-determinant route clears each moment sequence of denominators
once per table, D_j s_j, over the prefix its window can reach, and builds
the block of the rows [D2 s2 shifts 0..max_m-1, D1 s1 shifts 0..max_n-1],
max_n + max_m + 1 columns wide, one column per power of x.  It divides each
column c of the block by its content gamma_c (the gcd of its entries), then
each row r by its content rho_r, 1 for an all-zero line: on moments with
common factors, such as interval moments, this can halve the bit length of
the integers every elimination step and back substitution works on.  Column m of the
table is a fraction-free elimination with row exchanges
(``kernel.LeadingMinors``) of the block's rows [s2 shifts 0..m-1, s1 shifts
0..], max_n + m + 1 columns wide, the degree of the column's deepest P.
The contents are positive, so its zero pivots, exchanges and signs are those
of the unreduced rows, and its leading minor of order n + m times
prod rho1[:n] prod rho2[:m] prod gamma[:n + m] is K(n, m) = (-1)^(nm) D1^n
D2^m S(n, m), zero pivots included (``minor``); the products are built
once per table.  Each elimination is extended only as deep as a call needs.
Every column forks from one exchange-free prefix (``kernel.SharedPrefix``)
of the block, after the steps it takes among the first m rows before its
first zero pivot, so the table eliminates the s2 Hankel block once and
reduces each row by each of those steps once.  The shared prefix answers no
read: every read, n = 0 included, goes through its column, and a read past
the block raises.  P(n, m) is the monic null vector of the leading n + m
rows, read by back substitution once per index; entry c of the reduced
block's null vector times lcm(gamma_0 .. gamma_k) / gamma_c, k = n + m, is
an integer null vector of the unreduced rows.  Both integer reads are
public, the pair of S (``s_pair``) and the null vector of P
(``null_vector``), and ``s_det`` and ``hp_poly_det`` are their Fraction
and Poly, so a caller that only writes or compares the values forms
neither.  The subleading coefficient of P(n, m), all that the recurrence
field needs of it, is one entry of the pivot row at position k - 1 over
that row's pivot, times gamma_k / gamma_(k-1) (``subleading``), so the
field forms no polynomial.

The pairings L_j[x^t P(n, m)] (orthogonality) pair the integer null vector
v of index (n, m), the one P is built from, with the cleared moments, not
the reduced block: dot(v, D_j s_j[t:]) / (v_k D_j), k = n + m.  So they
form no polynomial either, a pairing that vanishes costs no gcd, and the
check does not rest on the contents.

The normalisations h1(n, m) = L1[x^n P(n, m)] and h2(n, m) = L2[x^m P(n, m)]
are pairings too (``lax3.normalization_grid``); the tests check them against
the ratios of neighbouring determinants h1 = (-1)^m S(n+1, m) / S(n, m) and
h2 = S(n, m+1) / S(n, m).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Iterable

from .errors import (DegeneracyError, IntegrityError, NotNormalError,
                     TruncationError, WindowError, check_window)
from .kernel import (LaurentTail, LeadingMinors, Poly, SharedPrefix, cleared,
                     poly_from_series_product, settle, solve_exact)
from .measures import MomentSystem, hankel_row


class HPTable:
    """Grid of determinants S(n, m) and monic polynomials P(n, m).

    The memos hold integers only: the minors K(n, m), the null vectors of
    P(n, m) and their subleading pairs, each scaled back from the
    content-reduced block the eliminations work on; each cell is written
    once and never recomputed, and each S and P is built from them when
    read.  An index is a pair of ints in the window; a bool or a float is a
    WindowError.  The column eliminations behind the memos are extended in
    place, so one table must not be filled from several threads at once.
    """

    def __init__(self, moments: MomentSystem, max_n: int, max_m: int):
        check_window(max_n, max_m)
        self.moments = moments
        self.max_n = max_n
        self.max_m = max_m
        self._k: dict[tuple[int, int], int] = {}
        self._p_ints: dict[tuple[int, int], list[int]] = {}
        self._sub: dict[tuple[int, int], tuple[int, int]] = {}
        # D_j s_j over the moments the window reaches, P pairings included
        self._c1, self._d1 = cleared(moments.s1[:2 * max_n + max_m + 1])
        self._c2, self._d2 = cleared(moments.s2[:max_n + 2 * max_m + 1])
        # the shared prefix's block: [D2 s2 shifts 0..max_m-1, D1 s1 shifts
        # 0..max_n-1], whose padding no read that passes check_depth sees,
        # with each column and then each row divided by its content
        width = max_n + max_m + 1
        block = ([hankel_row(self._c2, r, width) for r in range(max_m)]
                 + [hankel_row(self._c1, r, width) for r in range(max_n)])
        # (the zero row keeps the width of an empty block)
        gammas = [gcd(*col) or 1 for col in zip([0] * width, *block)]
        if any(g > 1 for g in gammas):
            block = [[x // g for x, g in zip(row, gammas)] for row in block]
        rhos = [gcd(*row) or 1 for row in block]
        block = [[x // rho for x in row] if rho > 1 else row
                 for rho, row in zip(rhos, block)]
        self._shared = SharedPrefix(block.__getitem__, width)
        self._columns: dict[int, LeadingMinors] = {}
        # the contents, built once: prod rho1[:n], prod rho2[:m],
        # prod gamma[:k] and lcm(gamma_0 .. gamma_k)
        self._rho1 = list(accumulate(rhos[max_m:], mul, initial=1))
        self._rho2 = list(accumulate(rhos[:max_m], mul, initial=1))
        self._gamma_prod = list(accumulate(gammas, mul, initial=1))
        self._gamma_lcm = list(accumulate(gammas, lcm))
        self._gammas = gammas

    # -- bookkeeping ------------------------------------------------------

    def _check_index(self, n: int, m: int) -> None:
        """Raise WindowError unless n and m are ints (a bool is not one) in
        the window.  A bool or a float equals an int key of the memos, so
        every memoised read checks the types on a hit too."""
        if type(n) is not int or type(m) is not int:
            raise WindowError(f"index ({n!r}, {m!r}) needs two ints")
        if n < 0 or m < 0 or n > self.max_n or m > self.max_m:
            raise WindowError(
                f"index ({n}, {m}) outside table window ({self.max_n}, {self.max_m})")

    def _column(self, m: int) -> LeadingMinors:
        """Elimination of the reduced block's rows [D2 s2 shifts 0..m-1,
        D1 s1 shifts 0..], max_n + m + 1 columns wide: the shared prefix's
        first m rows and its s1 rows, forked from its steps before its first
        zero pivot among those m rows on the column's first read."""
        if m not in self._columns:
            self._columns[m] = self._shared.fork(m, self.max_m, self.max_n + m + 1)
        return self._columns[m]

    # -- determinants and normality ---------------------------------------

    def minor(self, n: int, m: int) -> int:
        """K(n, m) = (-1)^(nm) D1^n D2^m S(n, m): the leading minor of
        order n + m of column m's elimination of the reduced block, times
        the contents of its rows and columns; the empty case is 1.
        """
        key = (n, m)
        if key not in self._k or type(n) is not int or type(m) is not int:
            self._check_index(n, m)
            self.moments.check_depth(n, m, bordered=False)
            self._k[key] = self._column(m).minor(n + m) * (
                self._rho1[n] * self._rho2[m] * self._gamma_prod[n + m])
        return self._k[key]

    def s_pair(self, n: int, m: int) -> tuple[int, int]:
        """Integers (num, den), den > 0, with S(n, m) = num / den: the minor
        (-1)^(nm) K(n, m) over D1^n D2^m, not reduced."""
        minor = self.minor(n, m)
        return -minor if n * m % 2 else minor, self._d1 ** n * self._d2 ** m

    def s_det(self, n: int, m: int) -> Fraction:
        """Mixed Hankel-type determinant of size n + m; the empty case is 1."""
        return Fraction(*self.s_pair(n, m))

    def is_normal(self, n: int, m: int) -> bool:
        return self.s_det(n, m) != 0

    # -- the two polynomial routes ----------------------------------------

    def _p_column(self, n: int, m: int) -> LeadingMinors:
        """Column m's elimination, which holds P(n, m), after the window,
        the normality and the bordered-depth checks, in that order."""
        self._check_index(n, m)
        if self.minor(n, m) == 0:
            raise NotNormalError(n, m)
        self.moments.check_depth(n, m, bordered=True)
        return self._column(m)

    def hp_poly_det(self, n: int, m: int) -> Poly:
        """Monic table polynomial via the bordered determinant: the memoized
        null vector over its last entry."""
        return Poly.monic(self.null_vector(n, m))

    def null_vector(self, n: int, m: int) -> list[int]:
        """An integer null vector v_0 .. v_k, k = n + m, of the unreduced
        rows of index (n, m), P(n, m) = v / v_k with v_k nonzero: column m's
        null vector of the reduced block, entry c times lcm(gamma_0 ..
        gamma_k) / gamma_c.  Memoized per index, after the checks of
        ``_p_column``.  The caller must not change it."""
        key = (n, m)
        if key not in self._p_ints or type(n) is not int or type(m) is not int:
            column, k = self._p_column(n, m), n + m
            v, scale = column.null_vector(k), self._gamma_lcm[k]
            if scale > 1:
                v = [x * (scale // g) for x, g in zip(v, self._gammas)]
            self._p_ints[key] = v
        return self._p_ints[key]

    def subleading(self, n: int, m: int) -> tuple[int, int]:
        """Integers (u, w) with u/w the coefficient of x^(n+m-1) in P(n, m),
        0/1 at the origin; read off the column elimination without forming
        P, (u gamma_k, w gamma_(k-1)) for its pair (u, w) on the reduced
        block, k = n + m; memoized per index, and raising what
        ``hp_poly_det`` raises."""
        key = (n, m)
        if key not in self._sub or type(n) is not int or type(m) is not int:
            column, k = self._p_column(n, m), n + m
            u, w = column.null_tail(k)
            self._sub[key] = (u * self._gammas[k], w * self._gammas[k - 1]) if k else (u, w)
        return self._sub[key]

    def hp_poly_solve(self, n: int, m: int) -> Poly:
        """Monic table polynomial via the orthogonality linear system.

        Independent of the determinant route; the two must agree exactly.
        """
        self._check_index(n, m)
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
        self._check_index(n, m)
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

        P(n, m) is v / v_k for the integer null vector v (``null_vector``);
        each pairing is one integer dot product of v with the cleared moments
        over v_k D_which, a Fraction only where it does not vanish.  It
        raises instead of reading past the last moment.
        """
        v = self.null_vector(n, m)
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
        if type(which) is not int or which not in (1, 2):
            raise WindowError(f"which must be 1 or 2, got {which!r}")
        if type(shift) is not int or shift < 0:
            raise WindowError(f"pairing shift {shift!r} is not a nonnegative int")
        return self._pairings(which, n, m, (shift,))[0]

    def orthogonality_residuals(self, n: int, m: int) -> tuple[list[Fraction], list[Fraction]]:
        """Pairings of P(n, m) with the first monomials; all must vanish."""
        return self._pairings(1, n, m, range(n)), self._pairings(2, n, m, range(m))
