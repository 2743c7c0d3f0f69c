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
the integers every elimination step and back substitution works on.  The
cleared moments and the block are built on the first read that needs them
(``_build``), not with the table.  Column m of the table is a
fraction-free elimination with row exchanges (``kernel.LeadingMinors``) of
the block's rows [s2 shifts 0..m-1, s1 shifts 0..], max_n + m + 1 columns
wide, the degree of the column's deepest P.
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

The table document is written from a third route, the nearest-neighbour
steps of ``step_grids``, with the eliminations as its oracle.  Subtracting
the two nearest-neighbour recurrences gives P(n, m+1) = P(n+1, m) + (c -
d)(n, m) P(n, m).  Column 0, the orthogonal polynomials of s1, comes from
the three-term recurrence, and each column m + 1 from column m by that step,
its gap read off two s2 pairings (``_step_triangle``).  Every P is a
primitive integer vector, one gcd each, and S is the running product of
the normalisations h1(n, 0) down column 0 and h2(n, m) along each row.  For
m_max > n_max the steps run on (s2, s1), so the triangle they fill is
n_max + m_max + 1 tall and min(n_max, m_max) + 1 wide.  Where a divisor
vanishes (a zero S on that triangle) or the moments are too short for it,
``step_grids`` gives None and the document reads the eliminations, which
raise where they raise.  The eliminations stay the route of ``coeffs`` and
``verify``, which read minors and O(1) subleading pairs, not null vectors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import (DegeneracyError, IntegrityError, NotNormalError, TruncationError,
                     WindowError, check_int, check_type, check_window)
from .kernel import (LaurentTail, LeadingMinors, Poly, SharedPrefix, cleared,
                     lowest_terms, poly_from_series_product, settle, solve_exact)
from .measures import MomentSystem, hankel_row


class HPTable:
    """Grid of determinants S(n, m) and monic polynomials P(n, m).

    The memos hold integers only: the minors K(n, m), the null vectors of
    P(n, m) and their subleading pairs, each scaled back from the
    content-reduced block the eliminations work on; each cell is written
    once and never recomputed, and each S and P is built from them when
    read.  An index is a pair of ints in the window; a bool or a float is a
    WindowError, and moments that are not a MomentSystem are a ParseError.
    The column eliminations behind the memos are extended in place, so one
    table must not be filled from several threads at once.
    """

    def __init__(self, moments: MomentSystem, max_n: int, max_m: int):
        check_window(max_n, max_m)
        check_type(moments, "moments", MomentSystem)
        self.moments = moments
        self.max_n = max_n
        self.max_m = max_m
        self._k: dict[tuple[int, int], int] = {}
        self._p_ints: dict[tuple[int, int], list[int]] = {}
        self._sub: dict[tuple[int, int], tuple[int, int]] = {}
        self._columns: dict[int, LeadingMinors] = {}
        self._shared: SharedPrefix | None = None

    def _build(self) -> None:
        """Build the cleared moments, the content-reduced block's shared
        prefix and the contents.  ``_column`` calls it before its first fork,
        and every other read of them follows a column read, so a table whose
        reads all come from ``step_grids`` builds none of them."""
        moments, max_n, max_m = self.moments, self.max_n, self.max_m
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
        # the contents, built once: prod rho1[:n], prod rho2[:m],
        # prod gamma[:k] and lcm(gamma_0 .. gamma_k)
        self._rho1 = list(accumulate(rhos[max_m:], mul, initial=1))
        self._rho2 = list(accumulate(rhos[:max_m], mul, initial=1))
        self._gamma_prod = list(accumulate(gammas, mul, initial=1))
        self._gamma_lcm = list(accumulate(gammas, lcm))
        self._gammas = gammas
        self._shared = SharedPrefix(block.__getitem__, width)

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
            if self._shared is None:
                self._build()
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

    # -- the table document's route -----------------------------------------

    def step_grids(self, n_max: int, m_max: int
                   ) -> tuple[list[list[tuple[int, int]]], list[list[list[int]]]] | None:
        """The grids over the window (n_max, m_max), indexed [n][m], of S(n,
        m) as its pair (num, den) in lowest terms with den > 0 and of P(n, m)
        as a primitive integer vector, by the nearest-neighbour steps of
        ``_step_triangle``, with no elimination.  None where the steps do not
        reach: a window that is not a pair of ints inside this table's, fewer
        than 2 (n_max + m_max) moments, or a vanishing divisor (a zero S on
        the step triangle).  Then the reads of ``s_pair`` and ``null_vector``
        give the grids, and raise where they raise.  The steps run along the
        longer side: for m_max > n_max on (s2, s1), whose S'(m, n) is
        (-1)^(nm) S(n, m) and whose P'(m, n) is P(n, m)."""
        try:
            self._check_index(n_max, m_max)
        except WindowError:
            return None
        if self.moments.count < 2 * (n_max + m_max):
            return None
        s1, s2 = self.moments.s1, self.moments.s2
        if n_max >= m_max:
            grids = _step_triangle(s1, s2, n_max, m_max)
            if grids is None:
                return None
            return tuple([list(row) for row in zip(*grid)] for grid in grids)
        grids = _step_triangle(s2, s1, m_max, n_max)
        if grids is None:
            return None
        s, p = grids
        return [[(-num, den) if n * m % 2 else (num, den)
                 for m, (num, den) in enumerate(row)] for n, row in enumerate(s)], p

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
        check_int(which, "which", 1)
        if which > 2:
            raise WindowError(f"which must be 1 or 2, got {which}")
        check_int(shift, "pairing shift")
        return self._pairings(which, n, m, (shift,))[0]

    def orthogonality_residuals(self, n: int, m: int) -> tuple[list[Fraction], list[Fraction]]:
        """Pairings of P(n, m) with the first monomials; all must vanish."""
        return self._pairings(1, n, m, range(n)), self._pairings(2, n, m, range(m))


def _primitive(v: list[int]) -> list[int]:
    """v over its content, the gcd of its entries; v must not vanish."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _step_triangle(sa: Sequence[Fraction], sb: Sequence[Fraction], big: int, small: int
                   ) -> tuple[list[list[tuple[int, int]]], list[list[list[int]]]] | None:
    """The grids, indexed [m][n], m <= small and n <= big, of S(n, m) as a
    pair in lowest terms and of P(n, m) as a primitive integer vector, for
    the system (sa, sb); None at the first vanishing divisor.  sa must hold
    the 2 (big + small) moments and sb the big + 2 small moments it reads.

    With c1 = D1 sa and c2 = D2 sb cleared over those prefixes, and u_j(v)
    = sum_i v_i c1[j + i] (w_j(v) the same with c2), column 0 holds the
    orthogonal polynomials of sa, V_0 = 1, V_1 = A x - B and, for 0 < n <
    big + small, by the three-term recurrence

        V_(n+1) ~ A C x V_n - (B C - A E) V_n - A^2 V_(n-1),

    where A = u_n(V_n), B = u_(n+1)(V_n), and C and E are the A and B of
    step n - 1; S(n + 1, 0) = S(n, 0) A / (lead(V_n) D1), the factor h1(n,
    0).  Column m + 1, to n = big + small - m - 1, follows from column m by
    the nearest-neighbour step P(n, m + 1) = P(n + 1, m) + (c - d)(n, m)
    P(n, m), whose gap is read off two pairings, alpha_n = w_m(W_n) for the
    vectors W_n of column m:

        V(n, m + 1) ~ alpha_n W_(n+1) - alpha_(n+1) W_n,

    and S(n, m + 1) = S(n, m) alpha_n / (lead(W_n) D2), the factor h2(n, m).
    The divisors are the A of column 0 and the alpha_n, n < big + small -
    m, of column m; each vanishes exactly where the S it leads to does.
    Each new vector is divided by its content, one gcd.
    """
    top = big + small
    c1, d1 = cleared(sa[:2 * top])
    c2, d2 = cleared(sb[:big + 2 * small])
    column = [[1]]
    s_column = [(1, 1)]
    a_prev = b_prev = 0
    for n in range(top):
        v = column[-1]
        a = sum(map(mul, v, c1[n:2 * n + 1]))
        if not a:
            return None
        b = sum(map(mul, v, c1[n + 1:2 * n + 2]))
        if n:
            p, q, r = a * a_prev, b * a_prev - a * b_prev, a * a
            new = [p * x - q * y - r * z
                   for x, y, z in zip([0] + v, v + [0], column[-2] + [0, 0])]
        else:
            new = [-b, a]
        if n < big:
            num, den = s_column[-1]
            s_column.append(lowest_terms(num * a, den * v[-1] * d1))
        column.append(_primitive(new))
        a_prev, b_prev = a, b
    s_grid, p_grid = [s_column], [column[:big + 1]]
    for m in range(small):
        alphas = [sum(map(mul, w, c2[m:m + len(w)])) for w in column]
        if not all(alphas[:-1]):
            return None
        s_grid.append([lowest_terms(num * alpha, den * w[-1] * d2)
                       for (num, den), alpha, w in zip(s_grid[-1], alphas, column)])
        column = [_primitive([alpha * x - after * y for x, y in zip(w1, w0 + [0])])
                  for alpha, after, w0, w1 in zip(alphas, alphas[1:], column, column[1:])]
        p_grid.append(column[:big + 1])
    return s_grid, p_grid
