"""Nearest-neighbor recurrence field and its branched continued fractions.

The four coefficient grids come from determinant ratios (a, b) and from
subleading polynomial coefficients (c, d), each entry one integer pair
(num, den) built from the integers of the table's column eliminations
(``a_pair`` .. ``d_pair``, gathered by ``field_pairs``); a reader that needs
one entry's value, such as ``m_minus_series`` or
``bvp.boundary_from_table``, takes the Fraction of its pair.  A
``RecurrenceField`` keeps each entry as its pair in
lowest terms, den > 0, and forms a Fraction only where a value is read, so
the readers that write or compare a field (``jsondoc.field_to_doc``,
``bvp.cross_validate``, ``lax3.zero_curvature_holds``) run no gcd on it.
Everything here is checkable against an independent route: determinant
identities, direct recurrence residuals, consistency identities, and series
round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DegeneracyError, NotNormalError, WindowError, check_int, check_type,
                     check_window)
from .kernel import LaurentTail, Poly, X, lowest_terms, rat
from .hptable import HPTable

KINDS = ("a", "b", "c", "d")


class RecurrenceField:
    """Grids a, b, c, d over a rectangle of lattice indices, each entry kept
    as its reduced pair (num, den): num / den in lowest terms, den > 0.

    ``pair`` reads an entry as that pair, ``value`` as its Fraction.  Entries
    may be absent (e.g. in a partially swept field); reads of absent entries
    raise WindowError rather than guessing.
    """

    def __init__(self, grids: dict[str, dict[tuple[int, int], Fraction]],
                 window: tuple[int, int]):
        """A field of the values in grids, each coerced by ``kernel.rat``,
        over a window that ``check_window`` accepts."""
        check_window(*window)
        if set(grids) != set(KINDS):
            raise WindowError(f"field needs grids {KINDS}, got {sorted(grids)}")
        self._pairs = {kind: {key: rat(x).as_integer_ratio() for key, x in grid.items()}
                       for kind, grid in grids.items()}
        self.window = window

    @classmethod
    def from_pairs(cls, grids: dict[str, dict[tuple[int, int], tuple[int, int]]],
                   window: tuple[int, int]) -> "RecurrenceField":
        """A field of the pairs in grids, each already in lowest terms with a
        positive denominator, kept as given: no gcd is taken."""
        field = cls({kind: {} for kind in grids}, window)
        field._pairs = {kind: dict(grid) for kind, grid in grids.items()}
        return field

    def pair(self, kind: str, n: int, m: int) -> tuple[int, int]:
        """The entry as its reduced pair (num, den), den > 0."""
        try:
            return self._pairs[kind][(n, m)]
        except KeyError:
            raise WindowError(f"field entry {kind}[{n}, {m}] is absent") from None

    def value(self, kind: str, n: int, m: int) -> Fraction:
        return Fraction(*self.pair(kind, n, m))

    def a(self, n: int, m: int) -> Fraction:
        return self.value("a", n, m)

    def b(self, n: int, m: int) -> Fraction:
        return self.value("b", n, m)

    def c(self, n: int, m: int) -> Fraction:
        return self.value("c", n, m)

    def d(self, n: int, m: int) -> Fraction:
        return self.value("d", n, m)

    def gap(self, n: int, m: int) -> Fraction:
        """(c - d) at an index; the recurring denominator of the lattice system."""
        return self.c(n, m) - self.d(n, m)

    def replace(self, kind: str, n: int, m: int, value) -> "RecurrenceField":
        """Copy of the field with one entry overwritten (for perturbation tests)."""
        field = RecurrenceField.from_pairs(self._pairs, self.window)
        field._pairs[kind][(n, m)] = rat(value).as_integer_ratio()
        return field

    def same_grids(self, other: "RecurrenceField") -> tuple[bool, tuple | None]:
        """Exact comparison on the intersection window; returns first diff."""
        nw = min(self.window[0], other.window[0])
        mw = min(self.window[1], other.window[1])
        for kind in KINDS:
            for n in range(nw + 1):
                for m in range(mw + 1):
                    if self.pair(kind, n, m) != other.pair(kind, n, m):
                        return False, (kind, n, m, self.value(kind, n, m),
                                       other.value(kind, n, m))
        return True, None


@dataclass(frozen=True)
class CFExtraction:
    """Coefficients read off a pair of branched-continued-fraction tails."""

    c: Fraction
    d: Fraction
    f: Fraction          # a + b
    g: Fraction          # a*c_prev1 + b*d_prev2
    a: Fraction
    b: Fraction


# -- field extraction ------------------------------------------------------


def a_pair(table: HPTable, n: int, m: int) -> tuple[int, int]:
    """a(n, m) = S(n+1, m) S(n-1, m) / S(n, m)^2 as integers (num, den), not
    reduced; 0/1 on the axis n = 0.

    Read off the table's integer minors K, whose signs and moment scales
    cancel in the ratio.
    """
    if n == 0:
        return 0, 1
    k = table.minor(n, m)
    if k == 0:
        raise NotNormalError(n, m)
    return table.minor(n + 1, m) * table.minor(n - 1, m), k * k


def b_pair(table: HPTable, n: int, m: int) -> tuple[int, int]:
    """b(n, m) = S(n, m+1) S(n, m-1) / S(n, m)^2 as integers (num, den), not
    reduced; 0/1 on the axis m = 0."""
    if m == 0:
        return 0, 1
    k = table.minor(n, m)
    if k == 0:
        raise NotNormalError(n, m)
    return table.minor(n, m + 1) * table.minor(n, m - 1), k * k


def _sub_difference(here: tuple[int, int], there: tuple[int, int]) -> tuple[int, int]:
    """u/w - u'/w' of two subleading pairs, as integers (num, den)."""
    (u, w), (u1, w1) = here, there
    return u * w1 - u1 * w, w * w1


def c_pair(table: HPTable, n: int, m: int) -> tuple[int, int]:
    """c(n, m) as integers (num, den) from the subleading coefficients of
    P(n, m) and P(n+1, m)."""
    return _sub_difference(table.subleading(n, m), table.subleading(n + 1, m))


def d_pair(table: HPTable, n: int, m: int) -> tuple[int, int]:
    """d(n, m) as integers (num, den) from the subleading coefficients of
    P(n, m) and P(n, m+1)."""
    return _sub_difference(table.subleading(n, m), table.subleading(n, m + 1))


def field_pairs(table: HPTable, N: int, M: int
                ) -> dict[str, dict[tuple[int, int], tuple[int, int]]]:
    """All four grids on the (N+1) x (M+1) window as integer pairs (num,
    den), not reduced; needs one normal ring more.  Read index by index,
    a, b, c, d at each, so every reader of the field meets its first error
    at the same entry."""
    check_window(N, M)
    grids: dict[str, dict[tuple[int, int], tuple[int, int]]] = {k: {} for k in KINDS}
    for n in range(N + 1):
        for m in range(M + 1):
            grids["a"][(n, m)] = a_pair(table, n, m)
            grids["b"][(n, m)] = b_pair(table, n, m)
            grids["c"][(n, m)] = c_pair(table, n, m)
            grids["d"][(n, m)] = d_pair(table, n, m)
    return grids


def field_from_table(table: HPTable, N: int, M: int) -> RecurrenceField:
    """All four grids on the (N+1) x (M+1) window, each entry its pair in
    ``field_pairs`` in lowest terms."""
    check_type(table, "table", HPTable)
    grids = {kind: {key: lowest_terms(*pair) for key, pair in grid.items()}
             for kind, grid in field_pairs(table, N, M).items()}
    return RecurrenceField.from_pairs(grids, (N, M))


def check_dminusc(table: HPTable, n: int, m: int) -> Fraction:
    """d - c at an index from the determinant identity (independent route)."""
    s_right, s_up = table.s_det(n + 1, m), table.s_det(n, m + 1)
    if s_right == 0 or s_up == 0:
        raise NotNormalError(n + 1 if s_right == 0 else n,
                             m if s_right == 0 else m + 1)
    return table.s_det(n, m) * table.s_det(n + 1, m + 1) / (s_right * s_up)


# -- residual checks -------------------------------------------------------


def recurrence_residuals(field: RecurrenceField, table: HPTable,
                         n: int, m: int) -> tuple[Poly, Poly]:
    """Residuals of the two lattice recurrences at (n, m); zero on valid data.

    Absent neighbors below the axes count as the zero polynomial, matching
    a(0, m) = b(n, 0) = 0.
    """
    p = table.hp_poly_det(n, m)
    p_left = table.hp_poly_det(n - 1, m) if n >= 1 else Poly()
    p_down = table.hp_poly_det(n, m - 1) if m >= 1 else Poly()
    common = field.a(n, m) * p_left + field.b(n, m) * p_down
    res1 = table.hp_poly_det(n + 1, m) - ((X - Poly.of(field.c(n, m))) * p - common)
    res2 = table.hp_poly_det(n, m + 1) - ((X - Poly.of(field.d(n, m))) * p - common)
    return res1, res2


def consistency_residuals(field: RecurrenceField, n: int,
                          m: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four lattice-compatibility identities at a stencil, denominators
    cleared, in plain Fractions; all zero exactly on a field from a perfect
    system.  The sweep builds its field from them, so they are the oracle
    of ``bvp.sweep_solve`` and no CLI route runs them.

    On the axes the ratio identities degenerate (both sides carry a zero
    coefficient), and the cleared forms vanish identically: a gap below an
    axis counts as 0 and is not read.
    """
    r1 = (field.d(n + 1, m) - field.d(n, m)) - (field.c(n, m + 1) - field.c(n, m))
    r2 = (field.b(n + 1, m) - field.b(n, m + 1)
          + field.a(n + 1, m) - field.a(n, m + 1)) \
        - (field.d(n + 1, m) * field.c(n, m) - field.d(n, m) * field.c(n, m + 1))
    gap_here = field.gap(n, m)
    gap_left = field.gap(n - 1, m) if n >= 1 else Fraction(0)
    r3 = field.a(n, m + 1) * gap_left - field.a(n, m) * gap_here
    gap_down = field.gap(n, m - 1) if m >= 1 else Fraction(0)
    r4 = field.b(n + 1, m) * gap_down - field.b(n, m) * gap_here
    return r1, r2, r3, r4


# -- branched continued fractions ------------------------------------------


def m_minus_series(table: HPTable, j: int, n: int, m: int, order: int) -> LaurentTail:
    """Laurent tail of -P(n, m)/P(n+1, m) for j = 1, or -P(n, m)/P(n, m+1)
    for j = 2, computed by recursing the branched continued fraction down to
    the origin and expanding each level.

    Matches polynomial long division of the same ratio, coefficient for
    coefficient: that is the test oracle.
    """
    check_int(j, "branch index", 1)
    if j > 2:
        raise WindowError(f"branch index must be 1 or 2, got {j}")
    check_int(order, "series order", 1)
    memo: dict[tuple[int, int, int], tuple[Fraction, ...]] = {}

    def level(jj: int, nn: int, mm: int) -> tuple[Fraction, ...]:
        key = (jj, nn, mm)
        if key in memo:
            return memo[key]
        diag = Fraction(*(c_pair if jj == 1 else d_pair)(table, nn, mm))
        branch = [Fraction(0)] * order
        if nn >= 1:
            av = Fraction(*a_pair(table, nn, mm))
            prev = level(1, nn - 1, mm)
            for i in range(order):
                branch[i] += av * prev[i]
        if mm >= 1:
            bv = Fraction(*b_pair(table, nn, mm))
            prev = level(2, nn, mm - 1)
            for i in range(order):
                branch[i] += bv * prev[i]
        # tail t of -1/(z - diag + branch): t_0 = 1,
        # t_r = diag*t_(r-1) - sum_(k<=r-2) t_k * branch_(r-2-k)
        t = [Fraction(1)]
        for r in range(1, order):
            acc = diag * t[r - 1]
            for k in range(r - 1):
                acc -= t[k] * branch[r - 2 - k]
            t.append(acc)
        out = tuple(-x for x in t)
        memo[key] = out
        return out

    try:
        return LaurentTail(level(j, n, m))
    except NotNormalError as exc:
        raise DegeneracyError(
            f"series ratio degenerate: {exc} while expanding branch {j} "
            f"at ({n}, {m})") from exc


def cf_extract(series1: LaurentTail, series2: LaurentTail,
               c_prev1, d_prev2, gap) -> CFExtraction:
    """Recover one level of recurrence data from the two branch tails.

    Reads c and d from the constant terms of -1/series - z, the sum a + b
    from the next coefficient, and the mixed sum from the one after; then
    splits a from b using the supplied previous-level values, whose
    difference (the gap) must be nonzero for unique solvability.
    """
    gap = Fraction(gap)
    if gap == 0:
        raise DegeneracyError(
            "previous-level gap (c - d) is zero: data are not from a perfect system")
    c_prev1, d_prev2 = Fraction(c_prev1), Fraction(d_prev2)

    def front(series: LaurentTail) -> tuple[Fraction, Fraction, Fraction]:
        # -1/series = z + v0 + v1/z + v2/z^2 + ...; solve by coefficient matching
        u = series.head(4)
        if u[0] == 0:
            raise DegeneracyError("series has vanishing leading coefficient")
        v_lead = -1 / u[0]
        v = []
        for r in range(1, 4):
            acc = u[r] * v_lead
            for k in range(1, r):
                acc += u[k] * v[r - 1 - k]
            v.append(-acc / u[0])
        return v[0], v[1], v[2]

    v0_1, v1_1, v2_1 = front(series1)
    v0_2, _, _ = front(series2)
    c_val, d_val = -v0_1, -v0_2
    f = -v1_1
    g = -v2_1
    a_val = (g - f * d_prev2) / gap
    b_val = f - a_val
    return CFExtraction(c_val, d_val, f, g, a_val, b_val)
