"""The lattice boundary-value problem: anti-diagonal sweep and moment route.

The nonlinear system couples the four coefficient grids through the
denominators (c - d).  Given boundary rows along both axes, the sweep fills
one anti-diagonal level at a time: first the multiplicative a/b updates
(which only read completed levels), then the additive c/d updates, which
share one quotient per lattice edge: the bracket (a + b)(n+1, m) -
(a + b)(n, m+1) over gap(n, m) is at once c(n, m+1) - c(n, m) and
d(n+1, m) - d(n, m), the first consistency identity of the field.  A
vanishing (c - d) in any needed denominator certifies that the boundary
data do not come from a perfect system; the partially filled field is kept
for diagnosis.

a and b are ratios of running tau ratios (K(n+1, m) / K(n, m) and
K(n, m+1) / K(n, m), up to constant factors), each a product of boundary
entries and gaps.  The (N, M) rectangle reads only a cone of the triangle
of levels up to N + M, so only the cone is computed exactly, each entry a
reduced integer pair (num, den) and no Fraction.  The other cells are
needed only to show that their gaps do not vanish, and run the same
recurrences modulo a prime: a nonzero residue proves a nonzero gap.  Any
zero, exact or modular, reruns the whole triangle exactly, unless every
level up to it was exact already, so reports do not depend on the prime.

The independent route recovers the same field from moments through the
determinant table; the two must agree grid point by grid point, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (DegeneracyError, IntegrityError, NonPerfectBoundaryError,
                     NotNormalError, TruncationError, WindowError, check_int,
                     check_sequence, check_type, check_window)
from .hptable import HPTable
from .kernel import ZERO, rat
from .lax3 import zero_curvature_holds
from .measures import MomentSystem, jfraction_entries
from .nnrr import (KINDS, RecurrenceField, a_pair, b_pair, c_pair, d_pair,
                   field_from_table, field_pairs)

# the prime of the residue shell (a Mersenne prime); as long as it is prime,
# reports do not depend on it
_P = 2 ** 61 - 1


@dataclass(frozen=True)
class BoundaryData:
    """Axis data: c and a along the n-axis, d and b along the m-axis.

    a_row[i] is the value at (i + 1, 0) and b_col[i] the value at (0, i + 1);
    the entries at the origin-adjacent axes are the zero boundary conditions
    and are never stored.  Each row is a sequence of values that
    ``kernel.rat`` accepts; a non-sequence, or a str, bytes or bytearray,
    raises ParseError.
    """

    c_row: tuple[Fraction, ...]
    a_row: tuple[Fraction, ...]
    d_col: tuple[Fraction, ...]
    b_col: tuple[Fraction, ...]

    def __post_init__(self):
        for name in ("c_row", "a_row", "d_col", "b_col"):
            row = getattr(self, name)
            check_sequence(row, f"boundary row {name}")
            object.__setattr__(self, name, tuple(rat(x) for x in row))
        if any(x == 0 for x in self.a_row) or any(x == 0 for x in self.b_col):
            raise DegeneracyError(
                "boundary subdiagonal data must be nonzero for a solvable problem")

    @property
    def max_level(self) -> int:
        """Deepest anti-diagonal the data can drive."""
        return min(len(self.c_row) - 1, len(self.a_row),
                   len(self.d_col) - 1, len(self.b_col))


@dataclass(frozen=True)
class SweepReport:
    """Sweep outcome: the field, how many divisions were checked, and the
    failure location (with reason) when the data turn out non-perfect.

    A division is checked when its divisor, a gap c - d, is shown nonzero:
    exactly, or in the residue shell by a nonzero residue modulo a prime.
    A complete sweep checks every division of the triangle to level N + M,
    a failed one every division up to and including the zero it found."""

    field: RecurrenceField
    divisions_checked: int
    failure: tuple[tuple[int, int], str] | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def field_or_raise(self) -> RecurrenceField:
        """The completed field, or the boundary failure as an exception."""
        if self.failure is not None:
            (n, m), reason = self.failure
            raise NonPerfectBoundaryError(n, m, reason)
        return self.field


def boundary_from_field(field: RecurrenceField, levels: int) -> BoundaryData:
    """Read boundary rows for the given maximal anti-diagonal off a field."""
    check_int(levels, "boundary levels")
    check_type(field, "field", RecurrenceField)
    nw, mw = field.window
    if levels > nw or levels > mw:
        raise WindowError(
            f"field window {field.window} cannot provide boundary to level {levels}")
    return BoundaryData(
        c_row=tuple(field.c(n, 0) for n in range(levels + 1)),
        a_row=tuple(field.a(n, 0) for n in range(1, levels + 1)),
        d_col=tuple(field.d(0, m) for m in range(levels + 1)),
        b_col=tuple(field.b(0, m) for m in range(1, levels + 1)),
    )


def boundary_from_table(table: HPTable, levels: int) -> BoundaryData:
    """Boundary rows straight off the table axes, without building a field:
    the oracle of ``boundary_from_moments``, which no CLI route runs.

    Reaches one step past the requested level along each axis (the c and d
    values need the neighboring polynomial), nothing more.
    """
    check_int(levels, "boundary levels")
    return BoundaryData(
        c_row=tuple(Fraction(*c_pair(table, n, 0)) for n in range(levels + 1)),
        a_row=tuple(Fraction(*a_pair(table, n, 0)) for n in range(1, levels + 1)),
        d_col=tuple(Fraction(*d_pair(table, 0, m)) for m in range(levels + 1)),
        b_col=tuple(Fraction(*b_pair(table, 0, m)) for m in range(1, levels + 1)),
    )


def boundary_from_moments(system: MomentSystem, levels: int) -> BoundaryData:
    """Boundary rows for the given maximal anti-diagonal from each sequence
    alone: c and a off s1, then d and b off s2, the J-fraction data of that
    sequence (``measures.jfraction_entries``) off its first 2 levels + 2
    moments.  Along an axis the field is the J-fraction of its sequence:
    a(n, 0) = K(n+1, 0) K(n-1, 0) / K(n, 0)^2 is a_n, so a zero a_(n-1) is
    a vanishing K(n, 0).  The indices n = 1 .. levels + 1 of each axis are
    checked in the order ``boundary_from_table`` reads them: moment depth,
    normality, bordered depth; so the two raise alike."""
    check_int(levels, "boundary levels")
    check_type(system, "system", MomentSystem)
    rows = []
    for seq, axis in ((system.s1, lambda n: (n, 0)), (system.s2, lambda n: (0, n))):
        entries = jfraction_entries(seq[:2 * levels + 2])
        for n in range(1, levels + 2):
            system.check_depth(*axis(n), bordered=False)
            if entries[2 * n - 2] == 0:
                raise NotNormalError(*axis(n))
            system.check_depth(*axis(n), bordered=True)
        rows += [entries[1::2], entries[2::2]]
    return BoundaryData(*rows)


def sweep_solve(boundary: BoundaryData, N: int, M: int) -> SweepReport:
    """Fill the four grids over the triangle of levels up to N + M and report
    the (N, M) rectangle.

    Only the cone of cells the rectangle reads (``cone_range``) is computed
    exactly.  The shell, every other cell of the triangle, runs the same
    recurrences modulo the prime _P, on projective residue pairs
    (``_residue``): while no divisor vanishes modulo _P, each residue is the
    image of the exact value under the ring homomorphism Z_(P) -> F_P, so a
    nonzero gap residue proves the exact gap nonzero.

    One rule reruns: where the cone run cannot report as the exact sweep
    would, it raises ``_Inexact``, and the call runs the full exact sweep,
    the same loop with every cell in range, whose report keeps every entry
    filled up to the first zero gap.  That is a denominator that vanishes
    modulo _P (among them a shell divisor rho or sigma that holds an a_row
    or b_col entry whose numerator is a multiple of _P), or a zero gap,
    exact or modular, divided by on a level whose range is not full.  A zero
    gap on a level whose range is full ends the cone run itself: full ranges
    are a prefix of the levels, so up to that level the run was the exact
    sweep, entry for entry.  A boundary that is not a ``BoundaryData``
    raises ParseError.

    divisions_checked counts equation divisions, as if each of a, b, c and
    d divided on its own: two per interior cell in phase 1, and each
    quotient once for c and once for d, 2 (N + M)^2 in a complete sweep.  A
    division is checked when the gap it divides by is shown nonzero: by its
    exact value in the cone, by its residue in the shell.
    """
    check_type(boundary, "boundary", BoundaryData)
    check_window(N, M)
    lam = N + M
    if boundary.max_level < lam:
        raise TruncationError(
            f"window ({N}, {M}) sweeps to level {lam}, boundary only "
            f"supports level {boundary.max_level}")
    try:
        return _sweep(boundary, N, M, [cone_range(N, M, level) for level in range(lam + 1)])
    except _Inexact:
        return _sweep(boundary, N, M, [(0, level) for level in range(lam + 1)])


def cone_range(N: int, M: int, level: int) -> tuple[int, int]:
    """The n-range lo..hi of the cells (n, level - n) whose c, d and gap the
    (N, M) rectangle reads: the rectangle itself, the cells with m > M and
    2 (m - M) <= N - n, and those with n > N and 2 (n - N) <= M - m.  Its
    a, b and s reads reach one cell further on each side.  This is the
    closure of the sweep's reads from the rectangle, level by level."""
    return max(0, 2 * (level - M) - N), min(level, 2 * N + M - level)


def _sweep(boundary: BoundaryData, N: int, M: int,
           ranges: list[tuple[int, int]]) -> SweepReport:
    """The level sweep: on level L, c, d and the gap are exact on n in
    ranges[L] = lo..hi, a, b and s on lo - 1..hi + 1, the quotient of the
    edge from (n, L - 1 - n) on lo - 1..hi, and every other entry is a
    residue modulo _P.  With ranges[L] = (0, L) it is the exact sweep.
    Every cell runs the same recurrences; its place picks only their
    arithmetic: an exact entry is a reduced pair (num, den), den > 0, formed
    by ``_pair_sum``, ``_pair_product`` and ``_pair_quotient`` (no Fraction),
    and a residue a projective pair formed by their twins modulo _P.

    Level L is filled in two phases, each walking n = 0..L.  Phase 1 sets a,
    b and the sum s(n, m) = a + b; the axis entries are boundary data.  a
    and b are ratios of running tau ratios, rho(n, m) ~ K(n+1, m) / K(n, m)
    and sigma(n, m) ~ K(n, m+1) / K(n, m):

        rho(n, m) = gap(n, m-1) rho(n, m-1),     a(n, m) = rho(n, m) / rho(n-1, m),
        sigma(n, m) = gap(n-1, m) sigma(n-1, m), b(n, m) = sigma(n, m) / sigma(n, m-1),

    with rho(0, 0) = sigma(0, 0) = 1, rho(n, 0) = a(n, 0) rho(n-1, 0) and
    sigma(0, m) = b(0, m) sigma(0, m-1): the identities a(n, m) gap(n, m) =
    a(n, m+1) gap(n-1, m) and b(n, m) gap(n, m) = b(n+1, m) gap(n, m-1) of
    ``consistency_residuals`` (r3, r4).  Each divisor is a product of
    boundary a_row and b_col entries, nonzero by ``BoundaryData``, and of
    gaps on levels up to L - 2, each tested nonzero before phase 1 of level
    L.  Phase 2 crosses each edge from (n, m-1) on level L - 1 once: its
    quotient q = (s(n+1, m-1) - s(n, m)) / gap(n, m-1) is both c(n, m) -
    c(n, m-1) and d(n+1, m-1) - d(n, m-1), so it is exact when either of
    those is.  Each cell's gap c - d is subtracted once, and read on the
    level above it; nothing reads the gaps on level N + M, so they are not
    formed.  A residue entry reduces the exact entries it reads; an exact
    entry reads only exact entries (``cone_range``).  A gap is tested for
    zero where c first divides by it; phase 1 and d divide only by gaps
    that passed that test.  A zero gap stops the sweep, and the report
    keeps the entries filled so far; but where the report would not be the
    exact sweep's, a zero gap on a level whose range is not full or a
    denominator residue that vanishes, it raises ``_Inexact`` instead.  A
    residue rho or sigma holds the boundary a_row and b_col entries, so an
    entry whose numerator is a multiple of _P makes a shell divisor vanish
    and reruns too, as a gap that is a multiple of _P does.
    """
    lam = N + M
    c_row, a_row, d_col, b_col = ([x.as_integer_ratio() for x in row] for row in (
        boundary.c_row, boundary.a_row, boundary.d_col, boundary.b_col))
    a: dict[tuple[int, int], tuple[int, int]] = {}
    b: dict[tuple[int, int], tuple[int, int]] = {}
    c: dict[tuple[int, int], tuple[int, int]] = {}
    d: dict[tuple[int, int], tuple[int, int]] = {}
    divisions = 0
    failure: tuple[tuple[int, int], str] | None = None
    # the level below, indexed by n: each entry a reduced pair or a residue
    gap_below = c_below = d_below = rho_below = sigma_below = []
    for level in range(lam + 1):
        lo, hi = ranges[level]
        s_here, rho_here, sigma_here = [], [], []
        for n in range(level + 1):                    # phase 1: a, b and s
            m = level - n
            product, quotient, add = _EXACT if lo - 1 <= n <= hi + 1 else _MODULAR
            if n == 0:
                a_nm, b_nm = _ZERO, b_col[m - 1] if m else _ZERO
                rho = product(gap_below[0], rho_below[0]) if m else _ONE
                sigma = product(b_nm, sigma_below[0]) if m else _ONE
            elif m == 0:
                a_nm, b_nm = a_row[n - 1], _ZERO
                rho = product(a_nm, rho_below[n - 1])
                sigma = product(gap_below[n - 1], sigma_below[n - 1])
            else:
                divisions += 2
                rho = product(gap_below[n], rho_below[n])
                sigma = product(gap_below[n - 1], sigma_below[n - 1])
                a_nm = quotient(rho, rho_below[n - 1])
                b_nm = quotient(sigma, sigma_below[n])
            a[(n, m)] = a_nm
            b[(n, m)] = b_nm
            s_here.append(add(a_nm, b_nm))
            rho_here.append(rho)
            sigma_here.append(sigma)
        c_here, d_here, gap_here = [], [], []
        q = None        # the quotient of the last edge crossed
        for n in range(level + 1):                    # phase 2: c and d
            m = level - n
            add = _pair_sum if lo <= n <= hi else _residue_sum
            if m == 0:
                c_nm = c_row[n]
            else:
                divisions += 1
                gap = gap_below[n]
                if gap[0] == 0:
                    if (lo, hi) != (0, level):
                        raise _Inexact
                    failure = ((n, m - 1), f"(c - d) vanishes at {(n, m - 1)}")
                    break
                # exact when c here or d at n + 1 is
                _, quotient, difference = _EXACT if lo - 1 <= n <= hi else _MODULAR
                q = quotient(difference(s_here[n + 1], s_here[n], -1), gap)
                c_nm = add(c_below[n], q)
            c[(n, m)] = c_nm
            if n == 0:
                d_nm = d_col[m]
            else:                       # the edge from (n-1, m), crossed at n - 1
                divisions += 1
                d_nm = add(d_below[n - 1], q_prev)
            d[(n, m)] = d_nm
            c_here.append(c_nm)
            d_here.append(d_nm)
            if level < lam:
                gap_here.append(add(c_nm, d_nm, -1))
            q_prev = q
        if failure is not None:
            break
        gap_below, c_below, d_below = gap_here, c_here, d_here
        rho_below, sigma_below = rho_here, sigma_here

    grids = {"a": a, "b": b, "c": c, "d": d}
    if failure is None:     # the rectangle; a failed sweep keeps every entry
        grids = {kind: {(n, m): grid[(n, m)] for n in range(N + 1) for m in range(M + 1)}
                 for kind, grid in grids.items()}
    return SweepReport(RecurrenceField.from_pairs(grids, (N, M)), divisions, failure)


_ZERO, _ONE = (0, 1), (1, 1)


def _pair_sum(x: tuple[int, int], y: tuple[int, int], sign: int = 1) -> tuple[int, int]:
    """x + sign y of two reduced pairs, reduced, as Fraction's sum: over the
    gcd g of the denominators, the only common factor of the sum's
    numerator and its denominator divides g."""
    (xn, xd), (yn, yd) = x, y
    g = gcd(xd, yd)
    if g == 1:
        return xn * yd + sign * yn * xd, xd * yd
    s = xd // g
    t = xn * (yd // g) + sign * yn * s
    g2 = gcd(t, g)
    return t // g2, s * (yd // g2)


def _pair_product(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x y of two reduced pairs, reduced: each numerator cancels against the
    other factor's denominator, so no gcd is wider than one operand."""
    (xn, xd), (yn, yd) = x, y
    g1, g2 = gcd(xn, yd), gcd(yn, xd)
    return (xn // g1) * (yn // g2), (xd // g2) * (yd // g1)


def _pair_quotient(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x / y of two reduced pairs, y nonzero, reduced by two gcds, as
    ``_pair_product`` of x and 1 / y."""
    (xn, xd), (yn, yd) = x, y
    g1, g2 = gcd(xn, yn), gcd(xd, yd)
    num, den = (xn // g1) * (yd // g2), (xd // g2) * (yn // g1)
    return (num, den) if den > 0 else (-num, -den)


class _Inexact(ArithmeticError):
    """A sweep with residue cells met a zero it cannot report as the exact
    sweep would: a denominator zero modulo _P, or a zero gap divided by on
    a level whose range is not full."""


def _residue(num: int, den: int) -> tuple[int, int]:
    """num / den modulo _P as a projective pair (num, den), den nonzero: the
    image of num / den in F_P when it lies in Z_(P).  A zero den raises
    ``_Inexact``; no modular inverse is formed."""
    den %= _P
    if not den:
        raise _Inexact
    return num % _P, den


# the twins of _pair_sum, _pair_product and _pair_quotient modulo _P, on
# residues and reduced pairs alike
def _residue_sum(x: tuple[int, int], y: tuple[int, int], sign: int = 1) -> tuple[int, int]:
    (xn, xd), (yn, yd) = x, y
    return _residue(xn * yd + sign * yn * xd, xd * yd)


def _residue_product(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return _residue(x[0] * y[0], x[1] * y[1])


def _residue_quotient(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return _residue(x[0] * y[1], x[1] * y[0])


# the arithmetic of an exact cell and of a residue cell: product, quotient, sum
_EXACT = _pair_product, _pair_quotient, _pair_sum
_MODULAR = _residue_product, _residue_quotient, _residue_sum


def field_from_moments(system: MomentSystem, N: int, M: int) -> RecurrenceField:
    """Reference oracle for the sweep: the same grids via the determinant table."""
    check_window(N, M)
    table = HPTable(system, N + 1, M + 1)
    return field_from_table(table, N, M)


def cd_by_summation(boundary: BoundaryData, field: RecurrenceField,
                    n: int, m: int) -> tuple[Fraction, Fraction]:
    """c(n, m+1) and d(n+1, m) by telescoping the additive equations from the
    axes; must equal the stepwise sweep values."""
    c_val = boundary.c_row[n] if n < len(boundary.c_row) else None
    if c_val is None:
        raise WindowError(f"boundary c_row too short for n = {n}")
    for i in range(m + 1):
        bracket = (field.a(n + 1, i) + field.b(n + 1, i)
                   - field.a(n, i + 1) - field.b(n, i + 1))
        g = field.gap(n, i)
        if g == 0:
            raise DegeneracyError(f"(c - d) vanishes at ({n}, {i})")
        c_val += bracket / g
    d_val = boundary.d_col[m] if m < len(boundary.d_col) else None
    if d_val is None:
        raise WindowError(f"boundary d_col too short for m = {m}")
    for i in range(n + 1):
        bracket = (field.a(i + 1, m) + field.b(i + 1, m)
                   - field.a(i, m + 1) - field.b(i, m + 1))
        g = field.gap(i, m)
        if g == 0:
            raise DegeneracyError(f"(c - d) vanishes at ({i}, {m})")
        d_val += bracket / g
    return c_val, d_val


@dataclass(frozen=True)
class CrossValidation:
    """What ``cross_validate`` measured for one moment system and window.

    It returns one only when the sweep's grids equal the table's, and the
    sweep's field meets the four consistency identities by construction, so
    the report holds only the orthogonality residuals, whether the
    zero-curvature identity held at every stencil, and the sweep's count.
    """

    window: tuple[int, int]
    zcc_all_zero: bool
    orthogonality_max: Fraction
    divisions_checked: int


def cross_validate(system: MomentSystem, N: int, M: int) -> CrossValidation:
    """Moment route vs sweep route, plus the residual batteries.

    Reads the reference field from an (N + 1, M + 1) table, the one table
    of a passing call, as the integer pairs of ``field_pairs``, and reads
    the boundary to level N + M from the two sequences alone
    (``boundary_from_moments``): the J-fraction of each off its first
    2 (N + M) + 2 moments, so the sweep's input does not pass through the
    table's eliminations.  Sweeps, and asserts exact equality of all four
    grids, each sweep entry's reduced pair (x, y) against its reference pair
    (p, q) by x q == y p, so no entry of either is reduced or made a
    Fraction; then checks orthogonality over the window and zero curvature
    at each of its N x M stencils (n < N, m < M) as one integer identity on
    the table's memoised minors and the sweep's gap,
    K(n+1, m+1) K(n, m) = gap(n, m) K(n, m+1) K(n+1, m)
    (``lax3.zero_curvature_holds``).  On a field that meets the consistency
    identities, with the gauge read off the same minors, the 3x3 residual
    of the transition pairs (``lax3.zcc_residual``, in the tests) vanishes
    at every stencil exactly when this identity holds at every stencil, so
    no normalisation and no gauge entry is formed.  Any mismatch
    raises with the first differing index, kind by kind in ``KINDS`` order
    and then row by row, its text naming the two values in lowest terms; a
    sweep stopped by a zero gap (n, m) where S(n+1, m+1) vanishes (by the
    converse theorem, the first zero minor in level order) is not normal,
    which a table of window (n + 1, m + 1), built only then, tells.

    The consistency identities (``nnrr.consistency_residuals``) are not run:
    the sweep builds its field from them, so a reference field equal to it
    entry for entry meets them too.
    """
    check_window(N, M)
    table = HPTable(system, N + 1, M + 1)
    reference = field_pairs(table, N, M)
    report = sweep_solve(boundary_from_moments(system, N + M), N, M)
    if not report.ok:
        (n, m), reason = report.failure
        if HPTable(system, n + 1, m + 1).minor(n + 1, m + 1) == 0:
            raise NotNormalError(n + 1, m + 1)
        raise IntegrityError(f"sweep failed on data from a normal window: {reason}")
    field = report.field
    for kind in KINDS:
        grid = reference[kind]
        for n in range(N + 1):
            for m in range(M + 1):
                x, y = field.pair(kind, n, m)
                num, den = grid[(n, m)]
                if x * den != y * num:
                    raise IntegrityError(
                        f"sweep and moment routes disagree at {kind}[{n}, {m}]: "
                        f"{Fraction(x, y)} != {Fraction(num, den)}")

    orth_max = ZERO
    for n in range(N + 1):
        for m in range(M + 1):
            r1, r2 = table.orthogonality_residuals(n, m)
            for r in r1 + r2:
                if r:
                    orth_max = max(orth_max, abs(r))

    zcc_zero = all(zero_curvature_holds(table, field, n, m)
                   for n in range(N) for m in range(M))
    return CrossValidation((N, M), zcc_zero, orth_max, report.divisions_checked)
