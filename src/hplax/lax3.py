"""3x3 transition matrices, zero-curvature residuals, and wave propagation.

The degree-1 matrices are assembled from the recurrence field plus two grids
of normalizing pairings (h1, h2).  The individual matrix entries are gauge
data: only the products reproducing a and b are pinned, and the gauge used
here is the one under which the wave matrices propagate exactly.  On the
lattice axes the normalization index would step below zero; there the gauge
entries collapse to (alpha2, alpha4) = (-h1(0, m), 0) and
(alpha3, alpha5) = (-h2(n, 0), 0), which keeps a(0, m) = b(n, 0) = 0, keeps
every transition matrix invertible with constant determinant, and keeps the
propagation identities exact on the whole quarter lattice.

Zero curvature is checked as one integer identity per stencil on the
table's minors and the field's gap (``zero_curvature_holds``), with no
gauge entry and no normalisation.  Its oracle is the residual
L(n, m+1) M(n, m) - M(n+1, m) L(n, m) of the ``build_transition`` pairs
(``zcc_residual``): on a field that meets the consistency identities, as a
swept field does, and with h1, h2 the pairings of ``normalization_grid``,
the residual vanishes at every stencil exactly when the identity holds at
every stencil.  The pairs, their residual and the pairings serve the tests
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import IntegrityError, WindowError, check_window
from .kernel import ZERO, LaurentTail, MatPoly, Poly, X, poly_from_series_product
from .hptable import HPTable
from .nnrr import RecurrenceField


class NormalizationGrid:
    """Grids of the leading orthogonality pairings h1, h2 over a window."""

    def __init__(self, h1: dict[tuple[int, int], Fraction],
                 h2: dict[tuple[int, int], Fraction], window: tuple[int, int]):
        self._h1 = dict(h1)
        self._h2 = dict(h2)
        self.window = window

    def h1(self, n: int, m: int) -> Fraction:
        try:
            return self._h1[(n, m)]
        except KeyError:
            raise WindowError(f"h1[{n}, {m}] outside normalization window") from None

    def h2(self, n: int, m: int) -> Fraction:
        try:
            return self._h2[(n, m)]
        except KeyError:
            raise WindowError(f"h2[{n}, {m}] outside normalization window") from None


@dataclass(frozen=True)
class TransitionPair:
    """The two transition matrices at a lattice index with their gauge entries."""

    n: int
    m: int
    L: MatPoly
    M: MatPoly
    alpha1: Fraction
    beta1: Fraction
    alpha2: Fraction
    alpha3: Fraction
    alpha4: Fraction
    alpha5: Fraction


@dataclass(frozen=True)
class WaveMatrix:
    """3x3 matrix whose entries are (polynomial part, Laurent tail) pairs."""

    n: int
    m: int
    entries: tuple[tuple[tuple[Poly, LaurentTail], ...], ...]

    def entry(self, i: int, j: int) -> tuple[Poly, LaurentTail]:
        return self.entries[i][j]


def normalization_grid(table: HPTable, N: int, M: int) -> NormalizationGrid:
    """Both pairing grids over the (N+1) x (M+1) window, after
    ``check_window``; zero pairings at a normal index signal corruption and
    are rejected.  On the table's determinants they are
    h1(n, m) = (-1)^m S(n+1, m) / S(n, m) and h2(n, m) = S(n, m+1) / S(n, m),
    which the tests check."""
    check_window(N, M)
    h1, h2 = {}, {}
    for n in range(N + 1):
        for m in range(M + 1):
            v1 = table.pairing(1, n, m, n)
            v2 = table.pairing(2, n, m, m)
            if v1 == 0 or v2 == 0:
                raise IntegrityError(
                    f"normalizing pairing vanishes at normal index ({n}, {m})")
            h1[(n, m)] = v1
            h2[(n, m)] = v2
    return NormalizationGrid(h1, h2, (N, M))


def assemble_l(alpha1, alpha2, alpha3, alpha4_next, alpha5_next) -> MatPoly:
    """L-shaped degree-1 matrix from its five gauge entries."""
    return MatPoly((
        (X + Poly.of(alpha1), Poly.of(alpha2), Poly.of(alpha3)),
        (Poly.of(alpha4_next), Poly(), Poly()),
        (Poly.of(alpha5_next), Poly(), Poly.of(1)),
    ))


def assemble_m(beta1, alpha2, alpha3, alpha4_up, alpha5_up) -> MatPoly:
    """M-shaped degree-1 matrix from its five gauge entries."""
    return MatPoly((
        (X + Poly.of(beta1), Poly.of(alpha2), Poly.of(alpha3)),
        (Poly.of(alpha4_up), Poly.of(1), Poly()),
        (Poly.of(alpha5_up), Poly(), Poly()),
    ))


def build_transition(field: RecurrenceField, norms: NormalizationGrid,
                     n: int, m: int) -> TransitionPair:
    """Transition pair at (n, m); the row-2/row-3 entries of L and M live at
    the shifted indices (n+1, m) and (n, m+1).

    The gauge entries are alpha2 = a(n, m) h1(n-1, m), alpha3 =
    b(n, m) h2(n, m-1), alpha4 = -1 / h1(n-1, m) and alpha5 = -1 / h2(n, m-1),
    with the axis convention of the module text: alpha2 = -h1(0, m) and
    alpha4 = 0 at n = 0, alpha3 = -h2(n, 0) and alpha5 = 0 at m = 0.  A zero
    h that divides raises ZeroDivisionError.
    """
    def alpha4(nn: int, mm: int) -> Fraction:
        return -1 / norms.h1(nn - 1, mm) if nn else ZERO

    def alpha5(nn: int, mm: int) -> Fraction:
        return -1 / norms.h2(nn, mm - 1) if mm else ZERO

    alpha1, beta1 = -field.c(n, m), -field.d(n, m)
    alpha2 = field.a(n, m) * norms.h1(n - 1, m) if n else -norms.h1(0, m)
    alpha3 = field.b(n, m) * norms.h2(n, m - 1) if m else -norms.h2(n, 0)
    return TransitionPair(
        n, m,
        L=assemble_l(alpha1, alpha2, alpha3, alpha4(n + 1, m), alpha5(n + 1, m)),
        M=assemble_m(beta1, alpha2, alpha3, alpha4(n, m + 1), alpha5(n, m + 1)),
        alpha1=alpha1, beta1=beta1, alpha2=alpha2, alpha3=alpha3,
        alpha4=alpha4(n, m), alpha5=alpha5(n, m))


def zcc_residual(pair_nm: TransitionPair, pair_right: TransitionPair,
                 pair_up: TransitionPair) -> MatPoly:
    """L(n, m+1) M(n, m) - M(n+1, m) L(n, m); identically zero on valid data.

    A nonzero residual is a report, not an exception.
    """
    return pair_up.L * pair_nm.M - pair_right.M * pair_nm.L


def zero_curvature_holds(table: HPTable, field: RecurrenceField,
                         n: int, m: int) -> bool:
    """Whether the zero-curvature stencil (n, m) holds, as the identity
    K(n+1, m+1) K(n, m) = gap(n, m) K(n, m+1) K(n+1, m) on the table's
    minors K (``HPTable.minor``) and the field's gap c - d, cross-multiplied
    so no Fraction is formed.

    With the pairings h1 = K(n+1, m) / (D1 K(n, m)) and
    h2 = (-1)^n K(n, m+1) / (D2 K(n, m)) it is entries (1, 0) and (2, 0) of
    ``zcc_residual`` of the ``build_transition`` pairs, h1(n, m+1) =
    gap h1(n, m) and h2(n+1, m) = -gap h2(n, m), the D factors cancelling.
    Given the consistency identities, entries (0, 1) and (0, 2) are it at
    (n-1, m) and (n, m-1), or at (n, m) itself where that index leaves the
    lattice, and the x and constant terms of entry (0, 0) are two of those
    identities; the x^2 term and the other entries cancel identically.  It
    reads the minors inside (n+1, m+1) only, so every stencil with n < N
    and m < M stays in an (N, M) window.
    """
    c, c_den = field.pair("c", n, m)
    d, d_den = field.pair("d", n, m)
    minor = table.minor
    return (minor(n + 1, m + 1) * minor(n, m) * c_den * d_den
            == (c * d_den - d * c_den) * minor(n, m + 1) * minor(n + 1, m))


# -- wave matrices -----------------------------------------------------------


def wave_matrix(table: HPTable, f1: LaurentTail, f2: LaurentTail,
                n: int, m: int) -> WaveMatrix:
    """Wave matrix at (n, m): row 1 carries P(n, m) and its two remainder
    tails; rows 2 and 3 carry the shifted polynomials scaled by -1/h, with
    constant rows (0, 1, 0) and (0, 0, 1) on the axes."""

    # structural zeros (polynomial slots, constant rows) are zero to every
    # order; give them the validity of the weakest genuine tail in the matrix
    zero_order = min(f1.truncation_order, f2.truncation_order) - (n + m)
    if zero_order < 0:
        raise WindowError(
            f"series order too small for the wave matrix at ({n}, {m})")
    zeros = LaurentTail.zeros(zero_order)

    def data_row(nn: int, mm: int, scale: Fraction):
        p = table.hp_poly_det(nn, mm)
        _, r1 = poly_from_series_product(f1, p)
        _, r2 = poly_from_series_product(f2, p)
        return ((scale * p, zeros), (Poly(), scale * r1), (Poly(), scale * r2))

    rows = [data_row(n, m, Fraction(1))]
    if n == 0:
        rows.append(((Poly(), zeros), (Poly.of(1), zeros), (Poly(), zeros)))
    else:
        rows.append(data_row(n - 1, m, -1 / table.pairing(1, n - 1, m, n - 1)))
    if m == 0:
        rows.append(((Poly(), zeros), (Poly(), zeros), (Poly.of(1), zeros)))
    else:
        rows.append(data_row(n, m - 1, -1 / table.pairing(2, n, m - 1, m - 1)))
    return WaveMatrix(n, m, tuple(rows))


def propagate(mat: MatPoly, wave: WaveMatrix, n: int, m: int) -> WaveMatrix:
    """Left-multiply a wave matrix by a degree-1 transition matrix.

    Polynomial-times-tail products route their emerging polynomial part into
    the polynomial slot, so the result is again a (Poly, tail) matrix; tails
    shrink by the degree of the multiplier.
    """
    if mat.dim != 3:
        raise WindowError("wave propagation needs a 3x3 transition matrix")
    out = []
    for i in range(3):
        row = []
        for jj in range(3):
            acc_p, acc_t = Poly(), None
            for k in range(3):
                lp = mat.entry(i, k)
                qp, tp = wave.entry(k, jj)
                acc_p = acc_p + lp * qp
                extra, shifted = poly_from_series_product(tp, lp)
                acc_p = acc_p + extra
                acc_t = shifted if acc_t is None else acc_t + shifted
            row.append((acc_p, acc_t))
        out.append(tuple(row))
    return WaveMatrix(n, m, tuple(out))


def waves_agree(w1: WaveMatrix, w2: WaveMatrix) -> bool:
    """Entrywise equality of polynomial parts and tails to shared validity."""
    for i in range(3):
        for j in range(3):
            p1, t1 = w1.entry(i, j)
            p2, t2 = w2.entry(i, j)
            if p1 != p2:
                return False
            k = min(t1.truncation_order, t2.truncation_order)
            if t1.head(k) != t2.head(k):
                return False
    return True


# -- transport ---------------------------------------------------------------

STEPS = {(1, 0), (-1, 0), (0, 1), (0, -1)}


def path_transport(pairs: Mapping[tuple[int, int], TransitionPair],
                   path: Sequence[tuple[int, int]]) -> MatPoly:
    """Ordered product of transition matrices along a lattice path from the
    origin; backward steps use the exact inverse (adjugate over the constant
    determinant)."""
    pos = (0, 0)
    total = MatPoly.identity(3)
    for step in path:
        if tuple(step) not in STEPS:
            raise WindowError(f"path step must be a unit move, got {step}")
        dn, dm = step
        if dn == 1:
            src = pos
            factor = _pair_at(pairs, src).L
        elif dn == -1:
            src = (pos[0] - 1, pos[1])
            factor = _pair_at(pairs, src).L.inverse()
        elif dm == 1:
            src = pos
            factor = _pair_at(pairs, src).M
        else:
            src = (pos[0], pos[1] - 1)
            factor = _pair_at(pairs, src).M.inverse()
        total = factor * total
        pos = (pos[0] + dn, pos[1] + dm)
        if pos[0] < 0 or pos[1] < 0:
            raise WindowError(f"path leaves the quarter lattice at {pos}")
    return total


def _pair_at(pairs: Mapping[tuple[int, int], TransitionPair],
             key: tuple[int, int]) -> TransitionPair:
    try:
        return pairs[key]
    except KeyError:
        raise WindowError(f"no transition pair at {key}; path leaves the window") from None
