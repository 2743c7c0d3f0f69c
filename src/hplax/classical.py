"""Single-measure baseline: shifted Hankel data, qd-type coefficients,
2x2 transition matrices, three-term recurrences, and the finite
continued-fraction identity for ratios of consecutive monic polynomials.

The recurrence is kept in monic form throughout (subdiagonal entries are the
squared off-diagonal terms), which stays inside rational arithmetic; the
continued-fraction identity is checked at the level of the rational function,
where the normalization drops out.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegeneracyError, TruncationError, WindowError
from .kernel import MatPoly, Poly, X, det_exact, poly_divmod, poly_gcd, rat
from .measures import JFraction, jfraction_to_moments, monic_orthogonal_polys


class QdField:
    """Memoized shifted-Hankel values with the derived quotient-difference
    grids over one moment sequence; every stored V and W passed the
    nonvanishing-denominator check when it was first computed.

    The module functions below accept a QdField in place of a moment
    sequence and then share its memo, so a grid of residuals takes each
    Hankel determinant and each (V, W) pair once."""

    def __init__(self, moments):
        self.moments = [rat(x) for x in moments]
        self._hankel: dict[tuple[int, int], Fraction] = {}
        self._vw: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}

    def hankel(self, n: int, k: int) -> Fraction:
        key = (n, k)
        if key not in self._hankel:
            self._hankel[key] = hankel_shifted(self.moments, n, k)
        return self._hankel[key]

    def vw(self, n: int, k: int) -> tuple[Fraction, Fraction]:
        key = (n, k)
        if key not in self._vw:
            self._vw[key] = qd_vw(self, n, k)
        return self._vw[key]

    def v(self, n: int, k: int) -> Fraction:
        return self.vw(n, k)[0]

    def w(self, n: int, k: int) -> Fraction:
        return self.vw(n, k)[1]


def _qd_field(moments) -> QdField:
    return moments if isinstance(moments, QdField) else QdField(moments)


def hankel_shifted(moments, n: int, k: int) -> Fraction:
    """Determinant of the n x n Hankel block starting at moment k; size 0 is 1."""
    if n == 0:
        return Fraction(1)
    top = 2 * n + k - 2
    if len(moments) <= top:
        raise TruncationError(
            f"Hankel block ({n}, {k}) needs moment index {top}, have {len(moments)}")
    return det_exact([[moments[k + i + j] for j in range(n)] for i in range(n)])


def qd_vw(moments, n: int, k: int) -> tuple[Fraction, Fraction]:
    """The two quotient-difference ratios of shifted Hankel determinants.

    ``moments`` is a moment sequence or a QdField, whose Hankel memo is used.
    """
    hankel = _qd_field(moments).hankel
    s_nk = hankel(n, k)
    s_nk1 = hankel(n, k + 1)
    s_n1k = hankel(n + 1, k)
    s_n1k1 = hankel(n + 1, k + 1)
    s_nk2 = hankel(n, k + 2)
    if s_nk1 == 0 or s_n1k == 0 or s_nk2 == 0:
        raise DegeneracyError(
            f"vanishing Hankel denominator at (n, k) = ({n}, {k})")
    v = s_n1k1 * s_nk / (s_nk1 * s_n1k)
    w = s_n1k1 * s_nk1 / (s_n1k * s_nk2)
    return v, w


def lax_l(v, w, v_next_k) -> MatPoly:
    """2x2 L-matrix from the qd values V(n,k), W(n,k), V(n,k+1)."""
    v, w, v_next_k = rat(v), rat(w), rat(v_next_k)
    return MatPoly(((Poly.of(-v), X),
                    (Poly.of(-v), X + Poly.of(w - v_next_k))))


def lax_m_num(v, w) -> MatPoly:
    """Numerator of the 2x2 M-matrix (the scalar prefactor 1/x is implied)."""
    v, w = rat(v), rat(w)
    return MatPoly(((Poly(), X),
                    (Poly.of(-v), X + Poly.of(w))))


def transition_2x2(moments, n: int, k: int) -> tuple[MatPoly, MatPoly]:
    """The transition pair at (n, k); the second matrix is the 1/x numerator.

    ``moments`` is a moment sequence or a QdField, whose memo is used.
    """
    qd = _qd_field(moments)
    v, w = qd.vw(n, k)
    v1, _ = qd.vw(n, k + 1)
    return lax_l(v, w, v1), lax_m_num(v, w)


def zcc2_residual(moments, n: int, k: int) -> MatPoly:
    """Zero-curvature residual with the common 1/x prefactor cleared.

    ``moments`` is a moment sequence or a QdField, whose memo is used.
    """
    qd = _qd_field(moments)
    l_here, m_here = transition_2x2(qd, n, k)
    l_up, _ = transition_2x2(qd, n, k + 1)
    _, m_right = transition_2x2(qd, n + 1, k)
    return l_up * m_here - m_right * l_here


def three_term_check(j: JFraction, upto: int) -> list[Poly]:
    """Residuals of the monic three-term recurrence against independently
    built orthogonal polynomials.

    The polynomials come from Gram-Schmidt on moments recovered from the
    continued-fraction data, so the two routes meet here; every residual must
    be the zero polynomial.
    """
    if upto < 1:
        return []
    if j.depth < upto or len(j.a) < upto - 1:
        raise WindowError(
            f"recurrence check to depth {upto} needs {upto} diagonal and "
            f"{upto - 1} subdiagonal coefficients, have {j.depth} and {len(j.a)}")
    moments = jfraction_to_moments(j, 2 * upto)
    polys = monic_orthogonal_polys(moments, upto)
    residuals = []
    for t in range(upto):
        rhs = (X - Poly.of(j.c[t])) * polys[t]
        if t >= 1:
            rhs = rhs - j.a[t - 1] * polys[t - 1]
        residuals.append(polys[t + 1] - rhs)
    return residuals


def cf_tail_eval(j: JFraction, depth: int) -> tuple[Poly, Poly]:
    """Finite continued fraction with diagonal c and partial numerators a,
    evaluated bottom-up as an exact rational function (numerator, denominator,
    coprime with monic denominator).

    Equals the ratio -pi_depth / pi_(depth+1) of consecutive monic orthogonal
    polynomials: depth 0 gives -1/(x - c_0).
    """
    if depth < 0:
        raise WindowError("continued-fraction depth must be nonnegative")
    if j.depth < depth + 1 or len(j.a) < depth:
        raise WindowError(
            f"depth {depth} needs {depth + 1} diagonal and {depth} subdiagonal "
            f"coefficients, have {j.depth} and {len(j.a)}")
    num_prev, num = Poly.of(1), X - Poly.of(j.c[0])
    for t in range(1, depth + 1):
        num_prev, num = num, (X - Poly.of(j.c[t])) * num - j.a[t - 1] * num_prev
    g = poly_gcd(num_prev, num)
    if g.degree > 0:
        num_prev, _ = poly_divmod(num_prev, g)
        num, _ = poly_divmod(num, g)
    lead = num.leading
    return -num_prev / lead, num / lead
