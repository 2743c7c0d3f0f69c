"""Single-measure baseline: shifted Hankel data, qd-type coefficients,
2x2 transition matrices, three-term recurrences, and the finite
continued-fraction identity for ratios of consecutive monic polynomials.

The qd values come from integer shifted Hankel minors, which ``QdField``
fills by the Desnanot-Jacobi recurrence, the bilinear form of the qd
algorithm, and reads from a fraction-free elimination of the shift only
where the recurrence's divisor vanishes; plain determinants of the Hankel
blocks (``hankel_shifted``, ``qd_vw``) are their oracle.  The 2x2
zero-curvature residual is three scalars in V and W, each formed over one
common denominator (``zcc2_residual``); the products of the transition
pairs (``transition_2x2``) are its oracle.

The recurrence is kept in monic form throughout (subdiagonal entries are the
squared off-diagonal terms), which stays inside rational arithmetic; the
continued-fraction identity is checked at the level of the rational function,
where the normalization drops out.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegeneracyError, TruncationError, WindowError, check_int, check_sequence
from .kernel import (ZERO, LeadingMinors, MatPoly, Poly, X, cleared, det_exact,
                     rat)
from .measures import (JFraction, hankel_row, jfraction_to_moments,
                       monic_orthogonal_polys)


class QdField:
    """Shifted-Hankel values with the derived quotient-difference grids over
    one moment sequence, the production route.

    The moments are cleared of denominators once (D s_j, D their lcm), and
    M(n, k) = D^n H(n, k) is an integer: M(0, k) = 1 and M(1, k) = D s_k.
    Deeper minors come from the Desnanot-Jacobi identity on the Hankel
    block, the bilinear form of the qd algorithm,

        M(n, k) M(n - 2, k + 2) = M(n - 1, k) M(n - 1, k + 2) - M(n - 1, k + 1)^2,

    one exact integer division each, with no gcd.  Where the divisor
    M(n - 2, k + 2) is zero, that one minor is the leading minor of order n
    of the fraction-free elimination (``kernel.LeadingMinors``) of the Hankel
    rows D s[k + r:k + r + width] at shift k, made on the first such read at
    that shift (``shift``) and kept; its width (len - k + 1) // 2 is the
    order of the deepest block the moments hold there, and its
    ``hankel_row``s never show their padding to a minor whose moments exist.
    The minors are memoised per (n, k) and filled in order of the last
    moment index 2 n + k - 2 of their block, then of n (``minor``), so each
    is computed once, without recursion, from minors already filled, and no
    moment past that index is read.  V and W are each one Fraction of five
    minors, whose powers of D cancel.  Every stored V and W passed the
    nonvanishing-denominator check when it was first computed, and each
    (V, W) is built once.

    The module functions below accept a QdField in place of a moment
    sequence and then share its memo.  ``hankel_shifted`` and ``qd_vw`` are
    the determinant route on plain sequences, kept as the oracle."""

    def __init__(self, moments):
        check_sequence(moments, "moment sequence")
        self.moments = [rat(x) for x in moments]
        self._ints, self._scale = cleared(self.moments)
        # M(0, k) and M(1, k) for every k the moments hold; deeper minors
        # are filled up to the last moment index self._top
        self._minors: dict[tuple[int, int], int] = {(0, k): 1 for k in range(len(self._ints))}
        self._minors.update(((1, k), x) for k, x in enumerate(self._ints))
        self._top = 1
        self._shifts: dict[int, LeadingMinors] = {}
        self._vw: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}

    def shift(self, k: int) -> LeadingMinors:
        """The elimination of the Hankel rows at shift k."""
        if k not in self._shifts:
            ints, width = self._ints, (len(self._ints) - k + 1) // 2
            self._shifts[k] = LeadingMinors(lambda r: hankel_row(ints, k + r, width), width)
        return self._shifts[k]

    def minor(self, n: int, k: int) -> int:
        """D^n H(n, k); raises as ``hankel_shifted`` does before any read."""
        _check_hankel(self.moments, n, k)
        if n < 2:
            return self._ints[k] if n else 1
        minors, top = self._minors, 2 * n + k - 2
        if top > self._top:
            for t in range(self._top + 1, top + 1):
                for j in range(2, t // 2 + 2):      # the blocks ending at moment t
                    i = t + 2 - 2 * j
                    divisor = minors[j - 2, i + 2]
                    minors[j, i] = ((minors[j - 1, i] * minors[j - 1, i + 2]
                                     - minors[j - 1, i + 1] ** 2) // divisor if divisor
                                    else self.shift(i).minor(j))
            self._top = top
        return minors[n, k]

    def hankel(self, n: int, k: int) -> Fraction:
        return Fraction(self.minor(n, k), self._scale ** n)

    def vw(self, n: int, k: int) -> tuple[Fraction, Fraction]:
        key = (n, k)
        if key not in self._vw:
            minor = self.minor
            h_nk, h_nk1 = minor(n, k), minor(n, k + 1)
            h_n1k, h_n1k1 = minor(n + 1, k), minor(n + 1, k + 1)
            h_nk2 = minor(n, k + 2)
            if h_nk1 == 0 or h_n1k == 0 or h_nk2 == 0:
                raise DegeneracyError(
                    f"vanishing Hankel denominator at (n, k) = ({n}, {k})")
            self._vw[key] = (Fraction(h_n1k1 * h_nk, h_nk1 * h_n1k),
                             Fraction(h_n1k1 * h_nk1, h_n1k * h_nk2))
        return self._vw[key]


def _qd_field(moments) -> QdField:
    return moments if isinstance(moments, QdField) else QdField(moments)


def _check_hankel(moments, n: int, k: int) -> None:
    """Reject an index that is not an int (a bool is not one) or is
    negative, and a nonempty block past the last moment."""
    check_int(n, "Hankel block order")
    check_int(k, "Hankel block shift")
    top = 2 * n + k - 2
    if n and len(moments) <= top:
        raise TruncationError(
            f"Hankel block ({n}, {k}) needs moment index {top}, have {len(moments)}")


def hankel_shifted(moments, n: int, k: int) -> Fraction:
    """Determinant of the n x n Hankel block starting at moment k; size 0 is 1."""
    check_sequence(moments, "moment sequence")
    _check_hankel(moments, n, k)
    if n == 0:
        return Fraction(1)
    return det_exact([[moments[k + i + j] for j in range(n)] for i in range(n)])


def qd_vw(moments, n: int, k: int) -> tuple[Fraction, Fraction]:
    """The two quotient-difference ratios of shifted Hankel determinants
    (``hankel_shifted``) of a moment sequence."""
    s_nk = hankel_shifted(moments, n, k)
    s_nk1 = hankel_shifted(moments, n, k + 1)
    s_n1k = hankel_shifted(moments, n + 1, k)
    s_n1k1 = hankel_shifted(moments, n + 1, k + 1)
    s_nk2 = hankel_shifted(moments, n, k + 2)
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


def zcc2_residual(moments, n: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Zero-curvature residual L(n, k+1) M(n, k) - M(n+1, k) L(n, k) with the
    common 1/x prefactor cleared, in closed form, as the scalars (V r, rho, r).

    Written out, the products leave only the second row, [V r, rho - r x]
    with V = V(n, k),
    r = W(n+1, k) - V(n+1, k) + V(n, k+2) - W(n, k+1) and
    rho = W(n+1, k) (V(n, k+1) - W(n, k)) + W(n, k) (W(n, k+1) - V(n, k+2)),
    so the residual vanishes exactly when all three scalars do, and no
    transition matrix or polynomial is formed; the ``transition_2x2``
    products are the oracle.  r and rho are each evaluated in integers over
    one common denominator, the product of the denominators of the values
    they read, and each of the three scalars is one Fraction formed at the
    end; when both numerators vanish, no denominator is formed.  The qd
    values are read in the order the three transition pairs read them,
    V(n+1, k+1) included, so a failing read raises the same error.
    ``moments`` is a moment sequence or a QdField, whose memo is used.
    """
    qd = _qd_field(moments)
    (v, v_d), (w, w_d) = _pairs(qd.vw(n, k))
    (v1, v1_d), (w1, w1_d) = _pairs(qd.vw(n, k + 1))
    (v2, v2_d), _ = _pairs(qd.vw(n, k + 2))
    (v_right, v_right_d), (w_right, w_right_d) = _pairs(qd.vw(n + 1, k))
    qd.vw(n + 1, k + 1)         # read for its errors only
    r = ((w_right * v_right_d - v_right * w_right_d) * v2_d * w1_d
         + (v2 * w1_d - w1 * v2_d) * w_right_d * v_right_d)
    rho = (w_right * (v1 * w_d - w * v1_d) * w1_d * v2_d
           + w * (w1 * v2_d - v2 * w1_d) * w_right_d * v1_d)
    if not (r or rho):
        return ZERO, ZERO, ZERO
    r_d = w_right_d * v_right_d * v2_d * w1_d
    rho_d = w_right_d * v1_d * w_d * w1_d * v2_d
    return Fraction(v * r, v_d * r_d), Fraction(rho, rho_d), Fraction(r, r_d)


def _pairs(vw: tuple[Fraction, Fraction]) -> tuple[tuple[int, int], tuple[int, int]]:
    """V and W as their (numerator, denominator) pairs."""
    v, w = vw
    return (v.numerator, v.denominator), (w.numerator, w.denominator)


def _recurrence_polys(j: JFraction, upto: int) -> list[Poly]:
    """pi_0..pi_upto from the monic three-term recurrence
    pi_(t+1) = (x - c_t) pi_t - a_t pi_(t-1) on the J-fraction data."""
    if j.depth < upto or len(j.a) < upto - 1:
        raise WindowError(
            f"pi_{upto} needs {upto} diagonal and {upto - 1} subdiagonal "
            f"coefficients, have {j.depth} and {len(j.a)}")
    polys = [Poly.of(1)]
    for t in range(upto):
        nxt = (X - Poly.of(j.c[t])) * polys[t]
        if t >= 1:
            nxt = nxt - j.a[t - 1] * polys[t - 1]
        polys.append(nxt)
    return polys


def three_term_check(j: JFraction, upto: int) -> list[Poly]:
    """Residuals pi_t - rho_t, t = 1..upto, between two routes to the monic
    orthogonal polynomials of a J-fraction.

    rho_t runs the three-term recurrence on the coefficients; pi_t is the
    determinant route (monic_orthogonal_polys, the Hankel null vector) on the
    moments that jfraction_to_moments recovers from the same data.  Every
    residual must be the zero polynomial.
    """
    check_int(upto, "three-term check degree")
    if upto == 0:
        return []
    rho = _recurrence_polys(j, upto)
    pi = monic_orthogonal_polys(jfraction_to_moments(j, 2 * upto), upto)
    return [p - r for p, r in zip(pi[1:], rho[1:])]


def cf_tail_eval(j: JFraction, depth: int) -> tuple[Poly, Poly]:
    """Finite continued fraction with diagonal c and partial numerators a,
    as the exact rational function (-pi_depth, pi_(depth+1)) of consecutive
    recurrence polynomials: depth 0 gives -1/(x - c_0).

    The pair is coprime with monic denominator without any division: the a
    are nonzero, so a common root of pi_depth and pi_(depth+1) would pass
    down the recurrence to pi_0 = 1.
    """
    check_int(depth, "continued-fraction depth")
    polys = _recurrence_polys(j, depth + 1)
    return -polys[depth], polys[depth + 1]
