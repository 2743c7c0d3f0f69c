"""Determinant table, normality tests, and the table polynomials.

Each polynomial is produced by two independent routes: a bordered-determinant
formula and a direct linear solve of the orthogonality conditions.  The two
must agree exactly at every normal index; they are each other's oracle.

The bordered-determinant route is one fraction-free elimination per index
(``kernel.bordered_solve``): it yields S(n, m) and all n + m + 1 bordered
cofactors of P(n, m) at once, so ``s_det`` fills both memos whenever the
moments reach the bordered depth, and takes a plain determinant only below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DegeneracyError, IntegrityError, NotNormalError,
                     TruncationError, WindowError)
from .kernel import (LaurentTail, Poly, bordered_solve, det_exact, moment_pairing,
                     poly_from_series_product, solve_exact)
from .measures import MomentSystem


@dataclass(frozen=True)
class HPTriple:
    """Table polynomial with its two numerators and remainder tails."""

    n: int
    m: int
    p: Poly
    q1: Poly
    q2: Poly
    r1: LaurentTail
    r2: LaurentTail


class HPTable:
    """Memoized grid of determinants S(n, m) and monic polynomials P(n, m).

    Each memo cell is written once and never recomputed; concurrent fills of
    distinct indices are safe because all inputs are immutable.
    """

    def __init__(self, moments: MomentSystem, max_n: int, max_m: int):
        self.moments = moments
        self.max_n = max_n
        self.max_m = max_m
        self._s: dict[tuple[int, int], Fraction] = {}
        self._p: dict[tuple[int, int], Poly] = {}

    # -- bookkeeping ------------------------------------------------------

    def _check_window(self, n: int, m: int) -> None:
        if n < 0 or m < 0 or n > self.max_n or m > self.max_m:
            raise WindowError(
                f"index ({n}, {m}) outside table window ({self.max_n}, {self.max_m})")

    def _depth_needed(self, n: int, m: int, bordered: bool) -> tuple[int, int]:
        extra = 1 if bordered else 0
        return max(2 * n + m - 1 + extra, 0), max(n + 2 * m - 1 + extra, 0)

    def _has_depth(self, n: int, m: int, bordered: bool) -> bool:
        return max(self._depth_needed(n, m, bordered)) <= self.moments.count

    def _check_depth(self, n: int, m: int, bordered: bool) -> None:
        if not self._has_depth(n, m, bordered):
            need1, need2 = self._depth_needed(n, m, bordered)
            raise TruncationError(
                f"index ({n}, {m}) needs {need1} moments of the first sequence and "
                f"{need2} of the second, have {self.moments.count}")

    def _grid(self, n: int, m: int, rows: int) -> list[list[Fraction]]:
        s1, s2 = self.moments.s1, self.moments.s2
        return [[s1[i + j] for j in range(n)] + [s2[i + j] for j in range(m)]
                for i in range(rows)]

    # -- determinants and normality ---------------------------------------

    def s_det(self, n: int, m: int) -> Fraction:
        """Mixed Hankel-type determinant of size n + m; the empty case is 1.

        With moments to the bordered depth, the same elimination also stores
        the table polynomial P(n, m) when S(n, m) is nonzero.
        """
        self._check_window(n, m)
        key = (n, m)
        if key not in self._s:
            self._check_depth(n, m, bordered=False)
            size = n + m
            if self._has_depth(n, m, bordered=True):
                s, coeffs = bordered_solve(self._grid(n, m, size + 1))
                if coeffs is not None:
                    poly = Poly(coeffs)
                    if poly.degree != size or not poly.is_monic:
                        raise IntegrityError(f"bordered determinant at ({n}, {m}) "
                                             f"is not monic of degree {size}")
                    self._p[key] = poly
                self._s[key] = s
            else:
                self._s[key] = det_exact(self._grid(n, m, size))
        return self._s[key]

    def is_normal(self, n: int, m: int) -> bool:
        return self.s_det(n, m) != 0

    # -- the two polynomial routes ----------------------------------------

    def hp_poly_det(self, n: int, m: int) -> Poly:
        """Monic table polynomial via the bordered determinant, memoized."""
        self._check_window(n, m)
        key = (n, m)
        if key not in self._p:
            if self.s_det(n, m) == 0:
                raise NotNormalError(n, m)
            self._check_depth(n, m, bordered=True)
        return self._p[key]

    def hp_poly_solve(self, n: int, m: int) -> Poly:
        """Monic table polynomial via the orthogonality linear system.

        Independent of the determinant route; the two must agree exactly.
        """
        self._check_window(n, m)
        if self.s_det(n, m) == 0:
            raise NotNormalError(n, m)
        self._check_depth(n, m, bordered=True)
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

    def hp_remainder(self, f1: LaurentTail, f2: LaurentTail, n: int, m: int) -> HPTriple:
        """Split f_j * P into numerator and remainder; enforce the order condition."""
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
        return HPTriple(n, m, p, q1, q2, r1, r2)

    def orthogonality_residuals(self, n: int, m: int) -> tuple[list[Fraction], list[Fraction]]:
        """Pairings of P(n, m) with the first monomials; all must vanish."""
        p = self.hp_poly_det(n, m)
        return ([moment_pairing(p, self.moments.s1, k) for k in range(n)],
                [moment_pairing(p, self.moments.s2, k) for k in range(m)])
