import re
import sys
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hplax.bvp import BoundaryData
from hplax.errors import (DegeneracyError, DimensionError, IntegrityError,
                          ParseError, TruncationError)
from hplax.kernel import (LaurentTail, LeadingMinors, MatPoly, Poly, SharedPrefix, X,
                          det_exact, moment_pairing, poly_from_series_product, rat,
                          series_of_ratio, solve_exact)
from hplax.measures import MomentSystem

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
# polynomials of degree at most 2, many of them zero, with zero coefficients
sparse_polys = st.one_of(
    st.just(Poly()),
    st.lists(st.one_of(st.just(F(0)), rationals), min_size=1, max_size=3)
    .map(lambda c: Poly(tuple(c))))


def brute_det(rows):
    """Permutation-expansion oracle, independent of the elimination path."""
    n = len(rows)
    if n == 0:
        return F(1)
    total = F(0)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = F(1)
        for i in range(n):
            prod *= F(rows[i][perm[i]])
        total += -prod if inv % 2 else prod
    return total


class TestDetExact:
    def test_identity_2x2(self):
        assert det_exact([[1, 0], [0, 1]]) == 1

    def test_hand_cofactor(self):
        # 1*(1/3) - (1/2)*(1/2) = 1/12
        assert det_exact([[1, F(1, 2)], [F(1, 2), F(1, 3)]]) == F(1, 12)

    def test_angelesco_s11(self):
        # 1*(3/2) - 1*(-3/2) = 3
        assert det_exact([[1, 1], [F(-3, 2), F(3, 2)]]) == 3

    def test_empty_is_one(self):
        assert det_exact([]) == 1

    def test_non_square(self):
        with pytest.raises(DimensionError):
            det_exact([[1, 2, 3], [4, 5, 6]])

    def test_zero_pivot_needs_swap(self):
        assert det_exact([[0, 1], [1, 0]]) == -1
        assert det_exact([[0, 0], [1, 1]]) == 0

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_matches_bruteforce(self, rows):
        assert det_exact(rows) == brute_det(rows)


def per_minor(rows):
    """S and the bordered cofactors over S, one determinant per minor."""
    k = len(rows) - 1
    s = det_exact(rows[:k])
    return s, tuple((-1) ** (i + k) * det_exact(rows[:i] + rows[i + 1:]) / s
                    for i in range(k + 1))


def leading_minors_of(matrix, width=None):
    """The elimination of the rows of matrix, as wide as its first row by
    default."""
    return LeadingMinors(matrix.__getitem__, len(matrix[0]) if width is None else width)


# square integer matrices of order 1-6 with many zero entries, plus one
# spare column for the null vector of the full order
small_matrices = st.integers(1, 6).flatmap(
    lambda k: st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]),
                                min_size=k + 1, max_size=k + 1),
                       min_size=k, max_size=k))


def ratios(ints):
    return tuple(F(v, ints[-1]) for v in ints)


def bordered(grid):
    """LeadingMinors of a (k + 1) x k bordered grid: row j of the transpose
    is the equation sum_i p_i grid[i][j] = 0 of the monic null vector p."""
    return leading_minors_of([list(col) for col in zip(*grid)], len(grid))


class TestBorderedSolve:
    def test_empty_grid(self):
        minors = bordered([[]])
        assert minors.minor(0) == 1 and minors.null_vector(0) == [1]

    def test_pivot_swap(self):
        # column 0 reads 0*p0 + 1*p1 + 2 = 0, column 1 reads p0 + 3 = 0
        minors = bordered([[0, 1], [1, 0], [2, 3]])
        assert minors.minor(2) == -1
        assert ratios(minors.null_vector(2)) == (-3, -2, 1)

    def test_singular(self):
        for grid in ([[1, 2], [2, 4], [1, 1]], [[0, 0], [0, 1], [1, 0]]):
            minors = bordered(grid)
            assert minors.minor(2) == 0
            with pytest.raises(DegeneracyError):
                minors.null_vector(2)


class TestLeadingMinors:
    def test_hand_example(self):
        minors = leading_minors_of([[2, 1, 4], [1, 3, 5]])
        assert minors.minor(2) == 5 and minors.minor(1) == 2
        # 2 p0 + p1 + 4 = 0 and p0 + 3 p1 + 5 = 0: p = (-7/5, -6/5, 1)
        assert minors.null_vector(2) == [-7, -6, 5]

    def test_zero_pivot_takes_a_row_exchange(self):
        minors = leading_minors_of([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert [minors.minor(k) for k in range(4)] == [1, 0, -1, 2]
        with pytest.raises(DegeneracyError):
            minors.null_vector(1)

    def test_short_row_raises(self):
        with pytest.raises(DimensionError):
            leading_minors_of([[1, 2], [3]]).minor(2)

    @settings(max_examples=200, deadline=None)
    @given(small_matrices, st.randoms(use_true_random=False))
    def test_lazy_reads_match_determinants(self, matrix, rng):
        k = len(matrix)
        read = []
        minors = LeadingMinors(lambda r: read.append(r) or matrix[r], k + 1)
        dets = [brute_det([row[:j] for row in matrix[:j]]) for j in range(k + 1)]
        # the minor of order k + 1 = width would read a row the matrix lacks
        requests = [(order, vector) for order in range(-2, k + 3)
                    for vector in (False, True) if (order, vector) != (k + 1, False)]
        rng.shuffle(requests)
        for order, vector in requests:
            if order < 0 or order > k:
                # never a pivot read from the end of the list, nor past the width
                for read_at in ((minors.null_vector, minors.null_tail) if vector
                                else (minors.minor,)):
                    with pytest.raises(DimensionError):
                        read_at(order)
                continue
            det = dets[order]
            if not vector:
                assert minors.minor(order) == det
            elif det != 0:
                ints = minors.null_vector(order)
                for row in matrix[:order]:
                    assert sum(v * x for v, x in zip(ints, row)) == 0
                grid = [list(col) for col in zip(*[row[:order + 1]
                                                   for row in matrix[:order]])]
                assert ratios(ints) == per_minor(grid or [[]])[1]
            else:
                with pytest.raises(DegeneracyError):
                    minors.null_vector(order)
        assert len(read) == len(set(read))      # each row read once


def fork_reads(minors, matrix, order):
    """minor, null_vector and null_tail of order, each checked against
    det_exact of matrix; the integers as read, for comparison."""
    det = det_exact([row[:order] for row in matrix[:order]])
    assert minors.minor(order) == det
    if det == 0:
        for read in (minors.null_vector, minors.null_tail):
            with pytest.raises(DegeneracyError):
                read(order)
        return det, None, None
    ints = minors.null_vector(order)
    for row in matrix[:order]:
        assert sum(v * x for v, x in zip(ints, row)) == 0
    tail = minors.null_tail(order)
    assert tail == ((ints[-2], ints[-1]) if order else (0, 1))
    return det, ints, tail


def normalized(read):
    """A fork_reads triple up to the sign its exchanges give the integers."""
    det, ints, tail = read
    return det, ints and ratios(ints), tail and F(*tail)


def prefix_of(matrix, width=None):
    """The shared prefix of the rows of matrix, as wide as its first row by
    default."""
    return SharedPrefix(matrix.__getitem__, len(matrix[0]) if width is None else width)


def steps_before_a_zero_pivot(matrix):
    """The least c whose leading minor of order c + 1 vanishes, or the
    number of rows if none does: a no-exchange elimination's step c pivots
    on that minor."""
    return next((c for c in range(len(matrix))
                 if det_exact([row[:c + 1] for row in matrix[:c + 1]]) == 0), len(matrix))


# a matrix of head rows and tail rows, zero-laden, three columns wider than
# it is tall; a fork keeps k head rows and all tail rows
fork_cases = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda sizes: st.tuples(
        st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
                          min_size=sum(sizes) + 3, max_size=sum(sizes) + 3),
                 min_size=sum(sizes), max_size=sum(sizes)),
        st.just(sizes[0]), st.just(sizes[0] + sizes[1])))


class TestFork:
    """A fork of a shared prefix after j steps reads as a fresh elimination
    of its own rows, whatever was read of it or of the other forks before
    or after."""

    def test_exchange_before_the_fork_point(self):
        # step 0's pivot is zero, so the prefix takes no step and the fork
        # starts at 0; its own step 0 takes row 1 in
        prefix = prefix_of([[0, 1, 2, 1], [1, 0, 1, 3], [5, 7, 1, 2], [2, 1, 1, 1]])
        fork = prefix.fork(2, 3, 4)
        assert fork.inherited == 0 and prefix._pivots == []
        matrix = [[0, 1, 2, 1], [1, 0, 1, 3], [2, 1, 1, 1]]
        for order in range(4):
            assert normalized(fork_reads(fork, matrix, order)) == normalized(
                fork_reads(leading_minors_of(matrix), matrix, order))

    def test_exchange_from_past_the_kept_rows_cuts_the_fork(self):
        # rows 0 and 1 are zero in column 0, so a plain elimination would
        # take row 2 in at step 0; the prefix stops there and the fork,
        # which keeps two rows, starts at 0
        prefix = prefix_of([[0, 1, 1, 1], [0, 2, 1, 1], [3, 1, 0, 1], [1, 1, 1, 1]])
        fork = prefix.fork(2, 3, 4)
        assert fork.inherited == 0
        matrix = [[0, 1, 1, 1], [0, 2, 1, 1], [1, 1, 1, 1]]
        for order in range(4):
            assert normalized(fork_reads(fork, matrix, order)) == normalized(
                fork_reads(leading_minors_of(matrix), matrix, order))

    def test_prefix_stops_at_its_first_zero_pivot(self):
        # pivots 1, then 1 * 1 - 1 * 1 = 0: the prefix takes one step and no
        # more, whichever forks follow, and reads no row past the zero pivot's
        matrix = [[1, 1, 2, 3, 1], [1, 1, 0, 1, 2], [2, 0, 1, 1, 1], [0, 1, 1, 2, -1]]
        read = []
        prefix = SharedPrefix(lambda r: read.append(r) or matrix[r], 5)
        assert [prefix.fork(k, 3, 5).inherited for k in (3, 1, 2, 0, 3)] == [1, 1, 1, 0, 1]
        assert prefix._pivots == [1] and sorted(set(read)) == [0, 1]
        fork = prefix.fork(3, 3, 5)
        for order in range(5):
            assert normalized(fork_reads(fork, matrix, order)) == normalized(
                fork_reads(leading_minors_of(matrix), matrix, order))

    def test_fork_wider_than_its_parent_is_refused(self):
        prefix = prefix_of([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimensionError):
            prefix.fork(1, 1, 4)

    @settings(max_examples=200, deadline=None)
    @given(fork_cases, st.integers(0, 4), st.integers(1, 3),
           st.randoms(use_true_random=False))
    def test_fork_reads_as_a_fresh_elimination(self, case, warm, spare, rng):
        # each fork has spare - 1 columns more than its null vectors need,
        # and at most as many as its prefix
        matrix, k, tail = case
        prefix = prefix_of(matrix, len(matrix) + 3)
        if warm <= tail:                    # steps an earlier fork took
            prefix.fork(warm, tail, 1)
        forks = {}
        for keep in sorted({k, tail // 2, tail}):
            kept = matrix[:keep] + matrix[tail:]
            forks[keep] = prefix.fork(keep, tail, len(kept) + spare), kept
            assert forks[keep][0].inherited == min(keep, steps_before_a_zero_pivot(matrix[:tail]))
        requests = [(keep, order) for keep, (_, kept) in forks.items()
                    for order in range(len(kept) + 1)]
        rng.shuffle(requests)
        seen = {}
        for keep, order in requests:
            fork, kept = forks[keep]
            seen[keep, order] = fork_reads(fork, kept, order)
        # every later step and deeper read of any fork leaves the others' reads
        for (keep, order), read in seen.items():
            fork, kept = forks[keep]
            assert fork_reads(fork, kept, order) == read
            assert normalized(read) == normalized(
                fork_reads(leading_minors_of(kept, fork.width), kept, order))


class TestSolveExact:
    def test_small_system(self):
        sol = solve_exact([[1, 1], [1, -1]], [1, 0])
        assert sol == [F(1, 2), F(1, 2)]

    def test_singular(self):
        with pytest.raises(DegeneracyError):
            solve_exact([[1, 1], [2, 2]], [1, 2])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(rationals, min_size=n, max_size=n),
                     min_size=n, max_size=n),
            st.lists(rationals, min_size=n, max_size=n))))
    def test_solution_satisfies_system(self, case):
        rows, rhs = case
        if det_exact(rows) == 0:
            with pytest.raises(DegeneracyError):
                solve_exact(rows, rhs)
            return
        sol = solve_exact(rows, rhs)
        for row, want in zip(rows, rhs):
            assert sum(F(c) * v for c, v in zip(row, sol)) == want


@pytest.mark.parametrize("read", [lambda bad: rat(bad),
                                  lambda bad: MomentSystem([bad], [1])],
                         ids=["rat", "MomentSystem"])
def test_an_int_past_the_digit_limit_in_a_bad_value_is_a_parse_error(read):
    # repr of [10**5000] raises ValueError under the interpreter's default
    # limit on int-to-text conversion, which the library leaves alone
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError, match="list with an int too long to print"):
            read([10 ** 5000])
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.parametrize("bad", [0.1, 0.5, True, False], ids=repr)
def test_a_float_or_a_bool_is_not_a_rational(bad):
    # Fraction(0.1) is the dyadic 3602879701896397 / 2 ** 55 and Fraction(True)
    # is 1, neither what the writer meant; each is refused where it enters
    text = f"expected an exact rational, got {bad!r}"
    for read in (lambda: rat(bad), lambda: MomentSystem([bad, 1], [1, 2]),
                 lambda: BoundaryData((1, bad), (1,), (0, 1), (1,))):
        with pytest.raises(ParseError, match=re.escape(text)):
            read()


class TestRatArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(rationals, rationals)
    def test_add_then_subtract_is_identity(self, x, y):
        assert (x + y) - y == x


class TestPoly:
    def test_trim_and_degree(self):
        assert Poly.of(1, 2, 0, 0).coeffs == (1, 2)
        assert Poly.of().degree == -1
        assert Poly.of(5).degree == 0
        assert (X * X - X * X).is_zero

    def test_arithmetic(self):
        p = X * X - Poly.of(F(7, 3))
        assert p.coeff(2) == 1 and p.coeff(0) == F(-7, 3) and p.coeff(1) == 0
        assert p.evaluate(2) == 4 - F(7, 3)
        assert (p - p).is_zero
        assert (F(3) * Poly.of(1, 1)).coeffs == (3, 3)

    @pytest.mark.parametrize("ints", [[1], [0, -3], [4, 0, -6, 2], [-6, 4, 0, -3]])
    def test_monic_equals_the_coerced_quotient(self, ints):
        p = Poly.monic(ints)
        assert p == Poly(tuple(F(v, ints[-1]) for v in ints))
        assert p.is_monic and p.degree == len(ints) - 1
        assert all(type(c) is F for c in p.coeffs)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(rationals, max_size=5), st.lists(rationals, max_size=5),
           st.lists(rationals, max_size=5))
    def test_mul_distributes(self, a, b, c):
        pa, pb, pc = Poly(tuple(a)), Poly(tuple(b)), Poly(tuple(c))
        assert pa * (pb + pc) == pa * pb + pa * pc


class TestLaurentTail:
    def test_from_moments_examples(self):
        assert LaurentTail([]).truncation_order == 0
        one = LaurentTail([1])
        assert one.truncation_order == 1 and one.coeff(0) == 1
        # moments of Lebesgue on [-2, -1] by monomial integration
        t = LaurentTail([1, F(-3, 2), F(7, 3)])
        assert t.coeffs == (1, F(-3, 2), F(7, 3))

    def test_reads_past_validity_fail(self):
        t = LaurentTail([1, 2])
        with pytest.raises(TruncationError):
            t.coeff(2)
        with pytest.raises(TruncationError):
            t.head(3)

    def test_add_respects_shortest_operand(self):
        a = LaurentTail.of(1, 2, 3)
        b = LaurentTail.of(1, 1)
        assert (a + b).truncation_order == 2


class TestMomentPairing:
    lebesgue_01 = [F(1, k + 1) for k in range(5)]

    def test_values(self):
        p = X - Poly.of(F(1, 2))
        assert moment_pairing(p, self.lebesgue_01) == 0
        assert moment_pairing(p, self.lebesgue_01, 1) == F(1, 3) - F(1, 4)
        assert moment_pairing(Poly(), self.lebesgue_01, 5) == 0

    def test_reaching_past_the_last_moment_raises(self):
        assert moment_pairing(X * X, self.lebesgue_01, 2) == F(1, 5)
        with pytest.raises(TruncationError):
            moment_pairing(X * X, self.lebesgue_01, 3)
        with pytest.raises(TruncationError):
            moment_pairing(Poly.of(*range(1, 7)), self.lebesgue_01)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(F(0)), rationals), max_size=6),
           st.lists(st.one_of(rationals, st.integers(-10 ** 6, 10 ** 6)), max_size=8),
           st.integers(0, 4))
    def test_matches_fraction_sum(self, coeffs, moments, shift):
        # zero polynomials, zero coefficients, int and negative moments
        p = Poly(tuple(coeffs))
        if shift + p.degree >= len(moments):
            with pytest.raises(TruncationError):
                moment_pairing(p, moments, shift)
            return
        got = moment_pairing(p, moments, shift)
        want = sum((F(c) * F(s) for c, s in zip(p.coeffs, moments[shift:])), F(0))
        assert type(got) is F and got == want


class TestSeriesPolyProduct:
    def test_one_over_z_times_x(self):
        f = LaurentTail([1])
        q, r = poly_from_series_product(f, X)
        assert q == Poly.of(1)
        assert r.truncation_order == 0

    def test_multiply_by_one(self):
        f = LaurentTail([1, F(1, 2)])
        q, r = poly_from_series_product(f, Poly.of(1))
        assert q.is_zero and r == f

    def test_lebesgue_01_times_x_minus_half(self):
        f = LaurentTail([1, F(1, 2), F(1, 3), F(1, 4)])
        q, r = poly_from_series_product(f, X - Poly.of(F(1, 2)))
        assert q == Poly.of(1)
        assert r.coeff(0) == 0 and r.coeff(1) == F(1, 12)
        assert r.truncation_order == 3

    def test_insufficient_truncation(self):
        f = LaurentTail([1])
        with pytest.raises(TruncationError):
            poly_from_series_product(f, X * X)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(rationals, min_size=8, max_size=10),
           st.lists(rationals, min_size=1, max_size=3),
           st.lists(rationals, min_size=1, max_size=3))
    def test_product_composes(self, coeffs, pa, pb):
        f = LaurentTail(coeffs)
        p, q = Poly(tuple(pa)), Poly(tuple(pb))
        q_joint, r_joint = poly_from_series_product(f, p * q)
        q1, r1 = poly_from_series_product(f, p)
        # feed the remainder through the second factor and recombine
        q2a, r2 = poly_from_series_product(r1, q)
        recombined_poly = q1 * q + q2a
        k = min(r_joint.truncation_order, r2.truncation_order)
        assert q_joint == recombined_poly
        assert r_joint.head(k) == r2.head(k)


class TestSeriesOfRatio:
    def test_geometric(self):
        # 1/(x - 1) = 1/x + 1/x^2 + ...
        t = series_of_ratio(Poly.of(1), X - Poly.of(1), 4)
        assert t.coeffs == (1, 1, 1, 1)

    def test_remultiply(self):
        num = Poly.of(2, 1)
        den = Poly.of(-1, 3, 1)
        t = series_of_ratio(num, den, 8)
        # den * t must reproduce num up to the valid window
        q, r = poly_from_series_product(LaurentTail(t.coeffs), den)
        assert q == num
        assert all(c == 0 for c in r.head(r.truncation_order - 1))

    def test_rejects_improper_ratio(self):
        with pytest.raises(DimensionError):
            series_of_ratio(X * X, X, 3)
        with pytest.raises(DegeneracyError):
            series_of_ratio(Poly.of(1), Poly(), 3)


class TestMatPoly:
    def test_identity_and_mul(self):
        eye = MatPoly.identity(3)
        m = MatPoly(((X, Poly.of(1), Poly()),
                     (Poly(), Poly.of(1), X),
                     (Poly.of(2), Poly(), X + Poly.of(1))))
        assert eye * m == m and m * eye == m

    def test_det_and_adjugate(self):
        m = MatPoly(((X, Poly.of(1)), (Poly.of(-1), X)))
        assert m.det() == X * X + Poly.of(1)
        adj = m.adjugate()
        prod = m * adj
        assert prod.entry(0, 0) == m.det() and prod.entry(0, 1).is_zero

    def test_inverse_constant_det(self):
        m = MatPoly(((X, Poly.of(1)), (Poly.of(-1), Poly())))
        assert m.det() == Poly.of(1)
        assert m.inverse() * m == MatPoly.identity(2)

    def test_inverse_rejects_nonconstant_det(self):
        m = MatPoly(((X, Poly()), (Poly(), Poly.of(1))))
        with pytest.raises(IntegrityError):
            m.inverse()
        singular = MatPoly(((X, X), (X, X)))
        with pytest.raises(DegeneracyError):
            singular.inverse()

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            MatPoly(((X,), (X, X)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
        *(st.lists(st.lists(sparse_polys, min_size=n, max_size=n),
                   min_size=n, max_size=n) for _ in range(2)))))
    def test_mul_matches_entrywise_sum(self, pair):
        left, right = pair
        got = MatPoly(tuple(map(tuple, left))) * MatPoly(tuple(map(tuple, right)))
        n = len(left)
        for i in range(n):
            for j in range(n):
                want = Poly()
                for k in range(n):
                    want = want + left[i][k] * right[k][j]
                entry = got.entry(i, j)
                assert entry == want
                assert all(type(c) is F for c in entry.coeffs)
