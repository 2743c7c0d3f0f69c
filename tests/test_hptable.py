import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hplax import hptable, kernel, measures
from hplax.bvp import cross_validate, field_from_moments
from hplax.errors import (HplaxError, IntegrityError, NotNormalError, TruncationError,
                          WindowError)
from hplax.hptable import HPTable
from hplax.kernel import LaurentTail, Poly, SharedPrefix, X, det_exact
from hplax.lax3 import NormalizationGrid, normalization_grid
from hplax.measures import MeasureModel, MomentSystem, make_angelesco, make_nikishin
from hplax.nnrr import field_from_table


@pytest.fixture(scope="module")
def table_a(system_a):
    return HPTable(system_a, 8, 8)


@pytest.fixture(scope="module")
def table_nik(nikishin_system):
    return HPTable(nikishin_system, 7, 7)


@pytest.fixture(scope="module")
def table_dup(dup_system):
    return HPTable(dup_system, 4, 4)


class TestSDet:
    def test_empty_convention(self, table_a):
        assert table_a.s_det(0, 0) == 1

    def test_system_a_11(self, table_a):
        assert table_a.s_det(1, 1) == 3

    def test_system_a_21(self, table_a):
        # frozen from cofactor expansion of the 3x3 mixed block
        assert table_a.s_det(2, 1) == F(3, 4)

    def test_duplicated_columns_vanish(self, table_dup):
        assert table_dup.s_det(1, 1) == 0

    def test_truncation_guard(self, system_a):
        small = HPTable(system_a, 30, 30)
        with pytest.raises(TruncationError):
            small.s_det(20, 20)

    def test_window_guard(self, table_a):
        with pytest.raises(WindowError):
            table_a.s_det(9, 0)

    def test_a_bad_window_is_refused_at_construction(self, system_a, bad_window):
        with pytest.raises(WindowError, match="nonnegative ints"):
            HPTable(system_a, *bad_window)

    def test_normalizations_refuse_a_bad_window(self, table_a, bad_window):
        with pytest.raises(WindowError, match="nonnegative ints"):
            normalization_grid(table_a, *bad_window)


class TestIsNormal:
    def test_system_a(self, table_a):
        assert table_a.is_normal(2, 2)

    def test_duplicated(self, table_dup):
        assert not table_dup.is_normal(1, 1)

    def test_origin_always_normal(self, table_dup):
        assert table_dup.is_normal(0, 0)


class TestPolyRoutes:
    def test_origin(self, table_a):
        assert table_a.hp_poly_det(0, 0) == Poly.of(1)
        assert table_a.hp_poly_solve(0, 0) == Poly.of(1)

    def test_10(self, table_a):
        assert table_a.hp_poly_det(1, 0) == X + Poly.of(F(3, 2))

    def test_11(self, table_a):
        assert table_a.hp_poly_det(1, 1) == X * X - Poly.of(F(7, 3))
        assert table_a.hp_poly_solve(1, 1) == X * X - Poly.of(F(7, 3))

    def test_01_single_orthogonality(self, table_a, system_a):
        want = X - Poly.of(system_a.s2[1] / system_a.s2[0])
        assert table_a.hp_poly_solve(0, 1) == want

    def test_not_normal_raises(self, table_dup):
        with pytest.raises(NotNormalError) as info:
            table_dup.hp_poly_det(1, 1)
        assert info.value.index == (1, 1)
        with pytest.raises(NotNormalError):
            table_dup.hp_poly_solve(1, 1)

    @pytest.mark.parametrize("window", [(5, 5)])
    def test_routes_agree_everywhere(self, table_a, table_nik, window):
        for table in (table_a, table_nik):
            for n in range(window[0] + 1):
                for m in range(window[1] + 1):
                    if not table.is_normal(n, m):
                        continue
                    p = table.hp_poly_det(n, m)
                    assert p == table.hp_poly_solve(n, m)
                    assert p.degree == n + m and p.is_monic


def assert_routes_agree(table):
    for n in range(table.max_n + 1):
        for m in range(table.max_m + 1):
            if table.is_normal(n, m):
                assert table.hp_poly_det(n, m) == table.hp_poly_solve(n, m), (n, m)
                continue
            for route in (table.hp_poly_det, table.hp_poly_solve):
                with pytest.raises(NotNormalError):
                    route(n, m)


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


class TestRoutesOnRandomSystems:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(small_rationals, min_size=4, max_size=4, unique=True))
    def test_angelesco_interval_pairs(self, ends):
        lo1, hi1, lo2, hi2 = sorted(ends)
        system = make_angelesco(MeasureModel.interval(lo1, hi1),
                                MeasureModel.interval(lo2, hi2), 14)
        assert_routes_agree(HPTable(system, 3, 3))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True),
           st.lists(st.integers(-9, -1), min_size=1, max_size=4, unique=True),
           st.lists(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4),
                    min_size=10, max_size=10))
    def test_nikishin_atom_sets(self, nodes1, nodes2, weights):
        sigma1 = MeasureModel.discrete(list(zip(nodes1, weights)))
        sigma2 = MeasureModel.discrete(list(zip(nodes2, weights[6:])))
        assert_routes_agree(HPTable(make_nikishin(sigma1, sigma2, 14), 3, 3))


def expected_entry(system, n, m):
    """S(n, m) and P(n, m), each a value or the error type it must raise:
    a plain determinant of the index's grid, and the orthogonality solve."""
    count = system.count
    if max(2 * n + m - 1, n + 2 * m - 1) > count:
        return TruncationError, TruncationError
    s = det_exact([[system.s1[i + j] for j in range(n)]
                   + [system.s2[i + j] for j in range(m)] for i in range(n + m)])
    if s == 0:
        return s, NotNormalError
    if max(2 * n + m, n + 2 * m) > count:
        return s, TruncationError
    return s, HPTable(system, n, m).hp_poly_solve(n, m)


def read_or_error(read, n, m):
    try:
        return read(n, m)
    except (NotNormalError, TruncationError) as exc:
        if isinstance(exc, NotNormalError):
            assert exc.index == (n, m)
        return type(exc)


def check_table_reads(system, order, rng, window=(4, 4)):
    """Read S and P of a fresh table of the window in the given index order,
    sometimes P first; every value and every raised error must match
    expected_entry.  Every P pairs to zero with its orthogonality shifts,
    and h1, h2 equal the plain sums or raise past the last moment."""
    N, M = window
    indices = [(n, m) for n in range(N + 1) for m in range(M + 1)]
    if order == "columns":
        indices.sort(key=lambda nm: (nm[1], nm[0]))
    elif order == "shuffled":
        rng.shuffle(indices)
    table = HPTable(system, N, M)
    for n, m in indices:
        reads = [table.s_det, table.hp_poly_det]
        if rng.random() < 0.5:
            reads.reverse()
        got = {read: read_or_error(read, n, m) for read in reads}
        want_s, want_p = expected_entry(system, n, m)
        assert got[table.s_det] == want_s, (n, m)
        assert got[table.hp_poly_det] == want_p, (n, m)
        if not isinstance(want_p, Poly):
            continue
        r1, r2 = table.orthogonality_residuals(n, m)
        assert r1 == [0] * n and r2 == [0] * m
        for which, seq, shift in ((1, system.s1, n), (2, system.s2, m)):   # h1, h2
            if shift + n + m >= system.count:
                with pytest.raises(TruncationError):
                    table.pairing(which, n, m, shift)
                continue
            assert table.pairing(which, n, m, shift) == sum(
                c * seq[shift + i] for i, c in enumerate(want_p.coeffs))


small_ints = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
read_orders = st.sampled_from(["rows", "columns", "shuffled"])


class TestTableReadsOnRandomSystems:
    """Every read of the column eliminations against det_exact of the grid
    and the orthogonality solve, in row-major, column-major and shuffled
    order, with moment counts that cut the window short."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(small_rationals, min_size=4, max_size=4, unique=True),
           st.integers(4, 14), read_orders, st.randoms(use_true_random=False))
    def test_angelesco(self, ends, count, order, rng):
        lo1, hi1, lo2, hi2 = sorted(ends)
        system = make_angelesco(MeasureModel.interval(lo1, hi1),
                                MeasureModel.interval(lo2, hi2), count)
        check_table_reads(system, order, rng)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True),
           st.lists(st.integers(-9, -1), min_size=1, max_size=4, unique=True),
           st.integers(4, 14), read_orders, st.randoms(use_true_random=False))
    def test_nikishin(self, nodes1, nodes2, count, order, rng):
        sigma1 = MeasureModel.discrete([(x, 1) for x in nodes1])
        sigma2 = MeasureModel.discrete([(x, 2) for x in nodes2])
        check_table_reads(make_nikishin(sigma1, sigma2, count), order, rng)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 14).flatmap(lambda k: st.tuples(
               st.lists(small_ints, min_size=k, max_size=k),
               st.lists(small_ints, min_size=k, max_size=k))),
           st.booleans(), read_orders, st.randoms(use_true_random=False))
    def test_small_integers_with_zero_minors(self, sequences, duplicated, order, rng):
        s1, s2 = sequences
        system = MomentSystem(s1, s1 if duplicated else s2)
        check_table_reads(system, order, rng)


@st.composite
def windowed_small_integer_systems(draw):
    """A window up to (6, 6) and zero-laden small-integer sequences, from
    half the bordered depth of its far corner to a little more than it."""
    N, M = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    count = draw(st.integers(N + M, 2 * (N + M) + 2))
    s1, s2 = (draw(st.lists(small_ints, min_size=count, max_size=count))
              for _ in range(2))
    return (N, M), s1, s2


# S(0, 1) = 1, S(0, 2) = 0 and S(0, 3) = -1: the shared prefix stops at its
# zero pivot of step 1, so column 2 forks after one step
PINNED_S1 = [1, 0, 2, -1, 1, 0, 3, 1, -3, 2, 0, 1, 1]
PINNED_S2 = [1, 1, 1, 2, 3, -1, 0, 2, 1, 0, -3, 1, 2]


class TestTableReadsWithForks:
    """The reads of TestTableReadsOnRandomSystems on windows up to (6, 6) of
    zero-laden systems, whose zero pivots stop the shared prefix and make
    the column eliminations exchange rows before, at and after the steps
    they take over."""

    @settings(max_examples=60, deadline=None)
    @given(windowed_small_integer_systems(), read_orders,
           st.randoms(use_true_random=False))
    @example(((3, 3), PINNED_S1, PINNED_S2), "shuffled", random.Random(5))
    def test_small_integers_up_to_six(self, case, order, rng):
        window, s1, s2 = case
        check_table_reads(MomentSystem(s1, s2), order, rng, window)

    @pytest.mark.parametrize("order", ["rows", "columns", "shuffled"])
    def test_pinned_system_forks_column_two_below_it(self, monkeypatch, order):
        forks = []
        original = SharedPrefix.fork

        def recording(self, k, tail, width):
            fork = original(self, k, tail, width)
            forks.append((k, fork.inherited))
            return fork

        monkeypatch.setattr(SharedPrefix, "fork", recording)
        check_table_reads(MomentSystem(PINNED_S1, PINNED_S2), order,
                          random.Random(5), (3, 3))
        assert (2, 1) in forks
        assert all(j <= k for k, j in forks)

    def test_pinned_system_prefix_stops_at_its_first_zero_pivot(self):
        # every column of the full (3, 3) table has been read; an elimination
        # that exchanged rows at the zero pivot would take further steps
        table = HPTable(MomentSystem(PINNED_S1, PINNED_S2), 3, 3)
        for n in range(4):
            for m in range(4):
                table.s_det(n, m)
                if table.is_normal(n, m):
                    table.hp_poly_det(n, m)
        assert len(table._shared._pivots) == 1


def subleading_coefficient(table, n, m):
    """The coefficient of x^(n+m-1) in hp_poly_det(n, m), 0 at the origin,
    or the type of the error it raises with its index."""
    p = outcome(lambda table: table.hp_poly_det(n, m), table)
    if not isinstance(p, Poly):
        return p
    return p.coeffs[n + m - 1] if n + m else F(0)


class TestSubleadingMemo:
    """The memoised subleading pair against the subleading coefficient of
    P(n, m) on a fresh table: the same value, the same error at the same
    index at a non-normal index or past a cut document's depth, and a
    second read that answers from the memo."""

    @settings(max_examples=40, deadline=None)
    @given(windowed_small_integer_systems(), st.randoms(use_true_random=False))
    @example(((3, 3), PINNED_S1, PINNED_S2), random.Random(5))
    def test_reads_as_the_polynomial(self, case, rng):
        (N, M), s1, s2 = case
        system = MomentSystem(s1, s2)
        table = HPTable(system, N, M)
        indices = [(n, m) for n in range(N + 1) for m in range(M + 1)]
        rng.shuffle(indices)
        for n, m in indices:
            want = subleading_coefficient(HPTable(system, N, M), n, m)
            first = outcome(lambda table: table.subleading(n, m), table)
            if isinstance(want, F):
                assert F(*first) == want, (n, m)
                assert table.subleading(n, m) is first, (n, m)
            else:
                assert first == want, (n, m)
                assert outcome(lambda table: table.subleading(n, m), table) == want


@st.composite
def planted_content_systems(draw):
    """A window up to (4, 4) and a system whose cleared Hankel block has
    common factors in its lines: Angelesco moments on half-integer
    endpoints, or small-integer sequences times lambda_j^k / q_j (rational
    lambda_j), each with a moment count that may cut the window short.
    The small integers are zero-laden, and s2 may repeat s1, which leaves
    nothing past the trivial indices normal (as ``dup_system``)."""
    N, M = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    count = draw(st.integers(N + M, 2 * (N + M) + 2))
    if draw(st.booleans()):
        ends = draw(st.lists(st.integers(-8, 8), min_size=4, max_size=4, unique=True))
        lo1, hi1, lo2, hi2 = (F(x, 2) for x in sorted(ends))
        return (N, M), make_angelesco(MeasureModel.interval(lo1, hi1),
                                      MeasureModel.interval(lo2, hi2), count)
    scales = st.sampled_from([F(1), F(2), F(-3), F(6), F(1, 2), F(3, 2), F(-2, 9)])
    seqs = []
    for _ in range(2):
        base = draw(st.lists(st.sampled_from([0, 1, -1, 2, 3, 5]),
                             min_size=count, max_size=count))
        lam, q = draw(scales), draw(scales)
        seqs.append([x * lam ** k / q for k, x in enumerate(base)])
    if draw(st.booleans()):
        seqs[1] = seqs[0]
    return (N, M), MomentSystem(*seqs)


class TestContentReducedBlock:
    """The table eliminates its Hankel block with each column and row
    divided by its content and scales K, P and the subleading pair back;
    every read must still meet its oracle: S against det_exact, P against
    the orthogonality solve, the subleading pair against P's coefficient,
    each error against the oracle's at the same index."""

    @settings(max_examples=300, deadline=None)
    @given(planted_content_systems())
    @example(((3, 3), MomentSystem([F(1, k + 1) for k in range(14)],
                                   [F(1, k + 1) for k in range(14)])))
    @example(((4, 4), make_angelesco(MeasureModel.interval(F(-5, 2), F(-2)),
                                     MeasureModel.interval(F(3, 2), F(3)), 20)))
    def test_reads_meet_the_oracles(self, case):
        (N, M), system = case
        table = HPTable(system, N, M)
        for n in range(N + 1):
            for m in range(M + 1):
                want_s, want_p = expected_entry(system, n, m)
                assert read_or_error(table.s_det, n, m) == want_s, (n, m)
                assert read_or_error(table.hp_poly_det, n, m) == want_p, (n, m)
                sub = read_or_error(lambda n, m: F(*table.subleading(n, m)), n, m)
                if not isinstance(want_p, Poly):
                    assert sub == want_p, (n, m)
                    continue
                assert sub == (want_p.coeff(n + m - 1) if n + m else 0), (n, m)
                assert table.orthogonality_residuals(n, m) == ([0] * n, [0] * m)

    def test_angelesco_block_is_narrower_than_its_minor(self):
        # the p90 block of the field-ladder benchmark: table Angelesco (8, 8);
        # 793 bits in every column elimination when the rows were the
        # D_j-cleared moments, 316 on the content-reduced block
        system = make_angelesco(MeasureModel.interval(F(-5, 2), F(-2)),
                                MeasureModel.interval(F(3, 2), F(3)), 36)
        table = HPTable(system, 8, 8)
        for n in range(9):
            for m in range(9):
                table.null_vector(n, m)
        held = max(abs(x).bit_length() for column in table._columns.values()
                   for row in column._rows for x in row)
        assert held <= 0.6 * abs(table.minor(8, 8)).bit_length()

    def test_nikishin_contents_are_one(self, table_nik):
        # integer atoms: every line of the cleared block has content 1, so
        # the scale-back multiplies by 1 and the null vectors are unscaled
        for prods in (table_nik._rho1, table_nik._rho2, table_nik._gamma_prod):
            assert all(x.bit_length() == 1 for x in prods)

    def test_a_read_past_the_block_raises(self, system_a):
        # the block holds s2 shifts 0..2 and s1 shifts 0..3: seven rows
        table = HPTable(system_a, 4, 3)
        assert len(table._shared._read(6)) == 8
        with pytest.raises(IndexError):
            table._shared._read(7)


class TestIndexType:
    """An index that is not an int, a bool included, is a WindowError on a
    fresh table and on one whose memo holds the equal int index."""

    @pytest.mark.parametrize("read", [
        lambda table: table.minor(True, 1),
        lambda table: table.s_det(1.0, 1),
        lambda table: table.hp_poly_det(0.0, 0),
        lambda table: table.pairing(1, 1, 1, 0.5),
        lambda table: table.subleading(1, False),
        lambda table: table.null_vector("1", 1),
        lambda table: table.hp_poly_solve(1, True),
        lambda table: table.hp_remainder(LaurentTail(table.moments.s1),
                                         LaurentTail(table.moments.s2), "1", 0),
    ], ids=["minor-bool", "s_det-float", "hp_poly_det-float", "pairing-float-shift",
            "subleading-bool", "null_vector-str", "hp_poly_solve-bool", "hp_remainder-str"])
    def test_refused(self, system_a, read):
        table = HPTable(system_a, 3, 3)
        with pytest.raises(WindowError, match="int"):
            read(table)
        for n in range(4):
            for m in range(4):
                table.subleading(n, m)
                table.null_vector(n, m)
                table.pairing(1, n, m, 0)
        with pytest.raises(WindowError, match="int"):
            read(table)

    def test_pairing_refuses_a_bool_sequence(self, system_a):
        with pytest.raises(WindowError, match="which"):
            HPTable(system_a, 3, 3).pairing(True, 1, 1, 0)


@st.composite
def normalization_systems(draw):
    """A window (N, M) up to (4, 4) with N >= 1, so that h2 meets an odd n,
    and an Angelesco, Nikishin or zero-laden small-integer system holding
    the max(2N + M, N + 2M) + 1 moments that h1(N, M) and h2(N, M) read,
    or up to two fewer."""
    N, M = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    count = max(2 * N + M, N + 2 * M) + 1 - draw(st.sampled_from([0, 0, 0, 1, 2]))
    kind = draw(st.sampled_from(["angelesco", "nikishin", "integers"]))
    if kind == "angelesco":
        lo1, hi1, lo2, hi2 = sorted(draw(st.lists(small_rationals, min_size=4,
                                                  max_size=4, unique=True)))
        system = make_angelesco(MeasureModel.interval(lo1, hi1),
                                MeasureModel.interval(lo2, hi2), count)
    elif kind == "nikishin":
        nodes1 = draw(st.lists(st.integers(1, 9), min_size=1, max_size=9, unique=True))
        nodes2 = draw(st.lists(st.integers(-9, -1), min_size=1, max_size=5, unique=True))
        system = make_nikishin(MeasureModel.discrete([(x, 1) for x in nodes1]),
                               MeasureModel.discrete([(x, F(1, 2)) for x in nodes2]),
                               count)
    else:
        system = MomentSystem(*(draw(st.lists(small_ints, min_size=count,
                                              max_size=count)) for _ in range(2)))
    return (N, M), system


def normalizations_by_determinants(table, N, M):
    """h1(n, m) = (-1)^m S(n+1, m) / S(n, m) and h2(n, m) = S(n, m+1) / S(n, m)
    over the (N+1) x (M+1) window, from ``s_det``, index by index as
    ``normalization_grid`` reads them, with its errors."""
    h1, h2 = {}, {}
    for n in range(N + 1):
        for m in range(M + 1):
            s = table.s_det(n, m)
            if s == 0:
                raise NotNormalError(n, m)
            h1[(n, m)] = (-1) ** m * table.s_det(n + 1, m) / s
            h2[(n, m)] = table.s_det(n, m + 1) / s
            if h1[(n, m)] == 0 or h2[(n, m)] == 0:
                raise IntegrityError(f"normalizing pairing vanishes at ({n}, {m})")
    return NormalizationGrid(h1, h2, (N, M))


class TestNormalizations:
    """The pairings of ``lax3.normalization_grid`` against the ratios of
    determinants they equal, on an (N + 1, M + 1) table: the same h1 and h2,
    including the sign (-1)^m of h1, or the same error at the same index."""

    @settings(max_examples=80, deadline=None)
    @given(normalization_systems())
    @example(((1, 1), make_angelesco(MeasureModel.interval(-2, -1),
                                     MeasureModel.interval(1, 2), 4)))
    def test_minors_meet_the_pairings(self, case):
        (N, M), system = case
        got = outcome(lambda table: vars(normalization_grid(table, N, M)),
                      HPTable(system, N + 1, M + 1))
        want = outcome(lambda table: vars(normalizations_by_determinants(table, N, M)),
                       HPTable(system, N + 1, M + 1))
        assert got == want

    def test_zero_normalization_raises(self):
        # S(1, 0) = s1[0] = 0 makes h1(0, 0) vanish at the normal origin
        system = MomentSystem((0, 1, 1, 2, 1), (1, 2, 1, 3, 1))
        with pytest.raises(IntegrityError, match=r"vanishes at normal index \(0, 0\)"):
            normalization_grid(HPTable(system, 2, 2), 1, 1)


def record_orders(monkeypatch, name, order):
    """Orders of the grids kernel.<name> is asked for, through any binding."""
    orders = []
    original = getattr(kernel, name)

    def counting(rows):
        orders.append(order(rows))
        return original(rows)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("hplax") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return orders


@pytest.fixture()
def det_exact_orders(monkeypatch):
    return record_orders(monkeypatch, "det_exact", len)


def outcome(read, table):
    """read(table), or the type of the error it raises with its index, if any."""
    try:
        return read(table)
    except HplaxError as exc:
        return type(exc), getattr(exc, "index", None)


@st.composite
def cut_documents(draw):
    """A window up to (6, 6), a long Angelesco or zero-laden small-integer
    system, and a moment count from the plain depth of the window's far
    corner to the full need of its reads."""
    N, M = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    need = max(2 * N + M, N + 2 * M) + 1
    if draw(st.booleans()):
        lo1, hi1, lo2, hi2 = sorted(draw(st.lists(small_rationals, min_size=4,
                                                  max_size=4, unique=True)))
        long = make_angelesco(MeasureModel.interval(lo1, hi1),
                              MeasureModel.interval(lo2, hi2), need + 3)
    else:
        long = MomentSystem(*(draw(st.lists(small_ints, min_size=need + 3,
                                            max_size=need + 3)) for _ in range(2)))
    return (N, M), long, draw(st.integers(need - 2, need))


class CountingList(list):
    """A list that counts the entries its slices hand out."""

    read = 0

    def __getitem__(self, key):
        entries = super().__getitem__(key)
        if isinstance(key, slice):
            self.read += len(entries)
        return entries


def angelesco_31(count):
    return make_angelesco(MeasureModel.interval(-3, -1),
                          MeasureModel.interval(1, 2), count)


class TestWorkCount:
    def test_field_takes_no_plain_determinant(self, system_a, det_exact_orders):
        field_from_table(HPTable(system_a, 6, 6), 5, 5)
        assert det_exact_orders == []

    def test_bordered_solve_only_past_a_zero_pivot(self, dup_system,
                                                    det_exact_orders):
        # column m eliminates the rows [s2 shifts 0..m-1, s1 shifts 0..n-1],
        # whose leading minors are S(0, 1..m) and then S(0..n, m); an index
        # past a zero one is read through a row exchange, with no plain
        # determinant
        N, M = 4, 4
        table = HPTable(dup_system, N, M)
        reads = {(n, m): (read_or_error(table.s_det, n, m),
                          read_or_error(table.hp_poly_det, n, m))
                 for n in range(N + 1) for m in range(M + 1)}
        assert det_exact_orders == []
        expected = {key: expected_entry(dup_system, *key) for key in reads}
        zero = {key for key, (s, _) in expected.items() if s == 0}
        past = {(n, m) for n, m in reads
                if any((k, m) in zero for k in range(n))
                or any((0, k) in zero for k in range(1, m))}
        assert past     # the duplicated system has zero pivots
        for key, read in reads.items():
            assert read == expected[key], key

    @settings(max_examples=40, deadline=None)
    @given(cut_documents(), st.randoms(use_true_random=False))
    @example(((4, 4), make_angelesco(MeasureModel.interval(-2, -1),
                                     MeasureModel.interval(1, 2), 39), 13),
             random.Random(0))
    def test_longer_document_gives_the_same_table(self, case, rng):
        # an (N, M) window and its h1, h2 pairings read max(2N + M, N + 2M) + 1
        # moments of each sequence, (4, 4) 13; the rows past a cut
        # document's last moment are zeros, which no read that passes its
        # depth check sees: each read gives the long document's value or
        # error, or raises TruncationError where the cut is below its depth.
        # Each subleading pair is read twice, the second time from the memo
        (N, M), long, count = case
        short = MomentSystem(long.s1[:count], long.s2[:count])
        tables = HPTable(long, N, M), HPTable(short, N, M)
        reads = [(max(2 * N + M, N + 2 * M) + 1,      # every h1 and h2
                  lambda table: vars(normalization_grid(table, N, M)))]
        for n in range(N + 1):
            for m in range(M + 1):
                bordered = max(2 * n + m, n + 2 * m)
                reads += [
                    (bordered - 1, lambda table, n=n, m=m: table.s_det(n, m)),
                    (bordered, lambda table, n=n, m=m: table.hp_poly_det(n, m)),
                    (bordered, lambda table, n=n, m=m: F(*table.subleading(n, m))),
                    (bordered, lambda table, n=n, m=m: F(*table.subleading(n, m))),
                    (bordered, lambda table, n=n, m=m: table.orthogonality_residuals(n, m))]
                reads += [(max(bordered, t + n + m + 1),
                           lambda table, n=n, m=m, which=which, t=t: table.pairing(which, n, m, t))
                          for which in (1, 2) for t in range(max(n, m) + 2)]
        rng.shuffle(reads)
        for need, read in reads:
            want, got = (outcome(read, table) for table in tables)
            assert got == want or got == (TruncationError, None) and count < need

    def test_plain_determinant_only_below_bordered_depth(self, system_a,
                                                         det_exact_orders):
        # 9 moments reach the plain depth of S but not the bordered depth of
        # P at part of a (5, 5) window: there S reads and P must raise
        count = 9
        system = MomentSystem(system_a.s1[:count], system_a.s2[:count])
        table = HPTable(system, 5, 5)
        reads = {(n, m): (read_or_error(table.s_det, n, m),
                          read_or_error(table.hp_poly_det, n, m))
                 for n in range(6) for m in range(6)}
        assert det_exact_orders == []
        shallow = [key for key, (s, p) in reads.items()
                   if s is not TruncationError and p is TruncationError]
        assert shallow
        for key, read in reads.items():
            assert read == expected_entry(system, *key), key

    def test_table_reads_each_s2_entry_once(self, monkeypatch):
        # the s2 rows 0..7 to column 16, the width of P(8, 8): 8 * 17 = 136;
        # 528 when every column eliminated its own s2 rows
        cleared = []

        def counting(values):
            ints, scale = kernel.cleared(values)
            cleared.append(CountingList(ints))
            return cleared[-1], scale

        monkeypatch.setattr(hptable, "cleared", counting)
        table = HPTable(angelesco_31(36), 8, 8)
        for n in range(9):
            for m in range(9):
                table.s_det(n, m)
                table.hp_poly_det(n, m)
        assert cleared[1].read == 136

    @pytest.mark.parametrize("run, before", [
        (lambda: cross_validate(angelesco_31(28), 6, 6), 912),
        (lambda: field_from_moments(angelesco_31(24), 5, 5), 156)])
    def test_row_entries_read_no_more_than_before(self, monkeypatch, run, before):
        # before: each row read once, at its elimination's width; 1,288 and
        # 634 when each column eliminated its own s2 rows and s1 rows.  The
        # entries are counted where the moment rows are built.
        read = []
        original = measures.hankel_row

        def counting(ints, start, width):
            entries = original(ints, start, width)
            read.append(len(entries))
            return entries

        for module in (measures, hptable):
            monkeypatch.setattr(module, "hankel_row", counting)
        run()
        assert sum(read) <= before


class TestRemainder:
    def test_origin_vacuous(self, table_a, system_a):
        f1 = LaurentTail(system_a.s1)
        f2 = LaurentTail(system_a.s2)
        _, q1, q2, r1, _ = table_a.hp_remainder(f1, f2, 0, 0)
        assert q1.is_zero and q2.is_zero
        assert r1.coeffs == f1.coeffs

    def test_10_leading_r1(self, table_a, system_a):
        f1 = LaurentTail(system_a.s1)
        f2 = LaurentTail(system_a.s2)
        _, _, _, r1, _ = table_a.hp_remainder(f1, f2, 1, 0)
        assert r1.coeff(0) == 0
        assert r1.coeff(1) == F(1, 12)

    def test_11_order_condition(self, table_a, system_a):
        f1 = LaurentTail(system_a.s1)
        f2 = LaurentTail(system_a.s2)
        _, _, _, r1, r2 = table_a.hp_remainder(f1, f2, 1, 1)
        assert r2.coeff(0) == 0
        assert r1.coeff(0) == 0

    def test_order_condition_window(self, table_a, system_a):
        f1 = LaurentTail(system_a.s1)
        f2 = LaurentTail(system_a.s2)
        for n in range(4):
            for m in range(4):
                p, _, _, r1, r2 = table_a.hp_remainder(f1, f2, n, m)
                assert all(r1.coeff(t) == 0 for t in range(n))
                assert all(r2.coeff(t) == 0 for t in range(m))
                # defining identity: f_j * P - Q_j = R_j
                assert p == table_a.hp_poly_det(n, m)

    def test_truncation_pre(self, table_a):
        f_short = LaurentTail([1, 1, 1])
        with pytest.raises(TruncationError):
            table_a.hp_remainder(f_short, f_short, 2, 2)


class TestOrthogonality:
    def test_11(self, table_a):
        assert table_a.orthogonality_residuals(1, 1) == ([0], [0])

    def test_origin_empty(self, table_a):
        assert table_a.orthogonality_residuals(0, 0) == ([], [])

    def test_21(self, table_a):
        assert table_a.orthogonality_residuals(2, 1) == ([0, 0], [0])

    def test_reading_past_the_window_prefix_raises(self, system_a):
        # a (2, 2) table clears s1[:7]; x^10 P(0, 0) reads s1[10] of 30
        with pytest.raises(WindowError):
            HPTable(system_a, 2, 2).pairing(1, 0, 0, 10)

    def test_window_all_zero(self, table_a, table_nik):
        for table in (table_a, table_nik):
            for n in range(5):
                for m in range(5):
                    r1, r2 = table.orthogonality_residuals(n, m)
                    assert all(v == 0 for v in r1 + r2)


class TestPairingArguments:
    """A negative shift or a sequence other than 1 or 2 raises WindowError
    before the table reads anything, even at an index outside its window."""

    @pytest.fixture()
    def table(self):
        system = make_angelesco(MeasureModel.interval(-2, -1),
                                MeasureModel.interval(1, 2), 20)
        return HPTable(system, 3, 3)

    @pytest.mark.parametrize("shift", [-1, -5])
    def test_negative_shift(self, table, shift):
        for which in (1, 2):
            for n, m in ((1, 1), (9, 9)):
                with pytest.raises(WindowError, match="shift"):
                    table.pairing(which, n, m, shift)

    @pytest.mark.parametrize("which", [0, 3, -1, "1"])
    def test_invalid_sequence(self, table, which):
        for n, m in ((1, 1), (9, 9)):
            with pytest.raises(WindowError, match="which"):
                table.pairing(which, n, m, 1)

    def test_valid_arguments_still_pair(self, table):
        # the same calls with a valid shift and sequence: L_1[x P(1, 1)]
        p = table.hp_poly_det(1, 1)
        s1 = table.moments.s1
        assert table.pairing(1, 1, 1, 1) == sum(c * s1[1 + i] for i, c in enumerate(p.coeffs))
        assert table.pairing(1, 1, 1, 0) == 0


def count_sign_changes(p: Poly, lo: F, hi: F, grid: int = 64) -> int:
    signs = []
    for i in range(grid + 1):
        t = lo + (hi - lo) * i / grid
        v = p.evaluate(t)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for i in range(1, len(signs)) if signs[i] != signs[i - 1])


class TestZeroLocalization:
    def test_angelesco_zeros_split_between_intervals(self, table_a):
        for n in range(4):
            for m in range(4):
                p = table_a.hp_poly_det(n, m)
                assert count_sign_changes(p, F(-2), F(-1)) >= n
                assert count_sign_changes(p, F(1), F(2)) >= m
