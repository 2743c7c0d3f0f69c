import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hplax import bvp, kernel, measures
from hplax.bvp import (BoundaryData, SweepReport, boundary_from_field,
                       boundary_from_moments, boundary_from_table, cd_by_summation,
                       cross_validate, field_from_moments, sweep_solve)
from hplax.errors import (DegeneracyError, HplaxError, IntegrityError,
                          NonPerfectBoundaryError, NotNormalError, ParseError,
                          TruncationError, WindowError)
from hplax.hptable import HPTable
from hplax.measures import (JFraction, MeasureModel, MomentSystem,
                            jfraction_to_moments, make_angelesco, make_nikishin,
                            moments_to_jfraction)
from hplax.nnrr import KINDS, consistency_residuals, field_from_table


@pytest.fixture(scope="module")
def reference_field(system_a):
    # window wide enough to read boundary rows for a (4, 4) sweep
    table = HPTable(system_a, 10, 10)
    return field_from_table(table, 9, 9)


@pytest.fixture(scope="module")
def boundary_a(reference_field):
    return boundary_from_field(reference_field, 8)


class TestBoundaryData:
    def test_zero_subdiagonal_rejected(self):
        with pytest.raises(DegeneracyError):
            BoundaryData((F(0),), (F(0),), (F(0),), (F(1),))

    def test_max_level(self, boundary_a):
        assert boundary_a.max_level == 8

    def test_entries_coerced_once(self):
        # a Fraction entry is kept as it is; ints and "p/q" strings convert
        third = F(1, 3)
        data = BoundaryData((third, 2, "-3/4"), ("5/2", 1), (0, third), (-1, "7"))
        assert data.c_row[0] is third and data.d_col[1] is third
        assert data.c_row == (F(1, 3), F(2), F(-3, 4))
        assert data.a_row == (F(5, 2), F(1))
        assert data.b_col == (F(-1), F(7))
        assert all(type(x) is F for row in (data.c_row, data.a_row, data.d_col,
                                            data.b_col) for x in row)

    @pytest.mark.parametrize("bad", ["12", b"12", bytearray(b"12"), 12], ids=repr)
    def test_a_row_that_is_not_a_sequence_is_a_parse_error(self, bad):
        # "12" would read as the row (1, 2)
        rows = [(1, 2), (3,), (4, 5), (6,)]
        for i, name in enumerate(("c_row", "a_row", "d_col", "b_col")):
            with pytest.raises(ParseError, match=f"boundary row {name} must be a sequence"):
                BoundaryData(*rows[:i], bad, *rows[i + 1:])
        with pytest.raises(ParseError):
            BoundaryData("12", "3", "45", "6")

    @pytest.mark.parametrize("zero", [0, "0", F(0), "0/5"])
    def test_zero_in_either_subdiagonal_rejected(self, zero):
        with pytest.raises(DegeneracyError):
            BoundaryData((1, 2), (zero,), (1, 2), (1,))
        with pytest.raises(DegeneracyError):
            BoundaryData((1, 2), (1,), (1, 2), (zero,))

    @pytest.mark.parametrize("reader", ["field", "moments", "table"])
    @pytest.mark.parametrize("levels", [-1, 1.5, 2.0, True, "2"], ids=repr)
    def test_bad_levels_are_refused(self, system_a, reference_field, reader, levels):
        # refused where levels enters: -1 read an empty boundary, 1.5 raised
        # a bare TypeError
        read, source = {"field": (boundary_from_field, reference_field),
                        "moments": (boundary_from_moments, system_a),
                        "table": (boundary_from_table, HPTable(system_a, 3, 3))}[reader]
        with pytest.raises(WindowError, match="boundary levels must be"):
            read(source, levels)

    def test_matches_jfraction_of_the_measures(self, system_a, reference_field):
        # the axis rows of the lattice field are exactly the continued
        # fraction data of the two moment sequences
        j1 = moments_to_jfraction(list(system_a.s1), 5)
        j2 = moments_to_jfraction(list(system_a.s2), 5)
        for n in range(5):
            assert reference_field.c(n, 0) == j1.c[n]
            assert reference_field.d(0, n) == j2.c[n]
        for n in range(1, 5):
            assert reference_field.a(n, 0) == j1.a[n - 1]
            assert reference_field.b(0, n) == j2.a[n - 1]


@st.composite
def sweep_boundaries(draw):
    """A level lam up to 10, a split (N, M) of it, boundary rows to level
    lam and their kind: small integers with nonzero a and b, mostly not the
    data of any measure, or the J-fraction data (``boundary_from_moments``)
    of a random Angelesco system on two disjoint intervals or of a random
    discrete Nikishin system with lam + 2 or more atoms in sigma1 and lam + 1
    or more in sigma2."""
    lam = draw(st.integers(0, 10))
    N = draw(st.integers(0, lam))
    kind = draw(st.sampled_from(["integers", "angelesco", "nikishin"]))
    if kind == "integers":
        cd = st.lists(st.integers(-4, 4), min_size=lam + 1, max_size=lam + 1)
        ab = st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=lam, max_size=lam)
        return BoundaryData(draw(cd), draw(ab), draw(cd), draw(ab)), N, lam - N, kind
    if kind == "angelesco":
        ends = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        lo1, hi1, lo2, hi2 = sorted(draw(st.lists(ends, min_size=4, max_size=4,
                                                  unique=True)))
        system = make_angelesco(MeasureModel.interval(lo1, hi1),
                                MeasureModel.interval(lo2, hi2), 2 * lam + 2)
    else:
        weights = st.integers(1, 3)
        nodes1 = draw(st.lists(st.integers(1, 40), min_size=lam + 2,
                               max_size=lam + 4, unique=True))
        nodes2 = draw(st.lists(st.integers(-40, -1), min_size=lam + 1,
                               max_size=lam + 3, unique=True))
        system = make_nikishin(
            MeasureModel.discrete([(x, draw(weights)) for x in nodes1]),
            MeasureModel.discrete([(x, F(draw(weights), 2)) for x in nodes2]),
            2 * lam + 2)
    return boundary_from_moments(system, lam), N, lam - N, kind


class TestSweepSolve:
    def test_reproduces_moment_route(self, boundary_a, reference_field):
        report = sweep_solve(boundary_a, 4, 4)
        assert report.ok
        equal, diff = report.field.same_grids(reference_field)
        assert equal, diff
        assert report.divisions_checked > 0

    def test_degenerate_boundary_fails_at_origin(self, boundary_a):
        bad = BoundaryData(
            c_row=(boundary_a.d_col[0],) + boundary_a.c_row[1:],
            a_row=boundary_a.a_row,
            d_col=boundary_a.d_col,
            b_col=boundary_a.b_col)
        report = sweep_solve(bad, 2, 2)
        assert not report.ok
        index, reason = report.failure
        assert index == (0, 0)
        assert "(c - d)" in reason

    def test_duplicated_measure_boundary_fails(self, system_a):
        # both functions equal: the two continued fractions coincide
        j = moments_to_jfraction(list(system_a.s1), 6)
        dup = BoundaryData(c_row=j.c, a_row=j.a, d_col=j.c, b_col=j.a)
        report = sweep_solve(dup, 2, 2)
        assert not report.ok
        assert report.failure[0] == (0, 0)
        with pytest.raises(NonPerfectBoundaryError) as info:
            report.field_or_raise()
        assert info.value.index == (0, 0)

    def test_field_or_raise_on_success(self, boundary_a, reference_field):
        report = sweep_solve(boundary_a, 2, 2)
        assert report.field_or_raise() is report.field

    def test_partial_field_returned_on_failure(self, boundary_a):
        bad = BoundaryData(
            c_row=boundary_a.c_row,
            a_row=boundary_a.a_row,
            d_col=(boundary_a.c_row[0],) + boundary_a.d_col[1:],
            b_col=boundary_a.b_col)
        report = sweep_solve(bad, 3, 3)
        assert not report.ok
        # level-0 data survive for diagnosis
        assert report.field.c(0, 0) == boundary_a.c_row[0]

    @pytest.mark.parametrize("N, M", [(0, 0), (1, 0), (0, 3), (2, 5), (5, 2),
                                      (3, 3), (7, 4)])
    def test_division_count(self, system_a, N, M):
        # level L holds L + 1 cells and checks 4L - 2 divisions (a and b
        # off both axes, c off the n-axis, d off the m-axis): 2 (N + M)^2
        lam = N + M
        j1 = moments_to_jfraction(list(system_a.s1), lam + 1)
        j2 = moments_to_jfraction(list(system_a.s2), lam + 1)
        boundary = BoundaryData(c_row=j1.c, a_row=j1.a, d_col=j2.c, b_col=j2.a)
        report = sweep_solve(boundary, N, M)
        assert report.ok
        assert report.divisions_checked == 2 * lam ** 2

    def test_planted_zero_gap_stops_at_its_index(self, boundary_a, reference_field):
        # d(0, k) := c(0, k) makes the gap at (0, k) vanish.  Levels up to k
        # are filled exactly as in the reference field (but for the planted
        # d); level k + 1 gets its a and b, then c(0, k + 1) divides by the
        # gap: 2k^2 divisions for the complete levels, 2k in phase 1, one more.
        k = 3
        planted = reference_field.c(0, k)
        bad = BoundaryData(
            c_row=boundary_a.c_row,
            a_row=boundary_a.a_row,
            d_col=boundary_a.d_col[:k] + (planted,) + boundary_a.d_col[k + 1:],
            b_col=boundary_a.b_col)
        report = sweep_solve(bad, 2, 3)
        assert report.failure == ((0, k), f"(c - d) vanishes at {(0, k)}")
        assert report.divisions_checked == 2 * k * k + 2 * k + 1

        def present(kind, n, m):
            try:
                return report.field.value(kind, n, m)
            except WindowError:
                return None

        for level in range(k + 3):
            for n in range(level + 1):
                m = level - n
                for kind in ("a", "b", "c", "d"):
                    got = present(kind, n, m)
                    if level > k + 1 or (level == k + 1 and kind in "cd"):
                        assert got is None, (kind, n, m)
                    elif (kind, n, m) == ("d", 0, k):
                        assert got == planted
                    elif (kind, n, m) == ("b", 1, k):
                        assert got == 0     # b(0, k) times the vanished gap
                    else:
                        assert got == reference_field.value(kind, n, m), (kind, n, m)

    def test_fraction_operations_per_cell(self, boundary_a, monkeypatch):
        # the exact cells are reduced integer pairs, so the sweep forms no
        # Fraction: no sum, difference, product or quotient of Fractions.
        # With Fractions in the cone it took 76 additions and 60 subtractions,
        # and the whole triangle exactly 100 and 72.
        counts = dict.fromkeys(("__add__", "__sub__", "__mul__", "__truediv__"), 0)
        for name in counts:
            def counted(x, y, _op=getattr(F, name), _name=name):
                counts[_name] += 1
                return _op(x, y)
            monkeypatch.setattr(F, name, counted)
        report = sweep_solve(boundary_a, 4, 4)
        monkeypatch.undo()
        assert report.ok and report.divisions_checked == 2 * 8 ** 2
        assert counts == {"__add__": 0, "__sub__": 0, "__mul__": 0, "__truediv__": 0}

    @pytest.mark.parametrize("N, M", [(-1, 2), (2, -1), (-3, -3)])
    def test_negative_window_rejected(self, system_a, boundary_a, N, M):
        for call in (lambda: sweep_solve(boundary_a, N, M),
                     lambda: field_from_moments(system_a, N, M),
                     lambda: cross_validate(system_a, N, M)):
            with pytest.raises(WindowError, match=rf"window \({N}, {M}\)"):
                call()

    def test_a_bad_window_is_refused(self, boundary_a, bad_window):
        with pytest.raises(WindowError, match="nonnegative ints"):
            sweep_solve(boundary_a, *bad_window)

    @pytest.mark.parametrize("bad", ["x", None, [1, 2]], ids=repr)
    def test_a_boundary_that_is_not_boundary_data_is_refused(self, bad):
        # refused before any row is read
        with pytest.raises(ParseError, match="boundary must be a BoundaryData, got "
                                             + type(bad).__name__):
            sweep_solve(bad, 1, 1)

    def test_boundary_too_short(self, boundary_a):
        with pytest.raises(TruncationError):
            sweep_solve(boundary_a, 5, 5)

    @settings(max_examples=120, deadline=None)
    @given(sweep_boundaries())
    @example((boundary_from_moments(make_angelesco(MeasureModel.interval(-2, -1),
                                                   MeasureModel.interval(1, 2), 18), 8),
              4, 4, "angelesco"))
    def test_sweep_output_satisfies_consistency(self, drawn):
        # the sweep builds its field from the consistency identities, which
        # is why verify need not run them on a field equal to it
        boundary, N, M, kind = drawn
        report = sweep_solve(boundary, N, M)
        if kind != "integers":      # perfect systems, normal on the window
            assert report.ok, report.failure
        if not report.ok:
            return
        for n in range(N):
            for m in range(M):
                assert consistency_residuals(report.field, n, m) == (0, 0, 0, 0), (n, m)


class TestFieldFromMoments:
    def test_reference_values(self, system_a):
        field = field_from_moments(system_a, 2, 2)
        assert field.c(0, 0) == F(-3, 2)
        assert field.d(0, 0) == F(3, 2)
        assert field.a(1, 1) == F(1, 12)

    def test_nikishin_window(self, nikishin_system):
        field = field_from_moments(nikishin_system, 1, 1)
        assert field.a(1, 1) != 0

    def test_duplicated_not_normal(self, dup_system):
        with pytest.raises(NotNormalError):
            field_from_moments(dup_system, 1, 1)


class TestCdBySummation:
    def test_single_bracket_level(self, boundary_a, reference_field):
        c_val, d_val = cd_by_summation(boundary_a, reference_field, 2, 0)
        assert c_val == reference_field.c(2, 1)
        assert d_val == reference_field.d(3, 0)

    def test_matches_sweep_values(self, boundary_a, reference_field):
        for n in range(4):
            for m in range(4):
                c_val, d_val = cd_by_summation(boundary_a, reference_field, n, m)
                assert c_val == reference_field.c(n, m + 1)
                assert d_val == reference_field.d(n + 1, m)

    def test_missing_summand(self, boundary_a, reference_field):
        with pytest.raises(WindowError):
            cd_by_summation(boundary_a, reference_field, 20, 0)

    def test_all_brackets_zero_telescopes_to_boundary(self):
        # a = b = 0 everywhere and constant rows: every bracket vanishes, so
        # the sums collapse onto the axis data
        from hplax.nnrr import RecurrenceField
        size = 4
        grids = {
            "a": {(n, m): F(0) for n in range(size) for m in range(size)},
            "b": {(n, m): F(0) for n in range(size) for m in range(size)},
            "c": {(n, m): F(2) for n in range(size) for m in range(size)},
            "d": {(n, m): F(-1) for n in range(size) for m in range(size)},
        }
        flat = RecurrenceField(grids, (size - 1, size - 1))
        boundary = BoundaryData(c_row=(F(2),) * size, a_row=(F(1),) * size,
                                d_col=(F(-1),) * size, b_col=(F(1),) * size)
        for n in range(2):
            for m in range(2):
                c_val, d_val = cd_by_summation(boundary, flat, n, m)
                assert c_val == boundary.c_row[n]
                assert d_val == boundary.d_col[m]


class TestCrossValidate:
    def test_system_a(self, system_a):
        result = cross_validate(system_a, 3, 3)
        assert result.orthogonality_max == 0
        assert result.zcc_all_zero

    def test_nikishin(self, nikishin_system):
        result = cross_validate(nikishin_system, 2, 2)
        assert result.zcc_all_zero

    def test_duplicated_system_rejected(self, dup_system):
        with pytest.raises(NotNormalError):
            cross_validate(dup_system, 2, 2)

    @pytest.mark.parametrize("window", [(0, 3), (1, 1), (3, 2), (4, 4)])
    def test_zero_curvature_on_every_stencil(self, monkeypatch, window):
        # each stencil (n, m) with n < N and m < M, edges included, once
        system = make_angelesco(MeasureModel.interval(-3, -1),
                                MeasureModel.interval(1, 2), 40)
        seen = []

        def recording(table, field, n, m):
            seen.append((n, m))
            return holds(table, field, n, m)

        holds = bvp.zero_curvature_holds
        monkeypatch.setattr(bvp, "zero_curvature_holds", recording)
        N, M = window
        assert cross_validate(system, N, M).zcc_all_zero
        assert sorted(seen) == [(n, m) for n in range(N) for m in range(M)]

    @pytest.mark.parametrize("bumps", [
        [("a", 0, 1)], [("b", 2, 0)], [("c", 2, 1)], [("d", 0, 2)],
        [("d", 0, 0), ("b", 2, 2)], [("c", 2, 2), ("c", 1, 2)]], ids=str)
    def test_a_bumped_sweep_entry_is_named(self, monkeypatch, system_a, bumps):
        # the sweep's entries are compared with the table's integer pairs;
        # the first difference in KINDS order, then row by row, is named
        # with both values in lowest terms, a zero on an axis included
        sweep = bvp.sweep_solve

        def bumped(boundary, n_max, m_max):
            report = sweep(boundary, n_max, m_max)
            field = report.field
            for kind, n, m in bumps:
                field = field.replace(kind, n, m, field.value(kind, n, m) + F(1, 3))
            return SweepReport(field, report.divisions_checked)

        monkeypatch.setattr(bvp, "sweep_solve", bumped)
        want = field_from_table(HPTable(system_a, 3, 3), 2, 2)
        kind, n, m = min(bumps, key=lambda b: (KINDS.index(b[0]), b[1], b[2]))
        value = want.value(kind, n, m)
        with pytest.raises(IntegrityError) as caught:
            cross_validate(system_a, 2, 2)
        assert str(caught.value) == (f"sweep and moment routes disagree at "
                                     f"{kind}[{n}, {m}]: {value + F(1, 3)} != {value}")

    def test_hand_perturbed_boundary_diverges(self, boundary_a, reference_field):
        # bump a deep axis value: the sweep stays alive but the grids differ
        bumped = BoundaryData(
            c_row=boundary_a.c_row[:3] + (boundary_a.c_row[3] + 1,)
                  + boundary_a.c_row[4:],
            a_row=boundary_a.a_row,
            d_col=boundary_a.d_col,
            b_col=boundary_a.b_col)
        report = sweep_solve(bumped, 3, 3)
        if report.ok:
            equal, diff = report.field.same_grids(reference_field)
            assert not equal and diff is not None
        else:
            assert report.failure is not None


@st.composite
def axis_systems(draw):
    """A level lam up to 6 and a system of up to two moments more or fewer
    than the boundary's 2 lam + 2.  Each sequence is rebuilt from a random
    J-fraction (normal along its axis) or is zero-laden small integers."""
    lam = draw(st.integers(0, 6))
    count = max(2 * lam + 2 + draw(st.sampled_from([-2, -1, 0, 0, 1, 2])), 0)

    def sequence():
        if draw(st.booleans()):
            c = draw(st.lists(st.integers(-2, 2), min_size=lam + 3, max_size=lam + 3))
            a = draw(st.lists(st.sampled_from([-2, -1, 1, 2]),
                              min_size=lam + 2, max_size=lam + 2))
            s0 = draw(st.sampled_from([1, F(1, 2), -3]))
            return tuple(jfraction_to_moments(JFraction(tuple(c), tuple(a), s0), count))
        return tuple(draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2)]),
                                   min_size=count, max_size=count)))

    return lam, MomentSystem(sequence(), sequence())


def outcome(read, *args):
    """What a read returns, or the type and text of what it raises."""
    try:
        return read(*args)
    except HplaxError as exc:
        return type(exc), str(exc)


class TestBoundaryFromMoments:
    """The boundary of ``cross_validate``, the J-fraction of each sequence,
    against its oracle, the axes of a table; and against
    ``moments_to_jfraction``, which reads the same kernel but raises its
    own errors."""

    @settings(max_examples=150, deadline=None)
    @given(axis_systems())
    # S(0, 4) vanishes: the axis read past the (2, 1) window of the pinned
    # verify call that exits 3
    @example((3, MomentSystem((2, 1, -1, 0, 0, 1, 0, 1, 2, 0),
                              (1, -1, 2, 1, 2, 0, -1, -1, -1, 0))))
    def test_meets_the_table_axes_and_chebyshev(self, drawn):
        lam, system = drawn
        got = outcome(boundary_from_moments, system, lam)
        table = HPTable(system, lam + 1, lam + 1)
        assert got == outcome(boundary_from_table, table, lam)
        try:
            j1 = moments_to_jfraction(system.s1, lam + 1)
            j2 = moments_to_jfraction(system.s2, lam + 1)
        except (DegeneracyError, TruncationError):
            assert not isinstance(got, BoundaryData)
        else:
            assert got == BoundaryData(j1.c, j1.a, j2.c, j2.a)

    def test_a_zero_mass_ends_the_entries(self):
        # a_0 = s_0 is the first entry, and a zero a_k is the last: c_0 does
        # not exist, so the boundary names K(1, 0) = s_0 as not normal and
        # moments_to_jfraction, which needs c_0, refuses it
        assert measures.jfraction_entries([0, 1, 2]) == [0]
        with pytest.raises(NotNormalError) as caught:
            boundary_from_moments(MomentSystem((0, 1, 2), (1, 0, 1)), 0)
        assert caught.value.index == (1, 0)
        with pytest.raises(DegeneracyError, match="at depth 0$"):
            moments_to_jfraction([0, 1, 2], 1)

    @pytest.mark.parametrize("lam", [0, 1, 4, 8])
    def test_no_elimination_and_2_lam_plus_2_moments(self, system_a, monkeypatch, lam):
        # the J-fraction kernel forms no LeadingMinors, under any name an
        # hplax module binds it to, and clears the 2 lam + 2 moments its
        # reads reach of each sequence, of the 30 that system_a holds
        def refuse(*args):
            raise AssertionError("the boundary formed an elimination")

        original = kernel.LeadingMinors
        for name, module in list(sys.modules.items()):
            if name == "hplax" or name.startswith("hplax."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        counts = []
        clear = measures.cleared

        def recording(values):
            counts.append(len(values))
            return clear(values)

        monkeypatch.setattr(measures, "cleared", recording)
        boundary_from_moments(system_a, lam)
        assert counts == [2 * lam + 2, 2 * lam + 2]


@st.composite
def axis_jfractions(draw):
    """Level lam in 2..6, a split (N, M) of it, and two J-fractions of depth
    lam + 1 with c in [-2, 2], a in {-2, -1, 1, 2} and s0 = 1: mostly not
    the data of any measure."""
    lam = draw(st.integers(2, 6))
    n = draw(st.integers(0, lam))

    def jfraction():
        c = draw(st.lists(st.integers(-2, 2), min_size=lam + 1, max_size=lam + 1))
        a = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=lam, max_size=lam))
        return JFraction(tuple(c), tuple(a), 1)

    return n, lam - n, jfraction(), jfraction()


class TestConverse:
    """The converse theorem on a finite window: any axis data with nonzero
    subdiagonals are the J-fractions of the system their moments rebuild,
    and the sweep over them completes exactly where that system is normal."""

    @settings(max_examples=60, deadline=None)
    @given(axis_jfractions())
    def test_sweep_meets_the_rebuilt_system(self, drawn):
        N, M, j1, j2 = drawn
        lam = N + M
        system = MomentSystem(tuple(jfraction_to_moments(j1, 2 * lam + 4)),
                              tuple(jfraction_to_moments(j2, 2 * lam + 4)))
        assert moments_to_jfraction(system.s1, lam + 1) == j1
        assert moments_to_jfraction(system.s2, lam + 1) == j2
        report = sweep_solve(BoundaryData(j1.c, j1.a, j2.c, j2.a), N, M)
        if report.ok:
            equal, diff = report.field.same_grids(field_from_moments(system, N, M))
            assert equal, diff
            return
        # d - c = S(n, m) S(n+1, m+1) / (S(n+1, m) S(n, m+1)): the first
        # vanishing gap is the first non-normal index, in level order
        (n, m), _ = report.failure
        table = HPTable(system, n + m + 2, n + m + 2)
        assert table.s_det(n + 1, m + 1) == 0
        for level in range(2, n + m + 2):
            for k in range(1, level):
                assert table.s_det(k, level - k) != 0, (k, level - k)


def equation_sweep(boundary: BoundaryData, N: int, M: int):
    """The sweep as the four lattice equations read literally, one division
    by a checked gap per equation: the parity oracle of ``sweep_solve``.
    Returns the grids filled (over the whole triangle), the divisions
    checked and the failure."""
    lam = N + M
    a, b = {(0, 0): F(0)}, {(0, 0): F(0)}
    c, d = {(0, 0): boundary.c_row[0]}, {(0, 0): boundary.d_col[0]}
    divisions = 0

    class GapZero(Exception):
        pass

    def checked_gap(n, m):
        nonlocal divisions
        divisions += 1
        g = c[(n, m)] - d[(n, m)]
        if g == 0:
            raise GapZero((n, m))
        return g

    try:
        for level in range(1, lam + 1):
            points = [(n, level - n) for n in range(level + 1)]
            for n, m in points:
                if n == 0:
                    a[(n, m)] = F(0)
                elif m == 0:
                    a[(n, m)] = boundary.a_row[n - 1]
                else:
                    gap = c[(n, m - 1)] - d[(n, m - 1)]
                    a[(n, m)] = a[(n, m - 1)] * gap / checked_gap(n - 1, m - 1)
                if m == 0:
                    b[(n, m)] = F(0)
                elif n == 0:
                    b[(n, m)] = boundary.b_col[m - 1]
                else:
                    gap = c[(n - 1, m)] - d[(n - 1, m)]
                    b[(n, m)] = b[(n - 1, m)] * gap / checked_gap(n - 1, m - 1)
            for n, m in points:
                if m == 0:
                    c[(n, m)] = boundary.c_row[n]
                else:
                    bracket = (a[(n + 1, m - 1)] + b[(n + 1, m - 1)]
                               - a[(n, m)] - b[(n, m)])
                    c[(n, m)] = c[(n, m - 1)] + bracket / checked_gap(n, m - 1)
                if n == 0:
                    d[(n, m)] = boundary.d_col[m]
                else:
                    bracket = (a[(n, m)] + b[(n, m)]
                               - a[(n - 1, m + 1)] - b[(n - 1, m + 1)])
                    d[(n, m)] = d[(n - 1, m)] + bracket / checked_gap(n - 1, m)
    except GapZero as exc:
        (index,) = exc.args
        return {"a": a, "b": b, "c": c, "d": d}, divisions, (
            index, f"(c - d) vanishes at {index}")
    return {"a": a, "b": b, "c": c, "d": d}, divisions, None


def with_entry(rows, t, x):
    """Boundary rows with the J-fraction entry that first enters moment t of
    the first sequence set to x: c_k for t = 2k + 1, a_k for t = 2k."""
    c, a, d, b = (list(r) for r in rows)
    if t % 2:
        c[t // 2] = x
    else:
        a[t // 2 - 1] = x
    return BoundaryData(c, a, d, b)


@st.composite
def planted_boundaries(draw):
    """Small-integer boundary rows to level lam in 1..7 and a split (N, M),
    mostly with a zero gap planted at an interior cell (n, m) below level
    lam, in half of those off the cells next to the axes.

    The gap at (n, m) is -S(n,m) S(n+1,m+1) / (S(n+1,m) S(n,m+1)) for the
    system the rows rebuild (``TestConverse``).  Moment 2n + m + 1 of the
    first sequence enters only S(n+1, m+1), and the J-fraction entry x that
    first enters that moment enters it linearly, so the gap is affine in x:
    two sweeps give its root.  The planted sweep stops at (n, m) unless a
    lower gap vanishes first."""
    lam = draw(st.integers(1, 7))
    rows = (draw(st.lists(st.integers(-4, 4), min_size=lam + 1, max_size=lam + 1)),
            draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=lam, max_size=lam)),
            draw(st.lists(st.integers(-4, 4), min_size=lam + 1, max_size=lam + 1)),
            draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=lam, max_size=lam)))
    N = draw(st.integers(0, lam))
    cells = [(n, m) for n in range(1, lam) for m in range(1, lam - n)]
    deep = [(n, m) for n, m in cells if n > 1 and m > 1]
    if cells and draw(st.integers(0, 3)):
        n, m = draw(st.sampled_from(deep if deep and draw(st.booleans()) else cells))
        t = 2 * n + m + 1
        gaps = []
        for x in (F(1), F(2)):
            report = sweep_solve(with_entry(rows, t, x), n, m)
            gaps.append(report.field.gap(n, m) if report.ok else None)
        if None not in gaps and gaps[0] != gaps[1]:
            root = 1 - gaps[0] / (gaps[1] - gaps[0])
            if t % 2 or root:
                return with_entry(rows, t, root), N, lam - N
    return BoundaryData(*rows), N, lam - N


class TestSweepParity:
    """``sweep_solve`` against the four equations read one by one: the same
    failure, division count and entries, filled or absent."""

    @settings(max_examples=150, deadline=None)
    @given(planted_boundaries())
    def test_shared_quotient_meets_the_equations(self, drawn):
        meets_the_equations(*drawn)


def meets_the_equations(boundary, N, M):
    """Assert that ``sweep_solve`` reports what ``equation_sweep`` fills:
    the same failure, division count and entries, filled or absent, each
    filled one kept as its reduced pair (``value`` would hide an unreduced
    pair, which ``jsondoc.field_to_doc`` writes as it is)."""
    report = sweep_solve(boundary, N, M)
    grids, divisions, failure = equation_sweep(boundary, N, M)
    assert report.failure == failure
    assert report.divisions_checked == divisions
    if failure is None:
        grids = {kind: {(n, m): grid[(n, m)] for n in range(N + 1)
                        for m in range(M + 1)}
                 for kind, grid in grids.items()}
    for kind in KINDS:
        for level in range(N + M + 2):
            for n in range(level + 1):
                want = grids[kind].get((n, level - n))
                try:
                    num, den = report.field.pair(kind, n, level - n)
                except WindowError:
                    assert want is None, (kind, n, level - n)
                    continue
                assert gcd(num, den) == 1 and den > 0, (kind, n, level - n, num, den)
                assert F(num, den) == want, (kind, n, level - n)
    return report


def read_closure(N, M):
    """Every (kind, n, m) that the (N, M) rectangle of a, b, c and d reads,
    by the sweep's equations one read at a time; kind s is a + b and g the
    gap c - d."""
    def reads(kind, n, m):
        if kind == "a":
            return [("a", n, m - 1), ("g", n, m - 1), ("g", n - 1, m - 1)] if n and m else []
        if kind == "b":
            return [("b", n - 1, m), ("g", n - 1, m), ("g", n - 1, m - 1)] if n and m else []
        if kind == "s":
            return [("a", n, m), ("b", n, m)]
        if kind == "c":
            return [("c", n, m - 1), ("s", n + 1, m - 1), ("s", n, m), ("g", n, m - 1)] if m else []
        if kind == "d":
            return [("d", n - 1, m), ("s", n, m), ("s", n - 1, m + 1), ("g", n - 1, m)] if n else []
        return [("c", n, m), ("d", n, m)]

    todo = [(kind, n, m) for kind in "abcd" for n in range(N + 1) for m in range(M + 1)]
    seen = set(todo)
    while todo:
        for read in reads(*todo.pop()):
            if read not in seen:
                seen.add(read)
                todo.append(read)
    return seen


def exact_cells(N, M):
    """Cells of the triangle with an exact entry: a, b and s reach one cell
    past the cone on each side."""
    total = 0
    for level in range(N + M + 1):
        lo, hi = bvp.cone_range(N, M, level)
        total += min(level, hi + 1) - max(0, lo - 1) + 1
    return total


# gap(1, 0) = c(1, 0) - d(0, 0) - (a(1, 0) - b(0, 1)) / gap(0, 0) = 0 with
# gap(0, 1) = -3: the zero lies in the (0, 2) cone, but c(1, 1), the one
# cell that divides by it, does not
ZERO_GAP_IN_CONE = BoundaryData(c_row=(1, -1, 0), a_row=(1, 1),
                                d_col=(0, 3, 0), b_col=(2, 1))


class TestCone:
    """The exact cone and the residue shell of ``sweep_solve``."""

    @pytest.mark.parametrize("N", range(13))
    def test_ranges_are_the_read_closure(self, N):
        # c, d and the gap on cone_range, a, b and s one cell wider: exactly
        # the cells the rectangle reads, level by level
        for M in range(13):
            seen = read_closure(N, M)
            for level in range(N + M + 1):
                lo, hi = bvp.cone_range(N, M, level)
                for kinds, want in (("cdg", range(lo, hi + 1)),
                                    ("abs", range(max(0, lo - 1), min(level, hi + 1) + 1))):
                    got = {n for kind, n, m in seen if kind in kinds and n + m == level}
                    assert got == set(want), (N, M, level, kinds)

    @pytest.mark.parametrize("window, count", [((16, 16), 433), ((12, 20), 425),
                                               ((20, 12), 425), ((10, 10), 181)])
    def test_exact_cell_count(self, window, count):
        # of 561 cells to level 32, and 231 to level 20
        assert exact_cells(*window) == count

    @pytest.mark.parametrize("prime", [2, 3, 5])
    @settings(max_examples=60, deadline=None)
    @given(drawn=planted_boundaries())
    def test_small_prime_meets_the_equations(self, prime, drawn):
        # residue zeros are common modulo a small prime: every one of them
        # sends the call to the full exact sweep, and every nonzero residue
        # still proves its gap nonzero
        boundary, N, M = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bvp, "_P", prime)
            meets_the_equations(boundary, N, M)

    def test_zero_gap_read_only_by_the_shell(self):
        report = meets_the_equations(ZERO_GAP_IN_CONE, 0, 2)
        assert report.failure == ((1, 0), "(c - d) vanishes at (1, 0)")
        assert report.divisions_checked == 6

    def test_gap_divisible_by_the_prime(self, monkeypatch):
        # gap(1, 0) = _P: nonzero, but its residue vanishes where the shell
        # divides by it, so the full exact sweep runs and completes
        c_row = list(ZERO_GAP_IN_CONE.c_row)
        c_row[1] += bvp._P
        boundary = BoundaryData(c_row, ZERO_GAP_IN_CONE.a_row,
                                ZERO_GAP_IN_CONE.d_col, ZERO_GAP_IN_CONE.b_col)
        ranges = []
        sweep = bvp._sweep

        def recording(boundary, N, M, levels):
            ranges.append(levels)
            return sweep(boundary, N, M, levels)

        monkeypatch.setattr(bvp, "_sweep", recording)
        assert meets_the_equations(boundary, 0, 2).ok
        assert ranges == [[(0, 0), (0, 1), (0, 0)], [(0, 0), (0, 1), (0, 2)]]

    def test_boundary_entry_divisible_by_the_prime(self, monkeypatch):
        # a(1, 0) = _P: the shell divides by the residue of rho(1, 1) =
        # gap(1, 0) a(1, 0), which vanishes, so the full exact sweep runs
        # and completes
        boundary = BoundaryData(c_row=(1, -1, 0, 2), a_row=(bvp._P, 1, 2),
                                d_col=(0, 3, 0, 1), b_col=(2, 1, 1))
        ranges = []
        sweep = bvp._sweep

        def recording(boundary, N, M, levels):
            ranges.append(levels)
            return sweep(boundary, N, M, levels)

        monkeypatch.setattr(bvp, "_sweep", recording)
        assert meets_the_equations(boundary, 0, 3).ok
        assert ranges == [[(0, 0), (0, 1), (0, 1), (0, 0)],
                          [(0, 0), (0, 1), (0, 2), (0, 3)]]

    def test_a_zero_on_a_full_range_level_is_not_rerun(self, boundary_a,
                                                        reference_field, monkeypatch):
        # gap (2, 0) = 0 is divided by on level 3, where the (4, 4) cone is
        # the whole level, as on every level below: the ranged run was the
        # exact sweep.  The pinned (0, 2) zero is divided by on level 2,
        # where the (0, 2) cone is (0, 0), so the exact sweep reruns.
        runs = []
        sweep = bvp._sweep

        def counting(boundary, N, M, levels):
            runs.append(levels)
            return sweep(boundary, N, M, levels)

        monkeypatch.setattr(bvp, "_sweep", counting)
        c_row = list(boundary_a.c_row)
        c_row[2] = reference_field.d(2, 0)
        low = BoundaryData(c_row, boundary_a.a_row, boundary_a.d_col, boundary_a.b_col)
        assert meets_the_equations(low, 4, 4).failure[0] == (2, 0)
        assert len(runs) == 1
        runs.clear()
        assert meets_the_equations(ZERO_GAP_IN_CONE, 0, 2).failure[0] == (1, 0)
        assert len(runs) == 2
