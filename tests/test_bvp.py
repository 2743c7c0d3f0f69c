from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hplax.bvp import (BoundaryData, boundary_from_field, cd_by_summation,
                       cross_validate, field_from_moments, sweep_solve)
from hplax.errors import (DegeneracyError, NonPerfectBoundaryError,
                          NotNormalError, TruncationError, WindowError)
from hplax.hptable import HPTable
from hplax.measures import (JFraction, MomentSystem, jfraction_to_moments,
                            moments_to_jfraction)
from hplax.nnrr import consistency_residuals, field_from_table


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

    def test_boundary_too_short(self, boundary_a):
        with pytest.raises(TruncationError):
            sweep_solve(boundary_a, 5, 5)

    def test_sweep_output_satisfies_consistency(self, boundary_a):
        report = sweep_solve(boundary_a, 4, 4)
        for n in range(3):
            for m in range(3):
                assert consistency_residuals(report.field, n, m) == (0, 0, 0, 0)


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
        assert result.grids_equal
        assert result.consistency_max == 0
        assert result.orthogonality_max == 0
        assert result.zcc_all_zero

    def test_nikishin(self, nikishin_system):
        result = cross_validate(nikishin_system, 2, 2)
        assert result.grids_equal
        assert result.consistency_max == 0
        assert result.zcc_all_zero

    def test_duplicated_system_rejected(self, dup_system):
        with pytest.raises(NotNormalError):
            cross_validate(dup_system, 2, 2)

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
