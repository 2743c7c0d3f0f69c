from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hplax.bvp import field_from_moments
from hplax.errors import (DegeneracyError, HplaxError, NotNormalError, ParseError,
                          TruncationError, WindowError)
from hplax.hptable import HPTable
from hplax.kernel import LeadingMinors, series_of_ratio
from hplax.measures import MeasureModel, MomentSystem, make_angelesco
from hplax.nnrr import (KINDS, RecurrenceField, a_pair, b_pair, c_pair,
                        cf_extract, check_dminusc, consistency_residuals,
                        d_pair, field_from_table, m_minus_series,
                        recurrence_residuals)


@pytest.fixture(scope="module")
def table_a(system_a):
    return HPTable(system_a, 8, 8)


@pytest.fixture(scope="module")
def field_a(table_a):
    return field_from_table(table_a, 5, 5)


@pytest.fixture(scope="module")
def table_nik(nikishin_system):
    return HPTable(nikishin_system, 7, 7)


class TestFieldFromTable:
    def test_axis_zeros(self, field_a):
        for k in range(5):
            assert field_a.a(0, k) == 0
            assert field_a.b(k, 0) == 0

    def test_a_bad_window_is_refused(self, table_a, bad_window):
        with pytest.raises(WindowError, match="nonnegative ints"):
            field_from_table(table_a, *bad_window)

    def test_system_a_corner(self, field_a):
        assert field_a.c(0, 0) == F(-3, 2)
        assert field_a.d(0, 0) == F(3, 2)

    def test_a11_from_determinants(self, field_a):
        assert field_a.a(1, 1) == F(1, 12)

    def test_interior_nonvanishing(self, field_a):
        for n in range(1, 5):
            for m in range(5):
                assert field_a.a(n, m) != 0
        for n in range(5):
            for m in range(1, 5):
                assert field_a.b(n, m) != 0

    def test_not_normal_propagates(self, dup_system):
        table = HPTable(dup_system, 4, 4)
        with pytest.raises(NotNormalError):
            field_from_table(table, 1, 1)


def outcome(read, *args):
    """What a read returns, or the type, text and index of what it raises."""
    try:
        return read(*args)
    except HplaxError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


STEPS = {"a": (1, 0), "b": (0, 1), "c": (1, 0), "d": (0, 1)}
PAIRS = {"a": a_pair, "b": b_pair, "c": c_pair, "d": d_pair}


def entry_by_pair(table, kind, n, m):
    """A field entry as the Fraction of its integer pair."""
    return F(*PAIRS[kind](table, n, m))


def subleading_by_solve(table, n, m):
    p = table.hp_poly_solve(n, m)
    return p.coeff(p.degree - 1)


def entry_by_formula(table, kind, n, m):
    """A field entry by the Fraction formulas on s_det and on the subleading
    coefficients of hp_poly_solve, reading in the same order as the field."""
    dn, dm = STEPS[kind]
    if kind in ("a", "b"):
        if (n, m)[kind == "b"] == 0:
            return F(0)
        s = table.s_det(n, m)
        if s == 0:
            raise NotNormalError(n, m)
        return table.s_det(n + dn, m + dm) * table.s_det(n - dn, m - dm) / s ** 2
    return subleading_by_solve(table, n, m) - subleading_by_solve(table, n + dn, m + dm)


small_moments = st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2)])


class TestIntegerEntries:
    """Each field entry is one reduced pair of the column eliminations' integers;
    on zero-laden and truncated systems, with reads past the window, it
    equals the Fraction formulas or raises the same error at the same index."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 14).flatmap(lambda k: st.tuples(
               st.lists(small_moments, min_size=k, max_size=k),
               st.lists(small_moments, min_size=k, max_size=k))),
           st.booleans(), st.integers(0, 3), st.integers(0, 3),
           st.randoms(use_true_random=False))
    def test_entries_meet_the_fraction_formulas(self, sequences, duplicated, N, M, rng):
        s1, s2 = sequences
        system = MomentSystem(s1, s1 if duplicated else s2)
        fast, slow = HPTable(system, N, M), HPTable(system, N, M)
        reads = [(kind, n, m) for kind in KINDS
                 for n in range(-1, N + 2) for m in range(-1, M + 2)]
        rng.shuffle(reads)
        for kind, n, m in reads:
            assert (outcome(entry_by_pair, fast, kind, n, m)
                    == outcome(entry_by_formula, slow, kind, n, m)), (kind, n, m)

    def test_field_keeps_reduced_pairs(self, system_a):
        # value would hide an unreduced pair, which field_to_doc writes as it is
        field = field_from_moments(system_a, 3, 3)
        for kind in KINDS:
            for n in range(4):
                for m in range(4):
                    num, den = field.pair(kind, n, m)
                    assert gcd(num, den) == 1 and den > 0, (kind, n, m)
                    assert F(num, den) == field.value(kind, n, m)
        coerced = RecurrenceField({kind: {(0, 0): "6/4"} for kind in KINDS}, (0, 0))
        assert coerced.pair("c", 0, 0) == (3, 2)
        with pytest.raises(ParseError):
            RecurrenceField({kind: {(0, 0): "abc"} for kind in KINDS}, (0, 0))

    @pytest.mark.parametrize("window", [(-1, 5), (2, -1), (1.5, 0), (True, 1), ("2", 2)],
                             ids=repr)
    def test_field_refuses_a_bad_window(self, window):
        # the constructor and from_pairs, which shares it, refuse the window
        # as check_window does, before reading any entry
        for build in (RecurrenceField, RecurrenceField.from_pairs):
            with pytest.raises(WindowError, match="nonnegative ints"):
                build({kind: {} for kind in KINDS}, window)

    def test_field_forms_no_polynomial(self, system_a, monkeypatch):
        want = field_from_moments(system_a, 5, 5)

        def refuse(self, k):
            raise AssertionError("the field formed a table polynomial")

        monkeypatch.setattr(LeadingMinors, "null_vector", refuse)
        assert field_from_moments(system_a, 5, 5).same_grids(want) == (True, None)


class TestDminusC:
    def test_corner_value(self, field_a, table_a):
        assert check_dminusc(table_a, 0, 0) == 3

    def test_not_normal(self, dup_system):
        table = HPTable(dup_system, 4, 4)
        with pytest.raises(NotNormalError):
            check_dminusc(table, 1, 0)

    def test_matches_field_everywhere(self, field_a, table_a):
        for n in range(5):
            for m in range(5):
                want = field_a.d(n, m) - field_a.c(n, m)
                assert check_dminusc(table_a, n, m) == want


class TestRecurrenceResiduals:
    def test_interior_zero(self, field_a, table_a):
        r1, r2 = recurrence_residuals(field_a, table_a, 1, 1)
        assert r1.is_zero and r2.is_zero

    def test_origin_boundary_convention(self, field_a, table_a):
        r1, r2 = recurrence_residuals(field_a, table_a, 0, 0)
        assert r1.is_zero and r2.is_zero

    def test_window_zero(self, field_a, table_a):
        for n in range(4):
            for m in range(4):
                r1, r2 = recurrence_residuals(field_a, table_a, n, m)
                assert r1.is_zero and r2.is_zero

    def test_perturbed_a_breaks_it(self, field_a, table_a):
        bad = field_a.replace("a", 1, 1, field_a.a(1, 1) + 1)
        r1, _ = recurrence_residuals(bad, table_a, 1, 1)
        assert r1 == table_a.hp_poly_det(0, 1)


class TestConsistencyResiduals:
    def test_window_zero(self, field_a):
        for n in range(4):
            for m in range(4):
                assert consistency_residuals(field_a, n, m) == (0, 0, 0, 0)

    def test_shift_identity_form(self, field_a):
        # first identity restated: d-shift equals c-shift
        for n in range(4):
            for m in range(4):
                assert (field_a.d(n + 1, m) - field_a.d(n, m)
                        == field_a.c(n, m + 1) - field_a.c(n, m))

    def test_perturbed_c_breaks_it(self, field_a):
        bad = field_a.replace("c", 1, 1, field_a.c(1, 1) + 1)
        residuals = [consistency_residuals(bad, n, m)
                     for n in range(3) for m in range(3)]
        assert any(any(r != 0 for r in quad) for quad in residuals)

    def test_degenerate_zero_field(self):
        # all grids zero: every identity holds vacuously
        grids = {k: {(n, m): F(0) for n in range(3) for m in range(3)}
                 for k in ("a", "b", "c", "d")}
        flat = RecurrenceField(grids, (2, 2))
        assert consistency_residuals(flat, 0, 0) == (0, 0, 0, 0)


class TestConsistencyOracle:
    @pytest.mark.parametrize("kind", [None, "a", "b", "c", "d"])
    def test_meets_the_fraction_identities_on_a_bumped_field(self, field_a, kind):
        # a bump of any one grid at (1, 1) breaks some identity near it
        field = field_a if kind is None else field_a.replace(
            kind, 1, 1, field_a.value(kind, 1, 1) + 1)
        nonzero = 0
        for n in range(4):
            for m in range(4):
                got = consistency_residuals(field, n, m)
                assert all(type(r) is F for r in got), (n, m)
                nonzero += any(got)
        assert (nonzero == 0) == (kind is None)


class TestMMinusSeries:
    def test_base_case_geometric(self, table_a):
        t = m_minus_series(table_a, 1, 0, 0, 3)
        assert t.coeffs == (-1, F(3, 2), F(-9, 4))

    def test_symmetric_second_measure(self):
        sys_sym = make_angelesco(MeasureModel.interval(2, 3),
                                 MeasureModel.discrete([(-1, F(1, 2)), (1, F(1, 2))]),
                                 12)
        table = HPTable(sys_sym, 3, 3)
        t = m_minus_series(table, 2, 0, 0, 3)
        assert t.coeffs == (-1, 0, 0)

    @pytest.mark.parametrize("j,n,m", [(1, 1, 1), (1, 2, 1), (2, 1, 2),
                                       (1, 3, 2), (2, 2, 3), (2, 0, 2)])
    def test_matches_long_division(self, table_a, j, n, m):
        order = 2 * (n + m) + 2
        got = m_minus_series(table_a, j, n, m, order)
        num = -table_a.hp_poly_det(n, m)
        den = table_a.hp_poly_det(n + 1, m) if j == 1 else table_a.hp_poly_det(n, m + 1)
        assert got.coeffs == series_of_ratio(num, den, order).coeffs

    def test_nikishin_matches_long_division(self, table_nik):
        got = m_minus_series(table_nik, 1, 2, 2, 8)
        num = -table_nik.hp_poly_det(2, 2)
        den = table_nik.hp_poly_det(3, 2)
        assert got.coeffs == series_of_ratio(num, den, 8).coeffs

    def test_non_normal_degenerates(self, dup_system):
        table = HPTable(dup_system, 4, 4)
        with pytest.raises(DegeneracyError):
            m_minus_series(table, 1, 1, 1, 4)


class TestCFExtract:
    def test_boundary_origin(self, table_a, field_a):
        s1 = m_minus_series(table_a, 1, 0, 0, 5)
        s2 = m_minus_series(table_a, 2, 0, 0, 5)
        got = cf_extract(s1, s2, F(0), F(1), F(-1))
        assert (got.c, got.d) == (F(-3, 2), F(3, 2))
        assert got.f == 0 and got.g == 0
        assert got.a == 0 and got.b == 0

    def test_roundtrips_field(self, table_a, field_a):
        for n in range(1, 4):
            for m in range(1, 4):
                order = 2 * (n + m) + 4
                s1 = m_minus_series(table_a, 1, n, m, order)
                s2 = m_minus_series(table_a, 2, n, m, order)
                gap = field_a.c(n - 1, m - 1) - field_a.d(n - 1, m - 1)
                got = cf_extract(s1, s2, field_a.c(n - 1, m),
                                 field_a.d(n, m - 1), gap)
                assert got.c == field_a.c(n, m)
                assert got.d == field_a.d(n, m)
                assert got.a == field_a.a(n, m)
                assert got.b == field_a.b(n, m)
                assert got.f == got.a + got.b
                assert got.g == got.a * field_a.c(n - 1, m) + got.b * field_a.d(n, m - 1)

    def test_gap_identity_backs_the_signature(self, field_a):
        # the previous-level values on the two branches differ by the same
        # gap as the diagonal neighbor one level down
        for n in range(1, 4):
            for m in range(1, 4):
                assert (field_a.c(n - 1, m) - field_a.d(n, m - 1)
                        == field_a.c(n - 1, m - 1) - field_a.d(n - 1, m - 1))

    def test_zero_gap_rejected(self, table_a):
        s1 = m_minus_series(table_a, 1, 0, 0, 5)
        s2 = m_minus_series(table_a, 2, 0, 0, 5)
        with pytest.raises(DegeneracyError):
            cf_extract(s1, s2, F(0), F(0), F(0))

    def test_short_series_rejected(self, table_a):
        s1 = m_minus_series(table_a, 1, 0, 0, 3)
        s2 = m_minus_series(table_a, 2, 0, 0, 3)
        with pytest.raises(TruncationError):
            cf_extract(s1, s2, F(0), F(1), F(-1))
