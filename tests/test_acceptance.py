"""Acceptance criteria, one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is zero: all comparisons are exact rational or
exact polynomial equality.
"""

import time
from fractions import Fraction as F

import pytest

from hplax.bvp import (BoundaryData, boundary_from_field, boundary_from_table,
                       cd_by_summation,
                       cross_validate, field_from_moments, sweep_solve)
from hplax.classical import qd_vw, zcc2_residual, cf_tail_eval
from hplax.errors import NotNormalError
from hplax.hptable import HPTable
from hplax.kernel import Poly, X, series_of_ratio
from hplax.lax3 import build_transition, normalization_grid, zcc_residual
from hplax.measures import (MeasureModel, jfraction_to_moments,
                            measure_moments, moments_to_jfraction,
                            monic_orthogonal_polys)
from hplax.nnrr import (cf_extract, check_dminusc, consistency_residuals,
                        field_from_table, m_minus_series)


def _report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"\nACCEPTANCE {number} ({label}): PASS [{elapsed:.2f}s]")


def test_criterion_1_worked_angelesco(system_a):
    started = time.monotonic()
    table = HPTable(system_a, 3, 3)
    field = field_from_table(table, 1, 1)
    assert table.s_det(1, 1) == 3
    assert table.hp_poly_det(1, 1) == X * X - Poly.of(F(7, 3))
    assert field.c(0, 0) == F(-3, 2)
    assert field.d(0, 0) == F(3, 2)
    assert check_dminusc(table, 0, 0) == 3
    assert field.d(0, 0) - field.c(0, 0) == 3
    assert field.a(1, 1) == F(1, 12)
    _report(1, "worked Angelesco values", started, 1.0)


def test_criterion_2_oracle_equivalence(system_a, nikishin_system):
    started = time.monotonic()
    checked = 0
    for system in (system_a, nikishin_system):
        table = HPTable(system, 5, 5)
        for n in range(6):
            for m in range(6):
                if not table.is_normal(n, m):
                    continue
                assert table.hp_poly_det(n, m) == table.hp_poly_solve(n, m), (n, m)
                checked += 1
    assert checked == 72  # both test systems are normal on the whole window
    _report(2, "determinant route == linear-solve route on (5,5)", started, 10.0)


def test_criterion_3_zero_curvature(system_a, nikishin_system):
    started = time.monotonic()
    for system in (system_a, nikishin_system):
        table = HPTable(system, 6, 6)
        field = field_from_table(table, 5, 5)
        norms = normalization_grid(table, 5, 5)
        pairs = {(n, m): build_transition(field, norms, n, m)
                 for n in range(5) for m in range(5)}
        for n in range(4):
            for m in range(4):
                res = zcc_residual(pairs[(n, m)], pairs[(n + 1, m)],
                                   pairs[(n, m + 1)])
                assert res.is_zero, (system.label, n, m)
        # a unit bump of any single coefficient must break the condition
        for kind in ("a", "b", "c", "d"):
            bumped = field.replace(kind, 1, 1, field.value(kind, 1, 1) + 1)
            bad = {(n, m): build_transition(bumped, norms, n, m)
                   for n in range(3) for m in range(3)}
            residuals = [zcc_residual(bad[(n, m)], bad[(n + 1, m)], bad[(n, m + 1)])
                         for n in range(2) for m in range(2)]
            assert any(not r.is_zero for r in residuals), (system.label, kind)
    _report(3, "zero curvature on (4,4) + perturbation sensitivity", started, 10.0)


def test_criterion_4_bvp_round_trip(system_a):
    started = time.monotonic()
    lam = 10
    table = HPTable(system_a, lam + 1, lam + 1)
    boundary = boundary_from_table(table, lam)
    report = sweep_solve(boundary, 5, 5)
    assert report.ok
    reference = field_from_moments(system_a, 5, 5)
    equal, diff = report.field.same_grids(reference)
    assert equal, diff

    degenerate = BoundaryData(c_row=(boundary.d_col[0],) + boundary.c_row[1:],
                              a_row=boundary.a_row,
                              d_col=boundary.d_col,
                              b_col=boundary.b_col)
    bad = sweep_solve(degenerate, 2, 2)
    assert not bad.ok and bad.failure[0] == (0, 0)

    j = moments_to_jfraction(list(system_a.s1), 6)
    duplicated = BoundaryData(c_row=j.c, a_row=j.a, d_col=j.c, b_col=j.a)
    dup_report = sweep_solve(duplicated, 2, 2)
    assert not dup_report.ok and dup_report.failure[0] == (0, 0)
    _report(4, "boundary sweep reproduces the moment route on (5,5)", started, 10.0)


def test_criterion_5_consistency_and_summation(system_a):
    started = time.monotonic()
    table = HPTable(system_a, 7, 7)
    field = field_from_table(table, 6, 6)
    for n in range(5):
        for m in range(5):
            assert consistency_residuals(field, n, m) == (0, 0, 0, 0), (n, m)
    boundary = boundary_from_field(field, 6)
    for n in range(4):
        for m in range(4):
            c_val, d_val = cd_by_summation(boundary, field, n, m)
            assert c_val == field.c(n, m + 1)
            assert d_val == field.d(n + 1, m)
    _report(5, "consistency identities + telescoped sums", started, 10.0)


def test_criterion_6_branched_continued_fractions(system_a):
    started = time.monotonic()
    table = HPTable(system_a, 5, 5)
    field = field_from_table(table, 4, 4)
    for n in range(4):
        for m in range(4):
            order = 2 * (n + m) + 2
            for j in (1, 2):
                got = m_minus_series(table, j, n, m, order)
                num = -table.hp_poly_det(n, m)
                den = (table.hp_poly_det(n + 1, m) if j == 1
                       else table.hp_poly_det(n, m + 1))
                assert got.coeffs == series_of_ratio(num, den, order).coeffs
    for n in range(1, 4):
        for m in range(1, 4):
            order = 2 * (n + m) + 4
            s1 = m_minus_series(table, 1, n, m, order)
            s2 = m_minus_series(table, 2, n, m, order)
            gap = field.c(n - 1, m - 1) - field.d(n - 1, m - 1)
            got = cf_extract(s1, s2, field.c(n - 1, m), field.d(n, m - 1), gap)
            assert (got.c, got.d, got.a, got.b) == (
                field.c(n, m), field.d(n, m), field.a(n, m), field.b(n, m))
    _report(6, "branched continued fractions round-trip", started, 10.0)


def test_criterion_7_classical_baseline():
    started = time.monotonic()
    moments = measure_moments(MeasureModel.interval(0, 1), 24)
    v, w = qd_vw(moments, 0, 0)
    assert v == F(1, 2) and w == F(1, 2)
    for n in range(3):
        for k in range(3):
            assert not any(zcc2_residual(moments, n, k)), (n, k)
    j = moments_to_jfraction(moments, 5)
    assert jfraction_to_moments(j, 10) == moments[:10]
    polys = monic_orthogonal_polys(moments, 6)
    for depth in range(5):
        num, den = cf_tail_eval(j, depth)
        assert num * polys[depth + 1] == -polys[depth] * den
    _report(7, "classical 2x2 baseline", started, 5.0)


def test_criterion_8_normality_detection(dup_system):
    started = time.monotonic()
    table = HPTable(dup_system, 4, 4)
    assert table.s_det(1, 1) == 0
    assert not table.is_normal(1, 1)
    with pytest.raises(NotNormalError):
        table.hp_poly_det(1, 1)
    with pytest.raises(NotNormalError):
        table.hp_poly_solve(1, 1)
    with pytest.raises(NotNormalError):
        field_from_table(table, 1, 1)
    with pytest.raises(NotNormalError):
        field_from_moments(dup_system, 1, 1)
    with pytest.raises(NotNormalError):
        cross_validate(dup_system, 1, 1)
    _report(8, "non-normal data refused everywhere", started, 10.0)
