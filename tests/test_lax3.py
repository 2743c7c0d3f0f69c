from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hplax.bvp import BoundaryData, sweep_solve
from hplax.errors import TruncationError, WindowError
from hplax.hptable import HPTable
from hplax.kernel import LaurentTail, MatPoly, Poly, X
from hplax.measures import MeasureModel, make_angelesco
from hplax.lax3 import (NormalizationGrid, assemble_l, assemble_m,
                        build_transition, normalization_grid,
                        path_transport, propagate, wave_matrix, waves_agree,
                        zcc_residual, zero_curvature_holds)
from hplax.nnrr import KINDS, RecurrenceField, field_from_table


@pytest.fixture(scope="module")
def table_a(system_a):
    return HPTable(system_a, 9, 9)


@pytest.fixture(scope="module")
def field_a(table_a):
    return field_from_table(table_a, 6, 6)


@pytest.fixture(scope="module")
def norms_a(table_a):
    return normalization_grid(table_a, 6, 6)


@pytest.fixture(scope="module")
def pairs_a(field_a, norms_a):
    return {(n, m): build_transition(field_a, norms_a, n, m)
            for n in range(6) for m in range(6)}


@pytest.fixture(scope="module")
def pairs_nik(nikishin_system):
    table = HPTable(nikishin_system, 7, 7)
    field = field_from_table(table, 5, 5)
    norms = normalization_grid(table, 5, 5)
    return {(n, m): build_transition(field, norms, n, m)
            for n in range(5) for m in range(5)}


class TestNormalizationGrid:
    def test_origin_mass(self, norms_a):
        assert norms_a.h1(0, 0) == 1
        assert norms_a.h2(0, 0) == 1

    def test_h1_10_by_hand(self, norms_a):
        # pairing of x + 3/2 against the shifted first sequence: 7/3 - 9/4
        assert norms_a.h1(1, 0) == F(1, 12)

    def test_a_direction_law(self, norms_a, field_a):
        for n in range(1, 6):
            for m in range(6):
                assert norms_a.h1(n, m) == field_a.a(n, m) * norms_a.h1(n - 1, m)

    def test_b_direction_law(self, norms_a, field_a):
        for n in range(6):
            for m in range(1, 6):
                assert norms_a.h2(n, m) == field_a.b(n, m) * norms_a.h2(n, m - 1)

    def test_cross_direction_laws(self, norms_a, field_a):
        for n in range(5):
            for m in range(5):
                gap = field_a.c(n, m) - field_a.d(n, m)
                assert norms_a.h1(n, m + 1) == gap * norms_a.h1(n, m)
                assert norms_a.h2(n + 1, m) == -gap * norms_a.h2(n, m)

    def test_multiplicative_law_at_11(self, norms_a, field_a):
        assert norms_a.h1(1, 1) == field_a.a(1, 1) * norms_a.h1(0, 1)

    def test_short_moments_raise_truncation(self):
        # P(2, 1) is defined by 5 moments, but h1(2, 1) reads moment index 5
        system = make_angelesco(MeasureModel.interval(-2, -1),
                                MeasureModel.interval(1, 2), 5)
        with pytest.raises(TruncationError):
            normalization_grid(HPTable(system, 2, 1), 2, 1)


class TestBuildTransition:
    def test_fixed_pattern_rows(self, pairs_a):
        pair = pairs_a[(2, 2)]
        assert pair.L.entry(1, 1).is_zero and pair.L.entry(1, 2).is_zero
        assert pair.L.entry(2, 1).is_zero and pair.L.entry(2, 2) == Poly.of(1)
        assert pair.M.entry(1, 1) == Poly.of(1) and pair.M.entry(1, 2).is_zero
        assert pair.M.entry(2, 1).is_zero and pair.M.entry(2, 2).is_zero

    def test_gauge_products_reproduce_a_and_b(self, pairs_a, field_a):
        for (n, m), pair in pairs_a.items():
            assert -pair.alpha4 * pair.alpha2 == field_a.a(n, m)
            assert -pair.alpha5 * pair.alpha3 == field_a.b(n, m)

    def test_a11_product(self, pairs_a):
        pair = pairs_a[(1, 1)]
        assert -pair.alpha4 * pair.alpha2 == F(1, 12)

    def test_leading_entry_at_origin(self, pairs_a):
        assert pairs_a[(0, 0)].L.entry(0, 0) == X + Poly.of(F(3, 2))

    def test_diagonal_entries_encode_c_and_d(self, pairs_a, field_a):
        for (n, m), pair in pairs_a.items():
            assert pair.L.entry(0, 0) == X - Poly.of(field_a.c(n, m))
            assert pair.M.entry(0, 0) == X - Poly.of(field_a.d(n, m))


class TestZeroCurvature:
    def test_zero_at_origin(self, pairs_a):
        res = zcc_residual(pairs_a[(0, 0)], pairs_a[(1, 0)], pairs_a[(0, 1)])
        assert res.is_zero

    def test_zero_on_window_both_systems(self, pairs_a, pairs_nik):
        for pairs, width in ((pairs_a, 5), (pairs_nik, 4)):
            for n in range(width):
                for m in range(width):
                    res = zcc_residual(pairs[(n, m)], pairs[(n + 1, m)],
                                       pairs[(n, m + 1)])
                    assert res.is_zero, (n, m)

    @pytest.mark.parametrize("kind", ["a", "b", "c", "d"])
    def test_single_perturbation_breaks_it(self, field_a, norms_a, kind):
        bad_field = field_a.replace(kind, 1, 1, field_a.value(kind, 1, 1) + 1)
        pairs = {(n, m): build_transition(bad_field, norms_a, n, m)
                 for n in range(3) for m in range(3)}
        residuals = [zcc_residual(pairs[(n, m)], pairs[(n + 1, m)], pairs[(n, m + 1)])
                     for n in range(2) for m in range(2)]
        assert any(not r.is_zero for r in residuals)


def product_entries(field, norms, n, m):
    """The six entries of the transition-pair residual at (n, m) that can be
    nonzero, the x and constant terms of entry (0, 0), then entries (0, 1),
    (0, 2), (1, 0) and (2, 0), after checking that its x^2 term and every
    other entry vanish."""
    pairs = {key: build_transition(field, norms, *key)
             for key in ((n, m), (n + 1, m), (n, m + 1))}
    res = zcc_residual(pairs[(n, m)], pairs[(n + 1, m)], pairs[(n, m + 1)])
    for i in range(3):
        for j in range(3):
            bound = 1 if i == j == 0 else 0 if 0 in (i, j) else -1
            assert res.entry(i, j).degree <= bound, (n, m, i, j)
    top = res.entry(0, 0)
    return (top.coeff(1), top.coeff(0), res.entry(0, 1).coeff(0),
            res.entry(0, 2).coeff(0), res.entry(1, 0).coeff(0),
            res.entry(2, 0).coeff(0))


# a fixed pool of small rationals: drawing st.fractions for 68 entries per
# example costs ten times as much
small_values = st.sampled_from(sorted({F(k, d) for k in range(-6, 7) for d in (1, 2, 3)}))


def grid(size):
    return [(n, m) for n in range(size) for m in range(size)]


class Minors(dict):
    """Minors K(n, m) by index, read as ``HPTable.minor`` reads them."""

    def minor(self, n, m):
        return self[(n, m)]


def normalizations_of(minors, window, d1, d2):
    """The pairings h1, h2 of ``normalization_grid`` as a table's minors
    give them with moment scales d1, d2, h1(n, m) = K(n+1, m) / (d1 K(n, m))
    and h2(n, m) = (-1)^n K(n, m+1) / (d2 K(n, m)), where the window holds
    the minors they read: the entries every stencil n < N, m < M reads."""
    N, M = window
    return ({(n, m): minors[(n + 1, m)] / (d1 * minors[(n, m)])
             for n in range(N) for m in range(M + 1)},
            {(n, m): (-1) ** n * minors[(n, m + 1)] / (d2 * minors[(n, m)])
             for n in range(N + 1) for m in range(M)})


def padded(h1, h2, window, filler):
    """The grids h1, h2 with filler at every other index up to (N + 1, M + 1):
    ``build_transition`` reads the pairings there for the pairs of a stencil
    n < N, m < M, and the gauge entries they give cancel in its residual."""
    N, M = window
    pad = {(n, m): filler for n in range(N + 2) for m in range(M + 2)}
    return NormalizationGrid({**pad, **h1}, {**pad, **h2}, (N + 1, M + 1))


class TestZccStencil:
    """``zero_curvature_holds`` at a stencil against the residual of the
    transition pairs there, with the pairings read off the same minors: the
    identity holds exactly where entries 4 and 5 vanish, whatever the field,
    since those two read only its gap and the pairings."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_values, min_size=36, max_size=36),
           st.lists(small_values.filter(bool), min_size=9, max_size=9),
           st.lists(st.booleans(), min_size=4, max_size=4),
           st.sampled_from([1, 2, 6]), st.sampled_from([1, 3]), small_values.filter(bool))
    def test_meets_the_products_on_any_values(self, values, drawn, keep, d1, d2, filler):
        # the field on (0..2, 0..2) drawn freely, not from a system, so it
        # meets no consistency identity and the residual is mostly not zero;
        # the minors on the same window drawn too, and K(n+1, m+1) set from
        # the identity at the stencils that keep it, so both verdicts occur.
        # The stencils at n = 0 or m = 0 take the axis gauge
        field = RecurrenceField({kind: dict(zip(grid(3), values[9 * i:9 * i + 9]))
                                 for i, kind in enumerate(KINDS)}, (2, 2))
        minors = Minors(zip(grid(3), drawn))
        for (n, m), kept in zip(grid(2), keep):
            if kept and field.gap(n, m):
                minors[(n + 1, m + 1)] = (field.gap(n, m) * minors[(n, m + 1)]
                                          * minors[(n + 1, m)] / minors[(n, m)])
        norms = padded(*normalizations_of(minors, (2, 2), d1, d2), (2, 2), filler)
        for (n, m), kept in zip(grid(2), keep):
            entries = product_entries(field, norms, n, m)
            holds = zero_curvature_holds(minors, field, n, m)
            assert holds == (not entries[4] and not entries[5]), (n, m)
            assert holds or not (kept and field.gap(n, m)), (n, m)

    @pytest.mark.parametrize("kind", [None, "a", "b", "c", "d"])
    def test_meets_the_products_on_a_bumped_field(self, table_a, field_a, norms_a, kind):
        # a unit bump of one coefficient at (1, 1), as in acceptance
        # criterion 3, over every stencil that reads it and some that do
        # not: only a bumped c or d changes the gap that the identity reads,
        # and only at (1, 1), while every bump makes some entry nonzero
        field = field_a if kind is None else field_a.replace(
            kind, 1, 1, field_a.value(kind, 1, 1) + 1)
        failing, nonzero = set(), 0
        for n in range(3):
            for m in range(3):
                entries = product_entries(field, norms_a, n, m)
                holds = zero_curvature_holds(table_a, field, n, m)
                assert holds == (not entries[4] and not entries[5]), (n, m)
                failing |= set() if holds else {(n, m)}
                nonzero += any(entries)
        assert failing == ({(1, 1)} if kind in ("c", "d") else set())
        assert (nonzero == 0) == (kind is None)

    @pytest.mark.parametrize("window", [(1, 1), (3, 2), (4, 4)])
    def test_edge_stencils_stay_in_the_window(self, window):
        # zero_curvature_holds on the minors of an (N, M) table, which
        # refuses a read past its window, and on the (N, M) field holds at
        # the stencils n = N - 1 or m = M - 1 that read up to (N, M), as the
        # products of transition pairs built on a window one larger vanish
        system = make_angelesco(MeasureModel.interval(-3, -1),
                                MeasureModel.interval(1, 2), 40)
        N, M = window
        table = HPTable(system, N + 2, M + 2)
        exact, field = HPTable(system, N, M), field_from_table(table, N, M)
        wide_field = field_from_table(table, N + 1, M + 1)
        wide_norms = normalization_grid(table, N + 1, M + 1)
        edges = {(N - 1, m) for m in range(M)} | {(n, M - 1) for n in range(N)}
        for n, m in sorted(edges):
            assert zero_curvature_holds(exact, field, n, m), (n, m)
            assert not any(product_entries(wide_field, wide_norms, n, m)), (n, m)


def swept_minors(field, axis):
    """The minors K(n, m) of a swept field over its window: drawn on the
    axes, and inside from the identity
    K(n+1, m+1) K(n, m) = gap(n, m) K(n, m+1) K(n+1, m)."""
    N, M = field.window
    k = Minors({(0, 0): 1, **{(n, 0): axis[n - 1] for n in range(1, N + 1)},
                **{(0, m): axis[N + m - 1] for m in range(1, M + 1)}})
    for n in range(N):
        for m in range(M):
            k[(n + 1, m + 1)] = field.gap(n, m) * k[(n, m + 1)] * k[(n + 1, m)] / k[(n, m)]
    return k


def neighbours(stencils, N, M):
    """The stencils and their right and upper neighbours inside n < N, m < M."""
    return {(n + dn, m + dm) for n, m in stencils for dn, dm in ((0, 0), (1, 0), (0, 1))
            if n + dn < N and m + dm < M}


@st.composite
def swept_fields(draw):
    """A window (N, M) with N, M in 1..3 and the field swept over it from
    boundary rows of small rationals, a and b nonzero, to level N + M; a
    boundary that hits a zero gap is not perfect and is drawn again."""
    N, M = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lam = N + M
    cd = st.lists(small_values, min_size=lam + 1, max_size=lam + 1)
    ab = st.lists(small_values.filter(bool), min_size=lam, max_size=lam)
    report = sweep_solve(BoundaryData(draw(cd), draw(ab), draw(cd), draw(ab)), N, M)
    assume(report.ok)
    return report.field


class TestZeroCurvatureIdentity:
    """``zero_curvature_holds`` against the six entries of the residual of
    the transition pairs (``product_entries``) on pairings read off the
    same minors: the identity fails at a stencil exactly where entry 4 or 5
    is nonzero, and some entry is nonzero exactly at a failing stencil or
    its right or upper neighbour, so the residual is zero at every stencil
    exactly when the identity holds at every stencil."""

    @settings(max_examples=300, deadline=None)
    @given(swept_fields(), st.data())
    def test_fails_where_the_stencils_do(self, field, data):
        N, M = field.window
        axis = data.draw(st.lists(small_values.filter(bool), min_size=N + M, max_size=N + M))
        minors = swept_minors(field, axis)
        change = data.draw(st.sampled_from(["none", "minor", "h1"]))
        if change == "minor":
            # one K scaled: the identity fails at the (up to) four stencils
            # that read it, and the pairings read the scaled K too
            at = data.draw(st.sampled_from(sorted(minors)))
            minors[at] *= data.draw(st.sampled_from([3, -1, F(1, 2), F(-5, 3)]))
            n0, m0 = at
            expected = {(n, m) for n in (n0 - 1, n0) for m in (m0 - 1, m0)
                        if 0 <= n < N and 0 <= m < M}
        else:
            expected = set()
        d1, d2 = data.draw(st.sampled_from([1, 2, 6])), data.draw(st.sampled_from([1, 3]))
        h1, h2 = normalizations_of(minors, (N, M), d1, d2)
        if change == "h1":
            # one h1 doubled, which no minors give
            n0, m0 = at = data.draw(st.sampled_from(sorted(h1)))
            h1[at] *= 2
        stencils = [(n, m) for n in range(N) for m in range(M)]
        failing = {s for s in stencils if not zero_curvature_holds(minors, field, *s)}
        assert failing == expected
        norms = padded(h1, h2, (N, M), data.draw(small_values.filter(bool)))
        entries = {s: product_entries(field, norms, *s) for s in stencils}
        if change == "h1":
            # the identity, which reads no pairing, holds, while entry 4
            # fails at the stencils that read the doubled h1 and entry 2
            # there and at their right neighbours
            doubled = {(n0, m) for m in (m0 - 1, m0) if 0 <= m < M}
            assert {s for s in stencils if entries[s][4]} == doubled
            assert {s for s in stencils if any(entries[s])} == {
                (n + dn, m) for n, m in doubled for dn in (0, 1) if n + dn < N}
            return
        assert {s for s in stencils if entries[s][4] or entries[s][5]} == failing
        assert {s for s in stencils if any(entries[s])} == neighbours(failing, N, M)


@pytest.mark.parametrize("zero_at", [("h1", (0, 1)), ("h2", (1, 0))])
def test_build_transition_refuses_a_zero_pairing(zero_at):
    # the pairs of stencil (0, 0) at (1, 0) and (0, 1) divide by h1(0, 1)
    # and h2(1, 0); with g = c - d = 0 there the residual's last two entries
    # would vanish too, so a zero pairing must raise rather than read as
    # zero curvature
    field = RecurrenceField({kind: {key: F(1) for key in grid(2)} for kind in KINDS},
                            (1, 1))
    h = {"h1": {key: F(1) for key in grid(2)}, "h2": {key: F(1) for key in grid(2)}}
    name, key = zero_at
    h[name][key] = F(0)
    norms = NormalizationGrid(h["h1"], h["h2"], (1, 1))
    with pytest.raises(ZeroDivisionError):
        product_entries(field, norms, 0, 0)


class TestDetTransition:
    def test_interior_dets_are_one(self, pairs_a):
        for n in range(1, 4):
            for m in range(1, 4):
                dl = pairs_a[(n, m)].L.det()
                dm = pairs_a[(n, m)].M.det()
                assert dl.degree == 0 and dl.coeff(0) == 1
                assert dm.degree == 0 and dm.coeff(0) == 1

    def test_axis_dets_constant_nonzero(self, pairs_a):
        # the axis gauge keeps every transition invertible (constant det -1)
        for k in range(4):
            dl = pairs_a[(0, k)].L.det()
            dm = pairs_a[(k, 0)].M.det()
            assert dl.degree == 0 and dl.coeff(0) == -1
            assert dm.degree == 0 and dm.coeff(0) == -1

    def test_product_invariance_under_scaling(self, pairs_a):
        pair = pairs_a[(2, 2)]
        t = F(7, 3)
        scaled = (t * pair.alpha2, pair.alpha4 / t)
        assert -scaled[1] * scaled[0] == -pair.alpha4 * pair.alpha2


class TestGaugeInvariance:
    def test_n_dependent_rescale_preserves_zcc(self, pairs_a, field_a):
        # t depends only on n for the (alpha2, alpha4) pair, only on m for
        # (alpha3, alpha5); rebuild the matrices and recheck curvature
        t_n = {n: F(2 * n + 1, n + 2) for n in range(6)}
        u_m = {m: F(3 * m + 2, m + 1) for m in range(6)}

        def alpha(n, m):
            p = pairs_a[(n, m)]
            return {
                "a1": p.alpha1, "b1": p.beta1,
                "a2": p.alpha2 * t_n[n], "a4": p.alpha4 / t_n[n],
                "a3": p.alpha3 * u_m[m], "a5": p.alpha5 / u_m[m],
            }

        def l_at(n, m):
            here, right = alpha(n, m), alpha(n + 1, m)
            return assemble_l(here["a1"], here["a2"], here["a3"],
                              right["a4"], right["a5"])

        def m_at(n, m):
            here, up = alpha(n, m), alpha(n, m + 1)
            return assemble_m(here["b1"], here["a2"], here["a3"],
                              up["a4"], up["a5"])

        for n in range(3):
            for m in range(3):
                res = l_at(n, m + 1) * m_at(n, m) - m_at(n + 1, m) * l_at(n, m)
                assert res.is_zero
                rescaled = alpha(n, m)
                assert -rescaled["a4"] * rescaled["a2"] == field_a.a(n, m)
                assert -rescaled["a5"] * rescaled["a3"] == field_a.b(n, m)


@pytest.fixture(scope="module")
def series_pair(system_a):
    return LaurentTail(system_a.s1), LaurentTail(system_a.s2)


class TestWaveMatrix:
    def test_origin_structure(self, table_a, series_pair):
        f1, f2 = series_pair
        wave = wave_matrix(table_a, f1, f2, 0, 0)
        assert wave.entry(0, 0)[0] == Poly.of(1)
        assert wave.entry(1, 0)[0].is_zero and wave.entry(2, 0)[0].is_zero
        assert wave.entry(1, 1)[0] == Poly.of(1)
        assert wave.entry(2, 2)[0] == Poly.of(1)
        # columns 2 and 3 of the first row carry the two input series
        assert wave.entry(0, 1)[1].coeffs[:6] == f1.coeffs[:6]
        assert wave.entry(0, 2)[1].coeffs[:6] == f2.coeffs[:6]

    def test_11_leading_polynomial(self, table_a, series_pair):
        f1, f2 = series_pair
        wave = wave_matrix(table_a, f1, f2, 1, 1)
        assert wave.entry(0, 0)[0] == X * X - Poly.of(F(7, 3))

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)])
    def test_propagation_identities(self, table_a, pairs_a, series_pair, n, m):
        f1, f2 = series_pair
        here = wave_matrix(table_a, f1, f2, n, m)
        pair = pairs_a[(n, m)]
        right = wave_matrix(table_a, f1, f2, n + 1, m)
        up = wave_matrix(table_a, f1, f2, n, m + 1)
        assert waves_agree(right, propagate(pair.L, here, n + 1, m))
        assert waves_agree(up, propagate(pair.M, here, n, m + 1))


class TestPathTransport:
    def test_empty_path_is_identity(self, pairs_a):
        assert path_transport(pairs_a, []) == MatPoly.identity(3)

    def test_square_loop_at_corner(self, pairs_a):
        loop = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        assert path_transport(pairs_a, loop) == MatPoly.identity(3)

    def test_square_loops_everywhere(self, pairs_a):
        # walk to (n, m), go around the plaquette, walk back
        for n in range(3):
            for m in range(3):
                path = [(1, 0)] * n + [(0, 1)] * m
                loop = path + [(1, 0), (0, 1), (-1, 0), (0, -1)]
                loop += [(0, -1)] * m + [(-1, 0)] * n
                assert path_transport(pairs_a, loop) == MatPoly.identity(3)

    def test_two_staircases_agree(self, pairs_a):
        stair_one = path_transport(pairs_a, [(1, 0), (0, 1), (1, 0)])
        stair_two = path_transport(pairs_a, [(0, 1), (1, 0), (1, 0)])
        assert stair_one == stair_two

    def test_leaving_window_raises(self, pairs_a):
        with pytest.raises(WindowError):
            path_transport(pairs_a, [(1, 0)] * 40)
        with pytest.raises(WindowError):
            path_transport(pairs_a, [(0, -1)])

    def test_bad_step_rejected(self, pairs_a):
        with pytest.raises(WindowError):
            path_transport(pairs_a, [(1, 1)])

