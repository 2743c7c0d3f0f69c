from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hplax import classical
from hplax.classical import (QdField, cf_tail_eval, hankel_shifted, lax_l,
                             lax_m_num, qd_vw, three_term_check,
                             transition_2x2, zcc2_residual)
from hplax.errors import DegeneracyError, ParseError, TruncationError, WindowError
from hplax.hptable import HPTable
from hplax.kernel import MatPoly, Poly, X, cleared
from hplax.measures import (MeasureModel, MomentSystem, measure_moments,
                            moments_to_jfraction, monic_orthogonal_polys)


@pytest.fixture(scope="module")
def leb01():
    return measure_moments(MeasureModel.interval(0, 1), 26)


@pytest.fixture(scope="module")
def atom_one():
    return measure_moments(MeasureModel.discrete([(1, 1)]), 20)


class TestHankelShifted:
    def test_size_zero(self, leb01):
        assert hankel_shifted(leb01, 0, 5) == 1

    def test_2x2(self, leb01):
        assert hankel_shifted(leb01, 2, 0) == F(1, 12)

    def test_1x1_shifted(self, leb01):
        assert hankel_shifted(leb01, 1, 1) == F(1, 2)

    def test_truncation(self):
        with pytest.raises(TruncationError):
            hankel_shifted([1, 1], 2, 1)


@pytest.mark.parametrize("bad", ["1234", b"1234", bytearray(b"1234"), 1234, None],
                         ids=repr)
@pytest.mark.parametrize("read", [
    QdField,
    lambda s: hankel_shifted(s, 2, 0),
    lambda s: qd_vw(s, 0, 0),
    lambda s: monic_orthogonal_polys(s, 1),
], ids=["QdField", "hankel_shifted", "qd_vw", "monic_orthogonal_polys"])
def test_a_moment_sequence_that_is_not_one_is_a_parse_error(bad, read):
    # a str is a Sequence of characters: "1234" read as the moments 1, 2, 3, 4
    with pytest.raises(ParseError, match="must be a sequence"):
        read(bad)


class TestQdVW:
    def test_lebesgue_01(self, leb01):
        v, w = qd_vw(leb01, 0, 0)
        assert v == F(1, 2) and w == F(1, 2)

    def test_atom(self, atom_one):
        v, _ = qd_vw(atom_one, 0, 0)
        assert v == 1

    def test_degenerate_denominator(self, atom_one):
        # rank-1 Hankel data vanish once the blocks exceed the atom count
        with pytest.raises(DegeneracyError):
            qd_vw(atom_one, 1, 0)

    def test_positive_on_window(self, leb01):
        for n in range(3):
            for k in range(3):
                v, w = qd_vw(leb01, n, k)
                assert v > 0 and w > 0


class TestQdField:
    def test_memoized_grids_match_functions(self, leb01):
        qd = QdField(leb01)
        for n in range(3):
            for k in range(3):
                v, w = qd_vw(leb01, n, k)
                assert qd.vw(n, k) == (v, w)
        assert qd.hankel(0, 7) == 1
        assert qd.hankel(2, 0) == F(1, 12)
        # memo returns the very same cached objects on re-read
        assert qd.vw(1, 1) is qd.vw(1, 1)


def outcome(read, *args):
    """What a read returns, or the type and text of what it raises."""
    try:
        return read(*args)
    except (DegeneracyError, TruncationError, WindowError) as exc:
        return type(exc), str(exc)


class TestQdFieldOnRandomSequences:
    """The leading-minor route against plain Hankel determinants on
    zero-laden sequences of every length, read in shuffled order; a
    negative index raises WindowError on both routes, also after deeper
    reads have filled the eliminations."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2)]), max_size=12),
           st.randoms(use_true_random=False))
    def test_values_and_errors_meet_the_oracle(self, moments, rng):
        qd = QdField(moments)
        reads = [(kind, n, k) for kind in ("hankel", "vw")
                 for n in range(-1, 5) for k in range(-1, 5)]
        rng.shuffle(reads)
        oracle = {"hankel": hankel_shifted, "vw": qd_vw}
        for kind, n, k in reads:
            got = outcome(getattr(qd, kind), n, k)
            assert got == outcome(oracle[kind], moments, n, k), (kind, n, k)
            if min(n, k) < 0:
                assert got[0] is WindowError, (kind, n, k)


@pytest.mark.parametrize("n, k", [(1.5, 0), (0, 1.5), (True, 0), (1, False), ("1", 0),
                                  (2.0, 1)], ids=repr)
def test_an_index_that_is_not_an_int_is_refused(n, k):
    # the QdField reads and both oracles refuse it with WindowError, as a
    # negative index, rather than raising a bare TypeError or reading a bool
    moments = [1, F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 6), F(1, 7), F(1, 8)]
    qd = QdField(moments)
    for read in (qd.minor, qd.hankel, qd.vw, lambda n, k: hankel_shifted(moments, n, k),
                 lambda n, k: qd_vw(moments, n, k)):
        with pytest.raises(WindowError, match="Hankel block (order|shift) must be an int"):
            read(n, k)


class TestQdFieldRoute:
    """The recurrence part of the minor route, and the elimination part it
    reads only where the recurrence's divisor vanishes."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.integers(-30, 30).filter(bool),
                              st.fractions(-5, 5, max_denominator=6).filter(bool)),
                    min_size=1, max_size=14),
           st.randoms(use_true_random=False))
    def test_recurrence_minors_meet_the_determinants(self, moments, rng):
        blocks = [(n, k) for k in range(len(moments))
                  for n in range(1, (len(moments) - k + 1) // 2 + 1)]
        oracle = {block: hankel_shifted(moments, *block) for block in blocks}
        assume(all(oracle.values()))
        _, scale = cleared([F(x) for x in moments])
        qd = QdField(moments)
        rng.shuffle(blocks)
        for n, k in blocks:
            assert qd.minor(n, k) == oracle[n, k] * scale ** n, (n, k)
            assert qd.hankel(n, k) == oracle[n, k], (n, k)
        assert qd._shifts == {}         # no divisor vanished, so no elimination

    @pytest.mark.parametrize("measure, shifts", [
        (MeasureModel.interval(-1, 1), [1, 3, 5, 7, 9]),
        (MeasureModel.discrete([(-2, 1), (-1, 3), (1, 3), (2, 1)]), [0, 1, 3, 5, 7, 9]),
    ], ids=["interval", "four-atoms"])
    def test_a_symmetric_measure_reaches_the_elimination(self, measure, shifts):
        # the odd moments vanish, so M(1, k) = 0 at odd k divides M(3, k - 2),
        # and M(3, k) = 0 at odd k divides M(5, k - 2); with four atoms
        # M(5, 2) = 0 divides M(7, 0) too.  Only those shifts are eliminated.
        moments = measure_moments(measure, 14)
        qd = QdField(moments)
        oracle = {"hankel": hankel_shifted, "vw": qd_vw}
        for kind in ("hankel", "vw"):
            for n in range(8):
                for k in range(8):
                    assert (outcome(getattr(qd, kind), n, k)
                            == outcome(oracle[kind], moments, n, k)), (kind, n, k)
        assert sorted(qd._shifts) == shifts


class TestQdIdentities:
    """The qd identities read in V and W on random sequences, wherever the
    reads are defined.  With V(n, k) = q_(n+1)^(k) and
    V(n, k) - W(n, k) = e_n^(k+1), the rhombus rules (Rutishauser 1954;
    Henrici 1974, section 7.6) are r = 0 and
    e_n^(k+1) q_(n+1)^(k+1) = q_n^(k+2) e_n^(k+2); rho = 0 follows.  The
    J-fraction is c_n = q_(n+1)^(0) + e_n^(0) and a_n = q_n^(0) e_n^(0),
    where e_n^(0) = V(n-1, 1) - W(n-1, 0) by the first rule."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, -1, 2, -3, 3, F(1, 2)]),
                    min_size=2, max_size=14))
    def test_rhombus_rules_and_jfraction(self, moments):
        qd = QdField(moments)

        def vw(n, k):
            try:
                return qd.vw(n, k)
            except (DegeneracyError, TruncationError):
                return None

        for n in range(5):
            for k in range(5):
                reads = [vw(n, k), vw(n, k + 1), vw(n, k + 2), vw(n + 1, k)]
                if None in reads:
                    continue
                (v, w), (v1, w1), (v2, _), (v_right, w_right) = reads
                assert w_right - v_right + v2 - w1 == 0, (n, k)
                assert w_right * (v1 - w) + w * (w1 - v2) == 0, (n, k)
                up = vw(n - 1, k + 2) if n else None
                if up is not None:
                    assert (v - w) * v1 == up[0] * (v1 - w1), (n, k)

        for depth in range(len(moments) // 2, 0, -1):
            try:
                j = moments_to_jfraction(moments, depth)
            except DegeneracyError:
                continue
            if vw(0, 0) is not None:
                assert j.c[0] == vw(0, 0)[0]
            for n in range(1, depth):
                here, left, up = vw(n, 0), vw(n - 1, 0), vw(n - 1, 1)
                if None not in (here, left, up):
                    e_n = up[0] - left[1]
                    assert j.c[n] == here[0] + e_n, n
                    assert j.a[n - 1] == left[0] * e_n, n
            break


class TestTransition2x2:
    def test_lebesgue_entries(self, leb01):
        l_mat, _ = transition_2x2(leb01, 0, 0)
        assert l_mat.entry(0, 0) == Poly.of(F(-1, 2))
        assert l_mat.entry(0, 1) == X

    def test_m_numerator_zero_corner(self, leb01):
        _, m_num = transition_2x2(leb01, 0, 0)
        assert m_num.entry(0, 0).is_zero
        assert m_num.entry(0, 1) == X

    def test_atom_corner_entry(self, atom_one):
        l_mat, _ = transition_2x2(atom_one, 0, 0)
        # V = W for atom moments, so the (2,2) entry collapses to x
        assert l_mat.entry(1, 1) == X


small_values = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class DrawnQd(QdField):
    """A QdField whose V and W are given outright."""

    def __init__(self, values):
        super().__init__([])
        self.values = values

    def vw(self, n, k):
        return self.values[(n, k)]


def transition_residual(qd, n, k):
    """The zero-curvature residual as two products of transition pairs."""
    l_here, m_here = transition_2x2(qd, n, k)
    l_up, _ = transition_2x2(qd, n, k + 1)
    _, m_right = transition_2x2(qd, n + 1, k)
    return l_up * m_here - m_right * l_here


def closed_form(qd, n, k):
    """The scalars (V r, rho, r) of ``zcc2_residual`` as the residual matrix
    [[0, 0], [V r, rho - r x]] they stand for."""
    vr, rho, r = zcc2_residual(qd, n, k)
    return MatPoly(((Poly(), Poly()), (Poly.of(vr), Poly.of(rho, -r))))


class RecordingMinors(dict):
    """A minor memo that records the key of each store."""

    def __init__(self, entries):
        super().__init__(entries)
        self.keys_stored = []

    def __setitem__(self, key, value):
        self.keys_stored.append(key)
        super().__setitem__(key, value)


class TestZcc2:
    def test_zero_at_origin(self, leb01):
        assert not any(zcc2_residual(leb01, 0, 0))

    def test_zero_on_window(self, leb01):
        for n in range(3):
            for k in range(3):
                assert not any(zcc2_residual(leb01, n, k)), (n, k)

    def test_zero_for_discrete_positive_measure(self):
        moments = measure_moments(
            MeasureModel.discrete([(1, 1), (2, 1), (3, 1), (4, 1)]), 20)
        for n in range(2):
            for k in range(2):
                assert not any(zcc2_residual(moments, n, k)), (n, k)

    def test_field_memo_takes_each_hankel_block_once(self, leb01, monkeypatch):
        built = []
        build = classical.lax_l

        def refuse(row, width):
            raise AssertionError("an elimination where no divisor vanishes")

        def recording_l(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(classical, "LeadingMinors", refuse)
        monkeypatch.setattr(classical, "lax_l", recording_l)
        grid = [(n, k) for n in range(3) for k in range(3)]
        qd = QdField(leb01)
        qd._minors = stored = RecordingMinors(qd._minors)
        first = [zcc2_residual(qd, n, k) for n, k in grid]
        # the stencils reach V at (3, 3), which reads M(4, 4), the block that
        # ends at moment 10; every deeper minor up to it is computed once
        assert sorted(stored.keys_stored) == sorted(
            (j, i) for j in range(2, 7) for i in range(13 - 2 * j))
        assert built == []      # the closed form builds no transition pair
        stored.keys_stored.clear()
        assert [zcc2_residual(qd, n, k) for n, k in grid] == first
        assert stored.keys_stored == [] and built == []

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(small_values, small_values), min_size=12, max_size=12))
    def test_closed_form_meets_the_products_on_any_values(self, values):
        # V and W drawn freely at (0..2, 0..3), not from a sequence, so the
        # residual is mostly not zero
        qd = DrawnQd(dict(zip([(n, k) for n in range(3) for k in range(4)], values)))
        for n in range(2):
            for k in range(2):
                assert closed_form(qd, n, k) == transition_residual(qd, n, k)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2)]), max_size=12))
    def test_closed_form_meets_the_products_on_sequences(self, moments):
        # values or the same error: the reads come in the products' order
        qd, oracle = QdField(moments), QdField(moments)
        for n in range(4):
            for k in range(4):
                assert (outcome(closed_form, qd, n, k)
                        == outcome(transition_residual, oracle, n, k)), (n, k)

    def test_perturbed_v_breaks_it(self, leb01):
        # inject the bumped V into one matrix of the stencil: the residual
        # detects the inconsistency (a consistent bump of the corner V drops
        # out of this stencil identically)
        def l_at(n, k):
            v, w = qd_vw(leb01, n, k)
            v1, _ = qd_vw(leb01, n, k + 1)
            return lax_l(v, w, v1)

        v, w = qd_vw(leb01, 0, 0)
        bad_m = lax_m_num(v + 1, w)
        _, m_right = transition_2x2(leb01, 1, 0)
        res = l_at(0, 1) * bad_m - m_right * l_at(0, 0)
        assert not res.is_zero


class TestThreeTerm:
    def test_lebesgue_polys(self, leb01):
        j = moments_to_jfraction(leb01, 4)
        residuals = three_term_check(j, 3)
        assert all(r.is_zero for r in residuals)
        polys = monic_orthogonal_polys(leb01, 2)
        assert polys[1] == X - Poly.of(F(1, 2))
        assert polys[2] == X * X - X + Poly.of(F(1, 6))

    def test_single_atom(self):
        moments = measure_moments(MeasureModel.discrete([(F(5, 2), 1)]), 4)
        j = moments_to_jfraction(moments, 1)
        assert three_term_check(j, 1)[0].is_zero
        polys = monic_orthogonal_polys(moments, 1)
        assert polys[1] == X - Poly.of(F(5, 2))

    def test_lebesgue_minus(self):
        moments = measure_moments(MeasureModel.interval(-2, -1), 12)
        polys = monic_orthogonal_polys(moments, 1)
        assert polys[1] == X + Poly.of(F(3, 2))
        j = moments_to_jfraction(moments, 5)
        assert all(r.is_zero for r in three_term_check(j, 4))

    def test_depth_guard(self, leb01):
        j = moments_to_jfraction(leb01, 2)
        with pytest.raises(WindowError):
            three_term_check(j, 5)

    def test_negative_degree_refused(self, leb01):
        j = moments_to_jfraction(leb01, 2)
        assert three_term_check(j, 0) == []
        with pytest.raises(WindowError, match="negative"):
            three_term_check(j, -1)


class TestCfTailEval:
    def test_depth_zero_shape(self, leb01):
        j = moments_to_jfraction(leb01, 3)
        num, den = cf_tail_eval(j, 0)
        assert num == Poly.of(-1)
        assert den == X - Poly.of(j.c[0])

    def test_matches_monic_ratio(self, leb01):
        j = moments_to_jfraction(leb01, 6)
        polys = monic_orthogonal_polys(leb01, 6)
        for depth in range(5):
            num, den = cf_tail_eval(j, depth)
            # rational-function identity, normalization-invariant:
            # num/den == -pi_depth / pi_(depth+1)
            assert num * polys[depth + 1] == -polys[depth] * den

    def test_atom_depth_guard(self):
        moments = measure_moments(MeasureModel.discrete([(2, 1)]), 6)
        j = moments_to_jfraction(moments, 1)
        with pytest.raises(WindowError):
            cf_tail_eval(j, 1)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
atomic = st.lists(
    st.tuples(small_rationals,
              st.fractions(min_value=F(1, 5), max_value=2, max_denominator=5)),
    min_size=1, max_size=4, unique_by=lambda atom: atom[0]
).map(lambda atoms: (MeasureModel.discrete(atoms), len(atoms)))
interval = st.tuples(
    st.lists(small_rationals, min_size=2, max_size=2, unique=True),
    st.integers(1, 4)
).map(lambda ends_depth: (MeasureModel.interval(*sorted(ends_depth[0])),
                          ends_depth[1]))


class TestOracleOnRandomMeasures:
    """Recurrence route against the determinant route on positive measures,
    to a depth at which every Hankel determinant is nonzero."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(atomic, interval))
    def test_recurrence_meets_determinant_route(self, measure_depth):
        mu, depth = measure_depth
        s = measure_moments(mu, 2 * depth)
        j = moments_to_jfraction(s, depth)
        assert all(r.is_zero for r in three_term_check(j, depth))
        polys = monic_orthogonal_polys(s, depth)
        for d in range(depth):
            num, den = cf_tail_eval(j, d)
            assert num * polys[d + 1] == -polys[d] * den
        table = HPTable(MomentSystem(s, s), depth, 0)
        for n in range(depth + 1):
            assert polys[n] == table.hp_poly_solve(n, 0)
