from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hplax.errors import (DegeneracyError, DisjointSupportError, HplaxError,
                          ParseError, PoleError, TruncationError, WindowError)
from hplax import measures
from hplax.kernel import Poly, X, det_exact
from hplax.measures import (JFraction, MeasureModel, MomentSystem,
                            jfraction_to_moments, make_angelesco,
                            make_nikishin, measure_moments,
                            moments_to_jfraction, monic_orthogonal_polys)


class TestMeasureMoments:
    def test_single_atom(self):
        mu = MeasureModel.discrete([(1, 1)])
        assert measure_moments(mu, 3) == [1, 1, 1]

    def test_interval_minus2_minus1(self):
        mu = MeasureModel.interval(-2, -1)
        assert measure_moments(mu, 4) == [1, F(-3, 2), F(7, 3), F(-15, 4)]

    def test_interval_01(self):
        mu = MeasureModel.interval(0, 1)
        assert measure_moments(mu, 3) == [1, F(1, 2), F(1, 3)]

    def test_bad_interval(self):
        with pytest.raises(DegeneracyError):
            MeasureModel.interval(1, 1)

    def test_repeated_nodes_rejected(self):
        with pytest.raises(DegeneracyError):
            MeasureModel.discrete([(1, 1), (1, 2)])

    @pytest.mark.parametrize("count", [1.5, True, "2"], ids=repr)
    def test_a_count_that_is_not_an_int_is_refused(self, count):
        # with the class a negative count raises, before any moment is formed
        j = moments_to_jfraction([1, 0, 1, 0], 2)
        for read in (lambda: measure_moments(MeasureModel.interval(0, 1), count),
                     lambda: jfraction_to_moments(j, count)):
            with pytest.raises(DegeneracyError, match="count must be an int"):
                read()

    def test_negative_count_rejected(self):
        # as jfraction_to_moments refuses one; both generators read it here
        atoms = MeasureModel.discrete([(1, 1), (2, 1)])
        with pytest.raises(DegeneracyError, match="nonnegative, got -2"):
            measure_moments(MeasureModel.interval(0, 1), -2)
        with pytest.raises(DegeneracyError, match="nonnegative, got -3"):
            make_angelesco(MeasureModel.interval(-2, -1), MeasureModel.interval(1, 2), -3)
        with pytest.raises(DegeneracyError, match="nonnegative, got -1"):
            make_nikishin(atoms, MeasureModel.discrete([(-1, 1)]), -1)


class TestAngelesco:
    def test_system_a(self):
        s = make_angelesco(MeasureModel.interval(-2, -1),
                           MeasureModel.interval(1, 2), 4)
        assert s.s1 == (1, F(-3, 2), F(7, 3), F(-15, 4))
        assert s.s2 == (1, F(3, 2), F(7, 3), F(15, 4))

    def test_two_atoms(self):
        s = make_angelesco(MeasureModel.discrete([(-1, 1)]),
                           MeasureModel.discrete([(1, 1)]), 3)
        assert s.s1 == (1, -1, 1)
        assert s.s2 == (1, 1, 1)

    def test_identical_supports_rejected(self):
        mu = MeasureModel.interval(0, 1)
        with pytest.raises(DisjointSupportError):
            make_angelesco(mu, mu, 3)


class TestNikishin:
    def test_worked_value(self):
        s = make_nikishin(
            MeasureModel.discrete([(1, F(1, 2)), (2, F(1, 2))]),
            MeasureModel.discrete([(-2, F(1, 2)), (-1, F(1, 2))]), 3)
        # sigma2-hat at 1 is 5/12, at 2 is 7/24; weighted sum 17/48
        assert s.s2[0] == F(17, 48)
        assert s.s1[0] == 1

    def test_zero_weight_second_generator(self):
        s = make_nikishin(
            MeasureModel.discrete([(1, F(1, 2)), (2, F(1, 2))]),
            MeasureModel.discrete([(0, 0)]), 4)
        assert all(v == 0 for v in s.s2)

    def test_coincident_node_is_pole(self):
        with pytest.raises(PoleError):
            make_nikishin(MeasureModel.discrete([(1, F(1, 2)), (2, F(1, 2))]),
                          MeasureModel.discrete([(1, 1)]), 3)

    def test_needs_discrete(self):
        with pytest.raises(DegeneracyError):
            make_nikishin(MeasureModel.interval(0, 1),
                          MeasureModel.discrete([(-1, 1)]), 3)


class TestWeightFormedOnce:
    def test_one_division_per_pair_of_atoms(self, monkeypatch):
        # the Cauchy weight of sigma2 at a node of sigma1 does not depend on
        # the moment index; the moments themselves divide no Fraction
        sigma1 = MeasureModel.discrete([(F(k, 2), F(1, k)) for k in range(1, 6)])
        sigma2 = MeasureModel.discrete([(-k, F(k, 3)) for k in range(1, 4)])
        divide, calls = F.__truediv__, []

        def counted(x, y):
            calls[-1] += 1
            return divide(x, y)

        monkeypatch.setattr(F, "__truediv__", counted)
        for count in (1, 2, 7, 30):
            calls.append(0)
            make_nikishin(sigma1, sigma2, count)
        monkeypatch.undo()
        assert calls == [5 * 3] * 4


def power_sums_oracle(atoms, count):
    return [sum((w * t ** k for t, w in atoms), F(0)) for k in range(count)]


def nikishin_oracle(atoms1, atoms2, count):
    """The second Nikishin sequence, the weight recomputed for every k."""
    s2 = []
    for k in range(count):
        acc = F(0)
        for x, v in atoms1:
            weight = sum((w / (x - t) for t, w in atoms2), F(0))
            acc += v * x ** k * weight
        s2.append(acc)
    return s2


def tridiagonal_oracle(j, count):
    """s0 times the (0, 0) entry of T^k, T iterated on every row in Fractions."""
    d = j.depth
    v = [F(1)] + [F(0)] * (d - 1)
    out = []
    for _ in range(count):
        out.append(j.s0 * v[0])
        v = [j.c[i] * v[i] + (v[i + 1] if i + 1 < d else 0)
             + (j.a[i - 1] * v[i - 1] if i else 0) for i in range(d)]
    return out


def same(got, want):
    return got == want and list(map(type, got)) == list(map(type, want))


@st.composite
def rationals(draw, size, nonzero=False, unique=False):
    """size rationals p/q with |p| <= 12, over one shared q or one q each."""
    shared = draw(st.booleans())
    q = draw(st.integers(1, 6))
    nums = st.integers(-12, 12).filter(bool) if nonzero else st.integers(-12, 12)
    return draw(st.lists(st.builds(F, nums, st.just(q) if shared else st.integers(1, 6)),
                         min_size=size, max_size=size, unique=unique))


@st.composite
def atom_lists(draw, max_size=6):
    size = draw(st.integers(0, max_size))
    return list(zip(draw(rationals(size, unique=True)), draw(rationals(size))))


@st.composite
def jfractions_and_counts(draw):
    """A J-fraction of depth d, a of length d - 1 or d, and a count up to
    2 d + 3."""
    d = draw(st.integers(1, 6))
    c = draw(rationals(d))
    a = draw(rationals(d - draw(st.integers(0, 1)), nonzero=True))
    s0 = draw(rationals(1, nonzero=True))[0]
    return JFraction(tuple(c), tuple(a), s0), draw(st.integers(0, 2 * d + 3))


class TestIntegerPowerSums:
    """The discrete and interval moments and jfraction_to_moments against
    plain Fraction definitions: equal values of equal types."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                    min_size=2, max_size=2, unique=True).map(sorted),
           st.integers(0, 12))
    @example([F(-2), F(-1)], 4)
    @example([F(-1, 3), F(5, 2)], 0)
    def test_interval_moments(self, ends, count):
        lo, hi = ends
        want = [(hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k in range(count)]
        assert same(measure_moments(MeasureModel.interval(lo, hi), count), want)

    @settings(max_examples=150, deadline=None)
    @given(atom_lists(), st.integers(0, 12))
    @example([], 3)
    @example([(F(0), F(2))], 1)
    @example([(F(0), F(-1, 2)), (F(-3), F(2, 3))], 0)
    def test_measure_moments(self, atoms, count):
        mu = MeasureModel.discrete(atoms)
        assert same(measure_moments(mu, count), power_sums_oracle(mu.atoms, count))

    @settings(max_examples=150, deadline=None)
    @given(atom_lists(), atom_lists(max_size=4), st.booleans(), st.integers(0, 12))
    @example([(F(0), F(1))], [], False, 4)
    @example([(F(1, 2), F(-2)), (F(0), F(1, 3))], [(F(-1), F(1, 5))], False, 1)
    def test_nikishin(self, atoms1, atoms2, above, count):
        # an empty sigma1 has no support for a sigma2 to be disjoint from
        assume(atoms1 or not atoms2)
        if atoms1:
            # sigma2 wholly above or below sigma1; abs may merge two nodes
            nodes1 = [x for x, _ in atoms1]
            edge = max(nodes1) + 1 if above else min(nodes1) - 1
            atoms2 = list(dict((edge + abs(t) if above else edge - abs(t), w)
                               for t, w in atoms2).items())
        sigma1, sigma2 = MeasureModel.discrete(atoms1), MeasureModel.discrete(atoms2)
        system = make_nikishin(sigma1, sigma2, count)
        assert same(list(system.s1), power_sums_oracle(sigma1.atoms, count))
        assert same(list(system.s2), nikishin_oracle(sigma1.atoms, sigma2.atoms, count))

    @settings(max_examples=150, deadline=None)
    @given(jfractions_and_counts())
    @example((JFraction((F(1, 2),), (), F(3)), 1))
    @example((JFraction((F(0), F(-2)), (F(1, 3), F(5)), F(-1)), 7))
    def test_jfraction_to_moments(self, case):
        j, count = case
        assert same(jfraction_to_moments(j, count), tridiagonal_oracle(j, count))


class TestMomentSystem:
    def test_length_mismatch(self):
        with pytest.raises(DegeneracyError):
            MomentSystem((F(1),), (F(1), F(2)))

    @pytest.mark.parametrize("bad", [1, None, {1, 2}, "12", b"12", bytearray(b"12")],
                             ids=repr)
    def test_a_sequence_that_is_not_one_is_a_parse_error(self, bad):
        # refused where it enters, before any value is read; a str is a
        # Sequence of characters, so "12" would read as the moments (1, 2),
        # and the bytes types would read as character codes
        with pytest.raises(ParseError, match="must be a sequence"):
            MomentSystem(bad, (1, 2))
        with pytest.raises(ParseError, match="must be a sequence"):
            MomentSystem((1, 2), bad)

    @pytest.mark.parametrize("bad", ["a", "1/0", [1], None, float("inf")], ids=repr)
    def test_a_value_that_is_not_a_rational_is_a_parse_error(self, bad):
        # kernel.rat, where every value enters, raises no bare ValueError
        with pytest.raises(ParseError, match="bad rational") as caught:
            MomentSystem((bad,), ("b",))
        assert caught.value.exit_code == 2


class TestJFraction:
    def test_lebesgue01(self):
        j = moments_to_jfraction(measure_moments(MeasureModel.interval(0, 1), 10), 2)
        assert j.c[0] == F(1, 2)
        assert j.a[0] == F(1, 12)
        assert j.s0 == 1

    def test_lebesgue_minus(self):
        j = moments_to_jfraction(measure_moments(MeasureModel.interval(-2, -1), 10), 2)
        assert j.c[0] == F(-3, 2)
        assert j.a[0] == F(1, 12)

    def test_atom_degenerates_past_depth_one(self):
        moments = measure_moments(MeasureModel.discrete([(5, 1)]), 10)
        j = moments_to_jfraction(moments, 1)
        assert j.c == (5,)
        with pytest.raises(DegeneracyError):
            moments_to_jfraction(moments, 2)

    def test_needs_enough_moments(self):
        with pytest.raises(TruncationError):
            moments_to_jfraction([1, 1], 2)

    def test_to_moments_trivial(self):
        assert jfraction_to_moments(JFraction((F(1, 2),), (), F(1)), 1) == [1]

    def test_to_moments_lebesgue01_shape(self):
        j = JFraction((F(1, 2), F(1, 2)), (F(1, 12),), F(1))
        assert jfraction_to_moments(j, 3) == [1, F(1, 2), F(1, 3)]

    def test_to_moments_lebesgue_minus(self):
        j = JFraction((F(-3, 2), F(-3, 2)), (F(1, 12),), F(1))
        assert jfraction_to_moments(j, 3) == [1, F(-3, 2), F(7, 3)]

    def test_zero_subdiagonal_rejected(self):
        with pytest.raises(DegeneracyError):
            JFraction((F(0), F(0)), (F(0),), F(1))

    @pytest.mark.parametrize("depth", [1.5, True, "2"], ids=repr)
    def test_a_depth_that_is_not_an_int_is_refused(self, depth):
        # with the class a depth below 1 raises
        with pytest.raises(DegeneracyError, match="depth must be an int"):
            moments_to_jfraction([1, 0, 1, 0], depth)

    def test_depth_zero_rejected(self):
        with pytest.raises(DegeneracyError, match="depth must be at least 1"):
            JFraction((), (), F(1))

    def test_zero_mass_rejected(self):
        # every moment would vanish; a negative mass stays allowed
        with pytest.raises(DegeneracyError, match="s0 must be nonzero"):
            JFraction((F(1, 2),), (), 0)
        assert jfraction_to_moments(JFraction((F(1, 2),), (), -2), 2) == [-2, -1]

    @pytest.mark.parametrize("measure", [
        MeasureModel.interval(0, 1),
        MeasureModel.interval(-2, -1),
        MeasureModel.discrete([(0, F(1, 3)), (1, F(1, 3)), (3, F(1, 3))]),
        MeasureModel.discrete([(F(-1, 2), 2), (F(5, 7), 1), (4, F(2, 3)), (6, 1)]),
    ])
    def test_roundtrip(self, measure):
        moments = measure_moments(measure, 10)
        depth = 5 if measure.kind == "interval" else len(measure.atoms)
        j = moments_to_jfraction(moments, depth)
        back = jfraction_to_moments(j, 2 * depth)
        assert back == moments[:2 * depth]

    @pytest.mark.parametrize("interval", [(0, 1), (-2, -1), (1, 2), (F(-1, 3), F(5, 2))])
    def test_interval_measures_have_positive_a(self, interval):
        moments = measure_moments(MeasureModel.interval(*interval), 12)
        j = moments_to_jfraction(moments, 6)
        assert all(v > 0 for v in j.a)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-8, 8),
                  st.fractions(min_value=F(1, 7), max_value=3, max_denominator=7)),
        min_size=1, max_size=4, unique_by=lambda t: t[0]))
    def test_positive_measures_have_positive_a(self, atoms):
        mu = MeasureModel.discrete(atoms)
        depth = len(atoms)
        moments = measure_moments(mu, 2 * depth)
        j = moments_to_jfraction(moments, depth)
        assert all(v > 0 for v in j.a)
        assert jfraction_to_moments(j, 2 * depth) == moments


def outcome(read, *args):
    """What a read returns, or the type and text of what it raises."""
    try:
        return read(*args)
    except HplaxError as exc:
        return type(exc), str(exc)


def plain_chebyshev(s, depth):
    """Chebyshev's algorithm with every mixed moment sigma_(k,l) a reduced
    Fraction: the oracle of ``moments_to_jfraction``'s values and errors.
    Row k is read at l >= k only; prev is row k - 1."""
    s = [F(x) for x in s]
    if depth < 1:
        raise DegeneracyError("J-fraction depth must be at least 1")
    if len(s) < 2 * depth:
        raise TruncationError(f"depth {depth} needs {2 * depth} moments, have {len(s)}")
    c, a = [], []
    prev, row = [0] * (2 * depth), s[:2 * depth]
    for k in range(depth):
        if row[k] == 0:
            raise DegeneracyError(
                f"vanishing Hankel determinant: functional degenerates at depth {k}")
        c.append(row[k + 1] / row[k] - (prev[k] / prev[k - 1] if k else 0))
        if k:
            a.append(row[k] / prev[k - 1])
        ak = a[-1] if k else 0
        prev, row = row, [row[l + 1] - c[k] * row[l] - ak * prev[l] if l > k else 0
                          for l in range(2 * depth - k - 1)]
    return JFraction(tuple(c), tuple(a), s[0])


@st.composite
def chebyshev_inputs(draw):
    """A depth up to 8 and from 2 short to 3 past its 2 depth moments: the
    moments of a random J-fraction with rational entries, the same with a
    zero planted, or small integers, mostly zero."""
    depth = draw(st.integers(0, 8))
    count = max(2 * depth + draw(st.sampled_from([-2, -1, 0, 0, 0, 0, 1, 3])), 0)
    kind = draw(st.sampled_from(["rebuilt", "planted", "zeros"]))
    if kind == "zeros":
        return draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2)]),
                             min_size=count, max_size=count)), depth
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    c = draw(st.lists(entry, min_size=depth + 2, max_size=depth + 2))
    a = draw(st.lists(entry.filter(bool), min_size=depth + 1, max_size=depth + 1))
    s = jfraction_to_moments(JFraction(tuple(c), tuple(a), draw(entry.filter(bool))), count)
    if kind == "planted" and s:
        s[draw(st.integers(0, len(s) - 1))] = 0
    return s, depth


class TestChebyshevAlgorithm:
    """moments_to_jfraction on arbitrary data, with its left inverse
    jfraction_to_moments, Hankel determinants and the recurrence in plain
    Fractions (``plain_chebyshev``) as the oracles."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), max_size=14),
           st.integers(0, 7))
    def test_value_or_the_first_vanishing_hankel_block(self, s, depth):
        if depth < 1:
            with pytest.raises(DegeneracyError, match="at least 1"):
                moments_to_jfraction(s, depth)
            return
        if len(s) < 2 * depth:
            with pytest.raises(TruncationError):
                moments_to_jfraction(s, depth)
            return
        singular = [k for k in range(depth)
                    if det_exact([[s[i + j] for j in range(k + 1)]
                                  for i in range(k + 1)]) == 0]
        if singular:
            with pytest.raises(DegeneracyError, match=f"at depth {singular[0]}$"):
                moments_to_jfraction(s, depth)
        else:
            j = moments_to_jfraction(s, depth)
            assert jfraction_to_moments(j, 2 * depth) == s[:2 * depth]

    def test_forms_no_polynomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("polynomial arithmetic")

        moments = make_angelesco(MeasureModel.interval(-2, -1),
                                 MeasureModel.interval(1, 2), 24).s1
        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(measures, "moment_pairing", refuse, raising=False)
        j = moments_to_jfraction(moments, 12)
        assert jfraction_to_moments(j, 24) == list(moments)

    @pytest.mark.parametrize("bad, match", [
        (["1", "x"], "bad rational 'x'"), ([1, None], "bad rational None"),
        ("12", "must be a sequence"), (b"12", "must be a sequence"),
        (bytearray(b"12"), "must be a sequence"), (12, "must be a sequence")],
        ids=repr)
    def test_a_bad_moment_is_a_parse_error(self, bad, match):
        # each moment enters through kernel.rat, as in MomentSystem; a str
        # would read as the moments 1, 2
        with pytest.raises(ParseError, match=match):
            measures.jfraction_entries(bad)

    def test_moments_read_as_rat_reads_them(self):
        assert measures.jfraction_entries(["1", "1/2", 1]) == measures.jfraction_entries(
            [F(1), F(1, 2), F(1)])

    def test_rows_stay_reduced(self, monkeypatch):
        # each row's content is divided out, which keeps the operands of
        # every Fraction the kernel builds small; without it the
        # denominators multiply up row after row, past 16,000 bits here
        s = measure_moments(MeasureModel.interval(F(-5, 2), F(-1, 2)), 16)
        bits = []

        def recording(num, den):
            bits.append(max(num.bit_length(), den.bit_length()))
            return F(num, den)

        monkeypatch.setattr(measures, "Fraction", recording)
        entries = measures.jfraction_entries(s)
        monkeypatch.undo()
        assert len(entries) == len(bits) == 16
        assert max(bits) <= 64

    def test_zero_moments_from_a_jfraction(self):
        j = JFraction((F(1, 2),), (), F(1))
        assert jfraction_to_moments(j, 0) == []
        with pytest.raises(DegeneracyError, match="nonnegative"):
            jfraction_to_moments(j, -1)

    @settings(max_examples=150, deadline=None)
    @given(chebyshev_inputs())
    # one moment short of depth 3; a zero norm at depth 1; depth 0
    @example(([1, 2, 5, 14, 42], 3))
    @example(([1, 1, 1, 1], 2))
    @example(([F(1, 2)], 0))
    def test_meets_plain_fractions(self, drawn):
        s, depth = drawn
        assert outcome(moments_to_jfraction, s, depth) == outcome(plain_chebyshev, s, depth)


class TestMonicOrthogonalPolys:
    def test_lebesgue01(self):
        polys = monic_orthogonal_polys(
            measure_moments(MeasureModel.interval(0, 1), 10), 2)
        assert polys[1] == X - Poly.of(F(1, 2))
        assert polys[2] == X * X - X + Poly.of(F(1, 6))

    @pytest.mark.parametrize("upto", [-1, -2])
    def test_negative_degree_refused(self, upto):
        with pytest.raises(WindowError, match="negative"):
            monic_orthogonal_polys(measure_moments(MeasureModel.interval(0, 1), 10), upto)

    def test_degenerate_atom(self):
        moments = measure_moments(MeasureModel.discrete([(5, 1)]), 10)
        with pytest.raises(DegeneracyError):
            monic_orthogonal_polys(moments, 3)

    def test_first_vanishing_hankel_determinant_names_the_depth(self):
        # order 2: 1*1 - 1*1 = 0; order 3: -(s3 - 1)^2 = -1, so a row
        # exchange would step past depth 2, which must still raise
        moments = [1, 1, 1, 0, 0, 0]
        assert monic_orthogonal_polys(moments, 1) == [Poly.of(1), X - Poly.of(1)]
        with pytest.raises(DegeneracyError, match="depth 2 "):
            monic_orthogonal_polys(moments, 3)
