"""The library's entry checks: a count, level, depth, degree or index
meets ``errors.check_int`` where it enters, an argument that must be one
of the library's objects meets ``errors.check_type``, and a sequence of
values meets ``errors.check_sequence``.  Each call below returns or raises
an HplaxError subclass on any argument; an argument that the check refuses
raises the class of its site, never a bare exception and never a result."""

from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hplax.bvp import (boundary_from_field, boundary_from_moments, boundary_from_table,
                       cross_validate, field_from_moments, sweep_solve)
from hplax.classical import QdField, cf_tail_eval, hankel_shifted, qd_vw, three_term_check
from hplax.errors import DegeneracyError, HplaxError, ParseError, WindowError
from hplax.hptable import HPTable
from hplax.measures import (JFraction, MeasureModel, jfraction_to_moments, make_angelesco,
                            measure_moments, moments_to_jfraction, monic_orthogonal_polys)
from hplax.nnrr import field_from_table, m_minus_series

SYSTEM = make_angelesco(MeasureModel.interval(-2, -1), MeasureModel.interval(1, 2), 12)
TABLE = HPTable(SYSTEM, 2, 2)
FIELD = field_from_table(TABLE, 1, 1)
BOUNDARY = boundary_from_moments(SYSTEM, 2)
MOMENTS = [F(1, k + 1) for k in range(8)]
J = moments_to_jfraction(MOMENTS, 3)
QD = QdField(MOMENTS)


class Count(NamedTuple):
    """An int argument: its valid values least..most and the class that
    refuses the rest."""
    least: int = 0
    most: int | None = None
    error: type = WindowError


class Typed(NamedTuple):
    """An argument that must be one of the library's objects, such as value."""
    value: object


class Values(NamedTuple):
    """An argument that must be a sequence of values, such as value."""
    value: object


# each call: the function, then each argument as a value passed as is, a
# Count, a Typed or a Values; one argument at a time is mutated
CALLS = {
    "measure_moments": (measure_moments, MeasureModel.interval(0, 1),
                        Count(error=DegeneracyError)),
    "jfraction_to_moments": (jfraction_to_moments, J, Count(error=DegeneracyError)),
    "moments_to_jfraction": (moments_to_jfraction, MOMENTS, Count(1, error=DegeneracyError)),
    "monic_orthogonal_polys": (monic_orthogonal_polys, MOMENTS, Count()),
    "hankel_shifted": (hankel_shifted, MOMENTS, Count(), Count()),
    "qd_vw": (qd_vw, MOMENTS, Count(), Count()),
    "QdField.minor": (QD.minor, Count(), Count()),
    "three_term_check": (three_term_check, J, Count()),
    "cf_tail_eval": (cf_tail_eval, J, Count()),
    "HPTable.pairing": (TABLE.pairing, Count(1, 2), 1, 1, Count()),
    "m_minus_series": (m_minus_series, TABLE, Count(1, 2), 1, 1, Count(1)),
    "boundary_from_field": (boundary_from_field, Typed(FIELD), Count()),
    "boundary_from_table": (boundary_from_table, TABLE, Count()),
    "boundary_from_moments": (boundary_from_moments, Typed(SYSTEM), Count()),
    "HPTable": (HPTable, Typed(SYSTEM), 1, 1),
    "cross_validate": (cross_validate, Typed(SYSTEM), 1, 1),
    "field_from_moments": (field_from_moments, Typed(SYSTEM), 1, 1),
    "field_from_table": (field_from_table, Typed(TABLE), 1, 1),
    "sweep_solve": (sweep_solve, Typed(BOUNDARY), 1, 1),
    "JFraction": (JFraction, Values(J.c), Values(J.a), J.s0),
    "MeasureModel.discrete": (MeasureModel.discrete, Values([(0, 1), (F(1, 2), 2)])),
}


def int_mutations(least):
    """Below the least value, a float, a bool, a str and None."""
    return [least - 1, -1, 1.5, True, "2", None]


TYPE_MUTATIONS = ["x", [1, 2], None]
# a str or bytes would read as characters or character codes
VALUES_MUTATIONS = ["12", b"12", 5, None]


@st.composite
def calls(draw):
    """A call of CALLS with valid arguments, and at most one of its checked
    arguments mutated; with the class that must refuse it, if any."""
    name = draw(st.sampled_from(sorted(CALLS)))
    fn, *spec = CALLS[name]
    checked = [i for i, arg in enumerate(spec) if isinstance(arg, (Count, Typed, Values))]
    mutated = draw(st.sampled_from([None] + checked))
    args, refused_by = [], None
    for i, arg in enumerate(spec):
        if isinstance(arg, Count):
            if i == mutated:
                args.append(draw(st.sampled_from(int_mutations(arg.least))))
                refused_by = arg.error
            else:
                most = arg.least + 2 if arg.most is None else arg.most
                args.append(draw(st.integers(arg.least, most)))
        elif isinstance(arg, (Typed, Values)):
            if i == mutated:
                mutations = TYPE_MUTATIONS if isinstance(arg, Typed) else VALUES_MUTATIONS
                args.append(draw(st.sampled_from(mutations)))
                refused_by = ParseError
            else:
                args.append(arg.value)
        else:
            args.append(arg)
    return name, fn, args, refused_by


class TestLibraryContract:
    @settings(max_examples=250, deadline=None)
    @given(calls())
    def test_returns_or_raises_a_library_error(self, drawn):
        name, fn, args, refused_by = drawn
        if refused_by is None:
            try:
                fn(*args)
            except HplaxError:
                pass
            return
        with pytest.raises(refused_by):
            fn(*args)

    @pytest.mark.parametrize("call", [
        lambda: monic_orthogonal_polys(MOMENTS, 1.5),
        lambda: three_term_check(J, 1.5),
        lambda: cf_tail_eval(J, 1.5),
        lambda: cf_tail_eval(J, True),
        lambda: m_minus_series(TABLE, 1, 1, 1, 1.5),
        lambda: m_minus_series(TABLE, True, 1, 1, 2),
    ], ids=["monic_orthogonal_polys-float", "three_term_check-float", "cf_tail_eval-float",
            "cf_tail_eval-bool", "m_minus_series-float-order", "m_minus_series-bool-branch"])
    def test_a_sign_only_site_refuses_a_float_or_a_bool(self, call):
        # these checked only the sign: 1.5 raised a bare TypeError and True
        # ran as 1
        with pytest.raises(WindowError, match="must be an int"):
            call()

    @pytest.mark.parametrize("call", [
        lambda bad: HPTable(bad, 1, 1),
        lambda bad: cross_validate(bad, 1, 1),
        lambda bad: field_from_moments(bad, 1, 1),
        lambda bad: boundary_from_moments(bad, 1),
        lambda bad: field_from_table(bad, 1, 1),
        lambda bad: boundary_from_field(bad, 1),
    ], ids=["HPTable", "cross_validate", "field_from_moments", "boundary_from_moments",
            "field_from_table", "boundary_from_field"])
    @pytest.mark.parametrize("bad", ["x", [1, 2]], ids=repr)
    def test_an_argument_that_is_not_a_library_object_is_refused(self, call, bad):
        # each raised a bare AttributeError on "x"
        with pytest.raises(ParseError, match=f"must be a [A-Za-z]+, got {type(bad).__name__}"):
            call(bad)
