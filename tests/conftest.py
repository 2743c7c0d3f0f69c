from fractions import Fraction as F

import pytest

from hplax.measures import MeasureModel, MomentSystem, make_angelesco, make_nikishin


@pytest.fixture(params=[(-1, 2), (2, -1), (1.5, 1), (1, True), ("2", 1)], ids=str)
def bad_window(request):
    """A window the library refuses with WindowError where it enters: a
    negative index, or an index that is not an int (a bool is not one)."""
    return request.param


@pytest.fixture(scope="session")
def lebesgue_01():
    return MeasureModel.interval(0, 1)


@pytest.fixture(scope="session")
def system_a():
    """Lebesgue on [-2, -1] and on [1, 2]; every index is normal."""
    return make_angelesco(MeasureModel.interval(-2, -1),
                          MeasureModel.interval(1, 2), 30)


@pytest.fixture(scope="session")
def nikishin_system():
    """Discrete generators with enough atoms for a normal (7, 7) window."""
    sigma1 = MeasureModel.discrete([(k, 1) for k in range(1, 15)])
    sigma2 = MeasureModel.discrete([(-k, 1) for k in range(1, 8)])
    return make_nikishin(sigma1, sigma2, 32)


@pytest.fixture(scope="session")
def dup_system():
    """Both sequences equal: nothing past the trivial indices is normal."""
    moments = tuple(F(1, k + 1) for k in range(20))
    return MomentSystem(moments, moments, label="duplicated")
