import os
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from orthoset_lab.hermspace import HermitianSpace, standard_space
from orthoset_lab.orthoset import RayMap
from orthoset_lab.scalars import (
    HQ_I,
    HQ_J,
    GaussianRational,
    RationalQuaternion,
)
from orthoset_lab.starfields import SfieldMorphism, StarSfield


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def src_env():
    """The environment of a child interpreter that imports orthoset_lab
    from this checkout, as pytest's pythonpath setting does for the tests."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def oracle_map(domain, codomain, fn):
    """The oracle ray map of a per-ray function fn."""
    return RayMap(domain, codomain, oracle=lambda rays: [fn(x) for x in rays])


def spaces_under_test():
    i = GaussianRational(0, 1)
    return [
        standard_space(StarSfield.Q, 3),
        HermitianSpace.create(StarSfield.Q, 2, [[2, 1], [1, 1]]),
        standard_space(StarSfield.QI, 3),
        HermitianSpace.create(StarSfield.QI, 2, [[2, i], [-i, 1]]),
        standard_space(StarSfield.HQ, 3),
        HermitianSpace.create(StarSfield.HQ, 2,
                              [[1, 0], [0, Fraction(5, 2)]]),
        HermitianSpace.create(StarSfield.HQ, 3, [[2, HQ_I, 0],
                                                 [-HQ_I, 2, HQ_J],
                                                 [0, -HQ_J, 3]]),
    ]


def short_id(space):
    """Sfield and dimension; a Gram space that shares both with a standard
    space under test adds "-gram"."""
    name = f"{space.sfield.value}{space.dim}"
    standard = standard_space(space.sfield, space.dim)
    if space != standard and standard in spaces_under_test():
        return name + "-gram"
    return name


def twists(sf):
    yield SfieldMorphism.identity(sf)
    if sf is StarSfield.QI:
        yield SfieldMorphism.conjugation()
    if sf is StarSfield.HQ:
        yield SfieldMorphism.inner(RationalQuaternion(1, 2, -1, 3))
        yield SfieldMorphism.inner(
            RationalQuaternion(0, Fraction(1, 2), 0, -1))


def nonzero_scalar(sfield, rng, bound=10):
    while True:
        a = sfield.random_scalar(rng, bound)
        if a:
            return a


def bounded_fractions(bound=10):
    return st.builds(Fraction,
                     st.integers(min_value=-bound, max_value=bound),
                     st.integers(min_value=1, max_value=bound))


def gaussian_rationals(bound=10):
    return st.builds(GaussianRational, bounded_fractions(bound),
                     bounded_fractions(bound))


def rational_quaternions(bound=6):
    f = bounded_fractions(bound)
    return st.builds(RationalQuaternion, f, f, f, f)


@pytest.fixture
def rng():
    return random.Random(12345)
