import os
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from orthoset_lab.orthoset import RayMap
from orthoset_lab.scalars import GaussianRational, RationalQuaternion


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
