from fractions import Fraction as F

import pytest
from hypothesis import given

from orthoset_lab.errors import InputError
from orthoset_lab.scalars import (
    GaussianRational as GR,
    RationalQuaternion as RQ,
    HQ_I,
    HQ_J,
    HQ_K,
    inv_scalar,
)
from orthoset_lab.starfields import SfieldMorphism, StarSfield

from conftest import gaussian_rationals, rational_quaternions


def test_involution_per_tag():
    assert StarSfield.Q.star(F(3, 2)) == F(3, 2)
    assert StarSfield.QI.star(GR(2, 3)) == GR(2, -3)
    assert StarSfield.HQ.star(RQ(1, 1, 1, 0)) == RQ(1, -1, -1, 0)


def test_involution_rejects_foreign_scalars():
    with pytest.raises(InputError):
        StarSfield.Q.star(GR(1, 0))
    with pytest.raises(InputError):
        StarSfield.QI.star(RQ(1))


def test_mul_and_inv():
    assert HQ_I * HQ_J == HQ_K
    assert F(2, 3) * F(9, 4) == F(3, 2)
    assert inv_scalar(GR(1, 1)) == GR(F(1, 2), F(-1, 2))
    with pytest.raises(TypeError):
        GR(1, 0) * RQ(1)


def test_morphism_apply_examples():
    assert SfieldMorphism.identity(StarSfield.Q)(F(5, 7)) == F(5, 7)
    assert SfieldMorphism.conjugation()(GR(0, 1)) == GR(0, -1)
    # oracle: the inner twist is the direct product i * j * i^-1
    sigma = SfieldMorphism.inner(HQ_I)
    assert sigma(HQ_J) == HQ_I * HQ_J * HQ_I.inv() == -HQ_J


def test_compose_examples():
    conj = SfieldMorphism.conjugation()
    assert conj.compose(conj) == SfieldMorphism.identity(StarSfield.QI)
    inner_ij = SfieldMorphism.inner(HQ_I).compose(SfieldMorphism.inner(HQ_J))
    assert inner_ij == SfieldMorphism.inner(HQ_K)
    # oracle: pointwise agreement on the quaternion basis
    for g in (RQ(1), HQ_I, HQ_J, HQ_K):
        assert inner_ij(g) == HQ_I * (HQ_J * g * HQ_J.inv()) * HQ_I.inv()


def test_invert_examples():
    q = RQ(1, 2, 0, 1)
    sigma = SfieldMorphism.inner(q)
    assert sigma.inverse() == SfieldMorphism.inner(q.inv())
    assert SfieldMorphism.conjugation().inverse() == \
        SfieldMorphism.conjugation()


def test_inner_canonical_form():
    q = RQ(0, 2, 4, 0)
    sigma = SfieldMorphism.inner(q)
    assert sigma.q == RQ(0, 1, 2, 0)  # first nonzero component scaled to 1
    assert SfieldMorphism.inner(3 * q) == sigma
    # central conjugators act trivially and collapse to the identity kind
    assert SfieldMorphism.inner(RQ(F(7, 2))).is_identity


def test_kind_validation():
    with pytest.raises(InputError):
        SfieldMorphism(StarSfield.Q, "conj")
    with pytest.raises(InputError):
        SfieldMorphism(StarSfield.QI, "inner", RQ(1))
    with pytest.raises(InputError):
        SfieldMorphism.inner(RQ(0))


@given(rational_quaternions(), rational_quaternions())
def test_inner_morphisms_are_ring_morphisms(a, b):
    sigma = SfieldMorphism.inner(RQ(1, 2, 0, 1))
    assert sigma(a + b) == sigma(a) + sigma(b)
    assert sigma(a * b) == sigma(a) * sigma(b)
    assert sigma(RQ(1)) == RQ(1)


@given(gaussian_rationals(), gaussian_rationals())
def test_conjugation_is_ring_morphism(a, b):
    sigma = SfieldMorphism.conjugation()
    assert sigma(a + b) == sigma(a) + sigma(b)
    assert sigma(a * b) == sigma(a) * sigma(b)


@given(rational_quaternions())
def test_inverse_undoes_morphism(a):
    sigma = SfieldMorphism.inner(RQ(2, 1, 1, 0))
    assert sigma.inverse()(sigma(a)) == a


def test_twist_by_left_factor():
    sigma = SfieldMorphism.identity(StarSfield.HQ)
    kappa = RQ(1, 1, 0, 0)
    twisted = sigma.twisted_by(kappa)
    assert twisted == SfieldMorphism.inner(kappa)
    # over commutative sfields the twist is invisible
    assert SfieldMorphism.conjugation().twisted_by(GR(2, 3)) == \
        SfieldMorphism.conjugation()


def test_star_compatibility_of_morphisms():
    # conjugating by q commutes with quaternion conjugation because
    # q* is q^-1 up to a central factor
    sigma = SfieldMorphism.inner(RQ(1, 2, 3, 4))
    for a in (HQ_I, HQ_J, RQ(1, 1, 1, 1)):
        assert sigma(a.conjugate()) == sigma(a).conjugate()


def test_random_scalar_bounds(rng):
    for sf in StarSfield:
        for _ in range(50):
            a = sf.random_scalar(rng, bound=10)
            assert sf.is_member(a)
