from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthoset_lab.scalars import (
    GaussianRational as GR,
    RationalQuaternion as RQ,
    HQ_I,
    HQ_J,
    HQ_K,
    inv_scalar,
    rational_from_str,
    rational_to_str,
    star_scalar,
)
from orthoset_lab.serialize import scalar_from_json, scalar_to_json
from orthoset_lab.starfields import StarSfield

from conftest import bounded_fractions, gaussian_rationals, rational_quaternions


def test_quaternion_multiplication_table():
    one = RQ(1)
    assert HQ_I * HQ_J == HQ_K
    assert HQ_J * HQ_K == HQ_I
    assert HQ_K * HQ_I == HQ_J
    assert HQ_I * HQ_I == -one
    assert HQ_J * HQ_J == -one
    assert HQ_K * HQ_K == -one
    assert HQ_I * HQ_J * HQ_K == -one
    assert HQ_J * HQ_I == -HQ_K


def test_rational_product():
    assert F(2, 3) * F(9, 4) == F(3, 2)


def test_gaussian_inverse_frozen_value():
    z = GR(1, 1)
    w = z.inv()
    # oracle: multiplying back gives one, on both sides
    assert z * w == GR(1) == w * z
    assert w == GR(F(1, 2), F(-1, 2))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GR(0, 0).inv()
    with pytest.raises(ZeroDivisionError):
        RQ(0).inv()
    with pytest.raises(ZeroDivisionError):
        inv_scalar(F(0))


def test_involution_examples():
    assert star_scalar(F(3, 2)) == F(3, 2)
    assert star_scalar(GR(2, 3)) == GR(2, -3)
    assert star_scalar(RQ(1, 1, 1, 0)) == RQ(1, -1, -1, 0)


def test_components_are_canonical():
    q = RQ(F(2, 4), F(2, 4), 0, 0)
    assert q.component_ints() == (1, 1, 0, 0)
    assert q.denominator_int() == 2
    z = GR(F(-1, 2), F(3, 2))
    assert z.component_ints() == (-1, 3)
    assert z.denominator_int() == 2


def test_equality_and_hash_with_embedded_rationals():
    assert GR(2) == F(2) and hash(GR(2)) == hash(F(2))
    assert RQ(F(5, 3)) == F(5, 3) and hash(RQ(F(5, 3))) == hash(F(5, 3))
    assert GR(0, 1) != RQ(0, 1, 0, 0)  # different sfields never compare equal



def test_division_sides():
    """Qi divides by any nonzero value; HQ only by a central one, since
    q / r could mean q * r^-1 or r^-1 * q."""
    q, r = RQ(1, 2, 0, 0), RQ(0, 1, 1, 0)
    assert q.__truediv__(r) is NotImplemented
    with pytest.raises(TypeError):
        q / r
    with pytest.raises(TypeError):
        1 / q
    assert q / 2 == RQ(F(1, 2), 1, 0, 0) and q / F(1, 3) == RQ(3, 6, 0, 0)
    with pytest.raises(ZeroDivisionError):
        q / 0
    assert GR(1, 1) / GR(0, 1) == GR(1, -1)
    assert 1 / GR(0, 2) == GR(0, F(-1, 2))
    with pytest.raises(TypeError):
        GR(1) / RQ(1)

BIG = 2 ** 64 + 3  # components past int64

# value, str, repr, hash (64-bit CPython), component_ints, denominator_int
# and scalar_to_json: the text and numbers every report is built from
SCALAR_CONTRACT = [
    pytest.param(
        GR(), "0",
        "GaussianRational(0, 0)",
        0, (0, 0), 1,
        {"re": "0", "im": "0"},
        id="Qi-zero"),
    pytest.param(
        GR(F(7, 3)), "7/3",
        "GaussianRational(7/3, 0)",
        1537228672809129303, (7, 0), 3,
        {"re": "7/3", "im": "0"},
        id="Qi-central"),
    pytest.param(
        GR(-5, F(-1, 2)), "-5-1/2i",
        "GaussianRational(-5, -1/2)",
        8096909864460292203, (-10, -1), 2,
        {"re": "-5", "im": "-1/2"},
        id="Qi-negative"),
    pytest.param(
        GR(0, F(-4, 6)), "-2/3i",
        "GaussianRational(0, -2/3)",
        6367226095594656048, (0, -2), 3,
        {"re": "0", "im": "-2/3"},
        id="Qi-pure-imaginary"),
    pytest.param(
        GR(F(3, 4), F(5, 6)), "3/4+5/6i",
        "GaussianRational(3/4, 5/6)",
        -7245141636246884692, (9, 10), 12,
        {"re": "3/4", "im": "5/6"},
        id="Qi-mixed"),
    pytest.param(
        GR(F(BIG, 7), -BIG * 3), "18446744073709551619/7-55340232221128654857i",
        "GaussianRational(18446744073709551619/7, -55340232221128654857)",
        2376395620428100282, (18446744073709551619, -387381625547900583999), 7,
        {"re": "18446744073709551619/7", "im": "-55340232221128654857"},
        id="Qi-big"),
    pytest.param(
        RQ(), "0",
        "RationalQuaternion(0, 0, 0, 0)",
        0, (0, 0, 0, 0), 1,
        {"a": "0", "b": "0", "c": "0", "d": "0"},
        id="HQ-zero"),
    pytest.param(
        RQ(F(-9, 12)), "-3/4",
        "RationalQuaternion(-3/4, 0, 0, 0)",
        -1729382256910270464, (-3, 0, 0, 0), 4,
        {"a": "-3/4", "b": "0", "c": "0", "d": "0"},
        id="HQ-central"),
    pytest.param(
        RQ(-2, F(-1, 3), 0, F(-5, 2)), "-2 - 1/3i - 5/2k",
        "RationalQuaternion(-2, -1/3, 0, -5/2)",
        -4766177316952617485, (-12, -2, 0, -15), 6,
        {"a": "-2", "b": "-1/3", "c": "0", "d": "-5/2"},
        id="HQ-negative"),
    pytest.param(
        RQ(0, 1, F(-2, 3), F(1, 6)), "1i - 2/3j + 1/6k",
        "RationalQuaternion(0, 1, -2/3, 1/6)",
        -6317178580273065717, (0, 6, -4, 1), 6,
        {"a": "0", "b": "1", "c": "-2/3", "d": "1/6"},
        id="HQ-pure-imaginary"),
    pytest.param(
        RQ(F(1, 2), F(-3, 4), F(5, 8), 7), "1/2 - 3/4i + 5/8j + 7k",
        "RationalQuaternion(1/2, -3/4, 5/8, 7)",
        8180585720819082288, (4, -6, 5, 56), 8,
        {"a": "1/2", "b": "-3/4", "c": "5/8", "d": "7"},
        id="HQ-mixed"),
    pytest.param(
        RQ(BIG, 0, F(-BIG, 5), F(1, BIG)), "18446744073709551619 - 18446744073709551619/5j + 1/18446744073709551619k",
        "RationalQuaternion(18446744073709551619, 0, -18446744073709551619/5, 1/18446744073709551619)",
        8017505917209445418, (1701411834604692317870275359370127605805, 0, -340282366920938463574055071874025521161, 5), 92233720368547758095,
        {"a": "18446744073709551619", "b": "0", "c": "-18446744073709551619/5", "d": "1/18446744073709551619"},
        id="HQ-big"),
]


@pytest.mark.parametrize(
    "x, text, rep, hashed, comps, den, as_json", SCALAR_CONTRACT)
def test_scalar_contract(x, text, rep, hashed, comps, den, as_json):
    assert str(x) == text
    assert repr(x) == rep
    assert hash(x) == hashed
    assert x.component_ints() == comps
    assert x.denominator_int() == den
    assert scalar_to_json(x) == as_json
    sfield = StarSfield.QI if isinstance(x, GR) else StarSfield.HQ
    assert scalar_from_json(as_json, sfield) == x


@given(rational_quaternions(), rational_quaternions())
def test_quaternion_conjugation_antiautomorphism(a, b):
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


@given(rational_quaternions(), rational_quaternions())
def test_quaternion_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(rational_quaternions())
def test_quaternion_inverse_two_sided(a):
    if a:
        assert a * a.inv() == RQ(1) == a.inv() * a


@given(rational_quaternions(), rational_quaternions(), rational_quaternions())
def test_quaternion_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(gaussian_rationals(), gaussian_rationals())
def test_gaussian_field_laws(a, b):
    assert a * b == b * a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    if b:
        assert a / b * b == a


@given(bounded_fractions())
def test_central_scalars_commute_with_quaternions(r):
    q = RQ(1, 2, 3, 4)
    assert r * q == q * r
    if r:
        assert q / r == inv_scalar(F(r)) * q


def test_rational_text_round_trip():
    assert rational_to_str(F(4)) == "4"
    assert rational_to_str(F(-3, 7)) == "-3/7"
    assert rational_from_str("4") == F(4)
    assert rational_from_str("-3/7") == F(-3, 7)
    assert rational_from_str(rational_to_str(F(22, 10))) == F(11, 5)


@given(st.integers(-50, 50), st.integers(1, 50))
def test_rational_text_canonical(p, q):
    x = F(p, q)
    assert rational_from_str(rational_to_str(x)) == x
