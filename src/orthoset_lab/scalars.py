"""Exact scalar arithmetic for the three supported involutive skew fields.

Rationals are plain ``fractions.Fraction``.  Gaussian rationals and rational
quaternions store integer numerators over one shared positive denominator in
lowest terms; this keeps multiplication down to a handful of integer products
and a single gcd, which matters because every algorithm in this package runs
on exact scalars.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


def _num_den(x) -> tuple[int, int]:
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _normalized(nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """Reduce to lowest terms with a positive denominator."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        nums = tuple(-n for n in nums)
        den = -den
    if den == 1:  # gcd with 1 is 1; integer values stay as they are
        return nums, 1
    g = math.gcd(den, *nums)
    if g > 1:
        nums = tuple(n // g for n in nums)
        den //= g
    return nums, den


class GaussianRational:
    """An element re + im*i of the Gaussian rationals."""

    __slots__ = ("_re", "_im", "_den", "_hash")

    def __init__(self, re=0, im=0):
        rn, rd = _num_den(re)
        in_, id_ = _num_den(im)
        nums, den = _normalized((rn * id_, in_ * rd), rd * id_)
        self._re, self._im = nums
        self._den = den
        self._hash = None

    @classmethod
    def _raw(cls, re: int, im: int, den: int) -> "GaussianRational":
        z = object.__new__(cls)
        (z._re, z._im), z._den = _normalized((re, im), den)
        z._hash = None
        return z

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    def component_ints(self) -> tuple[int, int]:
        """(re numerator, im numerator) over ``denominator_int``."""
        return self._re, self._im

    def denominator_int(self) -> int:
        return self._den

    def conjugate(self) -> "GaussianRational":
        z = object.__new__(GaussianRational)
        z._re, z._im, z._den = self._re, -self._im, self._den
        z._hash = None
        return z

    def inv(self) -> "GaussianRational":
        n = self._re * self._re + self._im * self._im
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational._raw(self._den * self._re, -self._den * self._im, n)

    def norm(self) -> Fraction:
        """N(z) = z * conj(z), always a nonnegative rational."""
        return Fraction(self._re * self._re + self._im * self._im,
                        self._den * self._den)

    def _coerced(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            n, d = _num_den(other)
            z = object.__new__(GaussianRational)
            z._re, z._im, z._den = n, 0, d
            z._hash = None
            return z
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(
            self._re * o._den + o._re * self._den,
            self._im * o._den + o._im * self._den,
            self._den * o._den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(
            self._re * o._den - o._re * self._den,
            self._im * o._den - o._im * self._den,
            self._den * o._den,
        )

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational._raw(
            self._re * o._re - self._im * o._im,
            self._re * o._im + self._im * o._re,
            self._den * o._den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.__mul__(o.inv())

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__mul__(self.inv())

    def __neg__(self):
        z = object.__new__(GaussianRational)
        z._re, z._im, z._den = -self._re, -self._im, self._den
        z._hash = None
        return z

    def __pos__(self):
        return self

    def __bool__(self):
        return self._re != 0 or self._im != 0

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return (self._re, self._im, self._den) == (o._re, o._im, o._den)

    def __hash__(self):
        h = self._hash
        if h is None:
            if self._im == 0:
                h = hash(Fraction(self._re, self._den))
            else:
                h = hash((self._re, self._im, self._den))
            self._hash = h
        return h

    def __repr__(self):
        return f"GaussianRational({self.re!s}, {self.im!s})"

    def __str__(self):
        if self._im == 0:
            return str(self.re)
        if self._re == 0:
            return f"{self.im}i"
        sign = "+" if self._im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class RationalQuaternion:
    """A rational quaternion a + b*i + c*j + d*k with i*i = j*j = k*k = ijk = -1."""

    __slots__ = ("_a", "_b", "_c", "_d", "_den", "_hash")

    def __init__(self, a=0, b=0, c=0, d=0):
        pairs = [_num_den(x) for x in (a, b, c, d)]
        den = 1
        for _, q in pairs:
            den = den * q // math.gcd(den, q)
        nums, den = _normalized(tuple(n * (den // q) for n, q in pairs), den)
        self._a, self._b, self._c, self._d = nums
        self._den = den
        self._hash = None

    @classmethod
    def _raw(cls, a: int, b: int, c: int, d: int, den: int) -> "RationalQuaternion":
        q = object.__new__(cls)
        (q._a, q._b, q._c, q._d), q._den = _normalized((a, b, c, d), den)
        q._hash = None
        return q

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._den)

    @property
    def c(self) -> Fraction:
        return Fraction(self._c, self._den)

    @property
    def d(self) -> Fraction:
        return Fraction(self._d, self._den)

    def component_ints(self) -> tuple[int, int, int, int]:
        return self._a, self._b, self._c, self._d

    def denominator_int(self) -> int:
        return self._den

    def conjugate(self) -> "RationalQuaternion":
        q = object.__new__(RationalQuaternion)
        q._a, q._b, q._c, q._d = self._a, -self._b, -self._c, -self._d
        q._den = self._den
        q._hash = None
        return q

    def norm(self) -> Fraction:
        """N(q) = q * conj(q), a nonnegative rational."""
        n = self._a ** 2 + self._b ** 2 + self._c ** 2 + self._d ** 2
        return Fraction(n, self._den * self._den)

    def inv(self) -> "RationalQuaternion":
        n = self._a ** 2 + self._b ** 2 + self._c ** 2 + self._d ** 2
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        e = self._den
        return RationalQuaternion._raw(e * self._a, -e * self._b,
                                       -e * self._c, -e * self._d, n)

    def is_central(self) -> bool:
        """True when the imaginary part vanishes, i.e. the value is rational."""
        return self._b == 0 and self._c == 0 and self._d == 0

    def _coerced(self, other):
        if isinstance(other, RationalQuaternion):
            return other
        if isinstance(other, (int, Fraction)):
            n, d = _num_den(other)
            q = object.__new__(RationalQuaternion)
            q._a, q._b, q._c, q._d, q._den = n, 0, 0, 0, d
            q._hash = None
            return q
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        e, f = self._den, o._den
        return RationalQuaternion._raw(
            self._a * f + o._a * e, self._b * f + o._b * e,
            self._c * f + o._c * e, self._d * f + o._d * e, e * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        e, f = self._den, o._den
        return RationalQuaternion._raw(
            self._a * f - o._a * e, self._b * f - o._b * e,
            self._c * f - o._c * e, self._d * f - o._d * e, e * f)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = o._a, o._b, o._c, o._d
        return RationalQuaternion._raw(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            self._den * o._den)

    def __rmul__(self, other):
        # only reached for central (int/Fraction) left factors, which commute
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__mul__(self)

    def __truediv__(self, other):
        # division by a central scalar is unambiguous; anything else must
        # pick a side explicitly via inv()
        if isinstance(other, (int, Fraction)):
            n, d = _num_den(other)
            if n == 0:
                raise ZeroDivisionError("division by zero")
            return RationalQuaternion._raw(self._a * d, self._b * d,
                                           self._c * d, self._d * d,
                                           self._den * n)
        return NotImplemented

    def __neg__(self):
        q = object.__new__(RationalQuaternion)
        q._a, q._b, q._c, q._d = -self._a, -self._b, -self._c, -self._d
        q._den = self._den
        q._hash = None
        return q

    def __pos__(self):
        return self

    def __bool__(self):
        return (self._a, self._b, self._c, self._d) != (0, 0, 0, 0)

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return (self._a, self._b, self._c, self._d, self._den) == \
               (o._a, o._b, o._c, o._d, o._den)

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.is_central():
                h = hash(Fraction(self._a, self._den))
            else:
                h = hash((self._a, self._b, self._c, self._d, self._den))
            self._hash = h
        return h

    def __repr__(self):
        return f"RationalQuaternion({self.a!s}, {self.b!s}, {self.c!s}, {self.d!s})"

    def __str__(self):
        parts = []
        for num, unit in ((self._a, ""), (self._b, "i"), (self._c, "j"), (self._d, "k")):
            if num:
                parts.append(f"{Fraction(num, self._den)}{unit}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


QI_I = GaussianRational(0, 1)
HQ_I = RationalQuaternion(0, 1, 0, 0)
HQ_J = RationalQuaternion(0, 0, 1, 0)
HQ_K = RationalQuaternion(0, 0, 0, 1)


def star_scalar(a):
    """The involution of the scalar's own sfield: identity on rationals,
    conjugation on Gaussian rationals and quaternions."""
    if isinstance(a, (int, Fraction)):
        return a
    return a.conjugate()


def real_part(a) -> Fraction:
    """The rational part: the scalar itself on rationals, the real
    component on Gaussian rationals and quaternions."""
    if isinstance(a, (int, Fraction)):
        return Fraction(a)
    return Fraction(a.component_ints()[0], a.denominator_int())


def inv_scalar(a):
    """Exact two-sided multiplicative inverse."""
    if isinstance(a, int):
        return Fraction(1, a)
    if isinstance(a, Fraction):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a
    return a.inv()


def rational_to_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))
