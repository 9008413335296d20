"""Exact scalar arithmetic for the three supported involutive skew fields.

Rationals are plain ``fractions.Fraction``.  Gaussian rationals and rational
quaternions share one format, ``_Components``: k integer numerators (named
by ``component_names``) over one shared positive denominator in lowest
terms.  This keeps multiplication down to a handful of integer products and
a single gcd, which matters because every algorithm in this package runs on
exact scalars.  The format's body (construction, normalization, coercion of
ints and Fractions, negation, conjugation, norm, inverse, division by a
central scalar, equality and hashing) is written once; each type adds its
component slots, its product, sum and difference, and its text.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, neg


def _num_den(x) -> tuple[int, int]:
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _component(slot: str) -> property:
    """The rational value of one component slot, as a read-only property."""
    get = attrgetter(slot)
    return property(lambda z: Fraction(get(z), z._den))


class _Components:
    """Integer numerators over one positive denominator, in lowest terms.

    A subclass declares its component slots in ``__slots__`` (real part
    first), their names in ``component_names``, a ``_nums`` property that
    reads them as one tuple and ``_set_nums``, which writes them.
    """

    __slots__ = ("_den", "_hash")
    component_names: tuple[str, ...] = ()

    @classmethod
    def _raw(cls, nums, den: int):
        """The one constructor: numerators nums over den != 0, reduced to
        lowest terms with a positive denominator."""
        if den <= 0:
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            nums, den = tuple(map(neg, nums)), -den
        if den != 1:  # gcd with 1 is 1; integer values stay as they are
            g = math.gcd(den, *nums)
            if g > 1:
                nums, den = tuple(n // g for n in nums), den // g
        z = object.__new__(cls)
        z._set_nums(nums)
        z._den = den
        z._hash = None
        return z

    @classmethod
    def _of(cls, pairs):
        """The scalar whose components are n/d for the (n, d) in pairs,
        each d > 0."""
        pairs = list(pairs)
        den = math.lcm(*[d for _, d in pairs])
        return cls._raw([n * (den // d) for n, d in pairs], den)

    def component_ints(self) -> tuple[int, ...]:
        """The numerators, in the order of ``component_names``, over
        ``denominator_int``."""
        return self._nums

    def denominator_int(self) -> int:
        return self._den

    def conjugate(self):
        re, *imag = self._nums
        return self._raw((re, *map(neg, imag)), self._den)

    def _norm_numerator(self) -> int:
        return sum(n * n for n in self._nums)

    def norm(self) -> Fraction:
        """N(x) = x * conj(x), a nonnegative rational."""
        return Fraction(self._norm_numerator(), self._den * self._den)

    def inv(self):
        n = self._norm_numerator()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        e = self._den
        re, *imag = self._nums
        return self._raw((e * re, *[-e * x for x in imag]), n)

    def is_central(self) -> bool:
        """True when the imaginary part vanishes, i.e. the value is rational."""
        return not any(self._nums[1:])

    def _coerced(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            n, d = _num_den(other)
            return self._raw((n,) + (0,) * (len(self.component_names) - 1), d)
        return None

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

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
            return self._raw([x * d for x in self._nums], self._den * n)
        return NotImplemented

    def __neg__(self):
        return self._raw(tuple(map(neg, self._nums)), self._den)

    def __pos__(self):
        return self

    def __bool__(self):
        return any(self._nums)

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._nums == o._nums

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.is_central():
                h = hash(Fraction(self._nums[0], self._den))
            else:
                h = hash((*self._nums, self._den))
            self._hash = h
        return h


class GaussianRational(_Components):
    """An element re + im*i of the Gaussian rationals."""

    __slots__ = ("_re", "_im")
    component_names = ("re", "im")
    re = _component("_re")
    im = _component("_im")

    def __new__(cls, re=0, im=0):
        return cls._of(map(_num_den, (re, im)))

    def _set_nums(self, nums):
        self._re, self._im = nums

    _nums = property(attrgetter("_re", "_im"))

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._raw((self._re * o._den + o._re * self._den,
                          self._im * o._den + o._im * self._den),
                         self._den * o._den)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._raw((self._re * o._den - o._re * self._den,
                          self._im * o._den - o._im * self._den),
                         self._den * o._den)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._raw((self._re * o._re - self._im * o._im,
                          self._re * o._im + self._im * o._re),
                         self._den * o._den)

    def __truediv__(self, other):
        # Qi is commutative, so any nonzero divisor is unambiguous
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.__mul__(o.inv())

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o.__mul__(self.inv())

    def __repr__(self):
        return f"GaussianRational({self.re!s}, {self.im!s})"

    def __str__(self):
        if self._im == 0:
            return str(self.re)
        if self._re == 0:
            return f"{self.im}i"
        sign = "+" if self._im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class RationalQuaternion(_Components):
    """A rational quaternion a + b*i + c*j + d*k with i*i = j*j = k*k = ijk = -1."""

    __slots__ = ("_a", "_b", "_c", "_d")
    component_names = ("a", "b", "c", "d")
    a = _component("_a")
    b = _component("_b")
    c = _component("_c")
    d = _component("_d")

    def __new__(cls, a=0, b=0, c=0, d=0):
        return cls._of(map(_num_den, (a, b, c, d)))

    def _set_nums(self, nums):
        self._a, self._b, self._c, self._d = nums

    _nums = property(attrgetter("_a", "_b", "_c", "_d"))

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        e, f = self._den, o._den
        return self._raw((self._a * f + o._a * e, self._b * f + o._b * e,
                          self._c * f + o._c * e, self._d * f + o._d * e), e * f)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        e, f = self._den, o._den
        return self._raw((self._a * f - o._a * e, self._b * f - o._b * e,
                          self._c * f - o._c * e, self._d * f - o._d * e), e * f)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = o._a, o._b, o._c, o._d
        return self._raw((a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                          a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                          a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                          a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2),
                         self._den * o._den)

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
