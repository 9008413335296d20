"""The three supported *-sfields and the morphisms between them.

Supported scalar domains: the rationals Q (trivial involution), the Gaussian
rationals Qi (complex conjugation) and the rational quaternions HQ
(quaternion conjugation).  Morphisms are classified by kind rather than kept
as closures so that they compare exactly: the identity, complex conjugation
on Qi, and inner automorphisms a -> q a q^-1 on HQ.  Between these sfields
every represented morphism is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import InputError
from .scalars import (
    GaussianRational,
    RationalQuaternion,
    HQ_I,
    HQ_J,
    HQ_K,
    QI_I,
    star_scalar,
)


class StarSfield(Enum):
    Q = "Q"
    QI = "Qi"
    HQ = "HQ"

    @property
    def scalar_type(self):
        return _SCALAR_TYPES[self]

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    def is_member(self, a) -> bool:
        if self is StarSfield.Q:
            return isinstance(a, Fraction)
        return isinstance(a, self.scalar_type)

    def coerce(self, x):
        """Lift an int/Fraction into this sfield; pass members through."""
        if self.is_member(x):
            return x
        if isinstance(x, (int, Fraction)):
            if self is StarSfield.Q:
                return Fraction(x)
            return self.scalar_type(x)
        raise InputError(f"{x!r} is not a scalar of sfield {self.value}")

    def star(self, a):
        """The involutory antiautomorphism of this sfield."""
        if not self.is_member(a):
            raise InputError(f"{a!r} does not belong to sfield {self.value}")
        return star_scalar(a)

    def generators(self) -> tuple:
        """Scalars that, together with the rationals, generate the sfield."""
        if self is StarSfield.Q:
            return ()
        if self is StarSfield.QI:
            return (QI_I,)
        return (HQ_I, HQ_J)

    def basis(self) -> tuple:
        """The rational basis of the sfield: 1, then 1, i, then 1, i, j, k."""
        if self is StarSfield.HQ:
            return (self.one(), HQ_I, HQ_J, HQ_K)
        return (self.one(),) + self.generators()

    def random_scalar(self, rng, bound: int = 10):
        """A random member with numerators in [-bound, bound] and
        denominators in [1, bound]."""
        if self is StarSfield.Q:
            return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        cls = self.scalar_type
        return cls._of([(rng.randint(-bound, bound), rng.randint(1, bound))
                        for _ in cls.component_names])


_SCALAR_TYPES = {
    StarSfield.Q: Fraction,
    StarSfield.QI: GaussianRational,
    StarSfield.HQ: RationalQuaternion,
}


def _canonical_inner_q(q: RationalQuaternion) -> RationalQuaternion:
    """Scale q by a rational so its first nonzero component is 1; inner(q)
    only depends on q up to a central factor."""
    if not q:
        raise InputError("inner morphism requires q != 0")
    for comp in q.component_ints():
        if comp:
            scale = Fraction(q.denominator_int(), comp)
            return scale * q
    raise InputError("inner morphism requires q != 0")


@dataclass(frozen=True)
class SfieldMorphism:
    """A ring isomorphism of one of the supported sfields.

    kind "id" is available everywhere, "conj" only on Qi, and "inner" only
    on HQ where it acts as a -> q a q^-1.  Construction canonicalises: q is
    rescaled so its first nonzero component is 1, and a central q collapses
    to the identity kind, making equality of morphisms structural.
    """

    sfield: StarSfield
    kind: str
    q: RationalQuaternion | None = None

    def __post_init__(self):
        if self.kind == "id":
            if self.q is not None:
                raise InputError("identity morphism takes no q")
        elif self.kind == "conj":
            if self.sfield is not StarSfield.QI or self.q is not None:
                raise InputError("conjugation is a Qi -> Qi morphism")
        elif self.kind == "inner":
            if self.sfield is not StarSfield.HQ:
                raise InputError("inner morphisms exist on HQ only")
            q = _canonical_inner_q(self.q)
            if q.is_central():
                object.__setattr__(self, "kind", "id")
                object.__setattr__(self, "q", None)
            else:
                object.__setattr__(self, "q", q)
        else:
            raise InputError(f"unknown morphism kind {self.kind!r}")

    @classmethod
    def identity(cls, sfield: StarSfield) -> "SfieldMorphism":
        return cls(sfield, "id")

    @classmethod
    def conjugation(cls) -> "SfieldMorphism":
        return cls(StarSfield.QI, "conj")

    @classmethod
    def inner(cls, q: RationalQuaternion) -> "SfieldMorphism":
        return cls(StarSfield.HQ, "inner", q)

    @property
    def is_identity(self) -> bool:
        return self.kind == "id"

    @cached_property
    def _q_inv(self):
        return self.q.inv() if self.q is not None else None

    def __call__(self, a):
        if not self.sfield.is_member(a):
            raise InputError(f"{a!r} does not belong to sfield {self.sfield.value}")
        if self.kind == "id":
            return a
        if self.kind == "conj":
            return a.conjugate()
        return self.q * a * self._q_inv

    def compose(self, other: "SfieldMorphism") -> "SfieldMorphism":
        """self after other: (self.compose(other))(a) == self(other(a))."""
        if self.sfield is not other.sfield:
            raise InputError("morphisms of different sfields do not compose")
        if other.kind == "id":
            return self
        if self.kind == "id":
            return other
        if self.kind == "conj":  # conj after conj
            return SfieldMorphism.identity(self.sfield)
        return SfieldMorphism.inner(self.q * other.q)

    def inverse(self) -> "SfieldMorphism":
        if self.kind == "inner":
            return SfieldMorphism.inner(self._q_inv)
        return self

    def twisted_by(self, kappa) -> "SfieldMorphism":
        """The morphism a -> kappa * self(a) * kappa^-1.

        This is how the associated morphism changes when a semilinear map is
        rescaled on the left by kappa.
        """
        kappa = self.sfield.coerce(kappa)
        if not kappa:
            raise InputError("twist factor must be nonzero")
        if self.sfield is not StarSfield.HQ or (
                isinstance(kappa, RationalQuaternion) and kappa.is_central()):
            return self
        if self.kind == "id":
            return SfieldMorphism.inner(kappa)
        return SfieldMorphism.inner(kappa * self.q)

