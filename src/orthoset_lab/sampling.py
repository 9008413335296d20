"""Seeded generators for random maps and subspaces.

Unitary maps are built from reflections, which preserve any certified form
exactly; quasiunitary maps compose those with left scalar multiplications
and, where the Gram matrix allows it, coordinatewise conjugation.  All
draws are deterministic functions of the supplied rng.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .hermspace import (
    HermitianSpace,
    SemilinearMap,
    Subspace,
    between_frames,
    compose_maps,
    herm_form,
    make_partial_isometry,
    random_nonzero_vector,
    random_subspace,
    random_vector,
)
from .scalars import GaussianRational, RationalQuaternion, inv_scalar
from .starfields import SfieldMorphism, StarSfield


def random_linear_map(domain: HermitianSpace, codomain: HermitianSpace,
                      rng) -> SemilinearMap:
    images = tuple(random_vector(codomain, rng) for _ in range(domain.dim))
    return SemilinearMap(domain, codomain,
                         SfieldMorphism.identity(domain.sfield), images)


def random_invertible_map(space: HermitianSpace, rng) -> SemilinearMap:
    while True:
        phi = random_linear_map(space, space, rng)
        if phi.rank == space.dim:
            return phi


def reflection(space: HermitianSpace, u) -> SemilinearMap:
    """v -> v - 2 <v, u> <u, u>^-1 u, unitary for any nonzero u."""
    if u.is_zero:
        raise InputError("reflection axis must be nonzero")
    inv_norm = inv_scalar(herm_form(u, u))
    images = []
    for i in range(space.dim):
        e = space.basis_vector(i)
        f = 2 * herm_form(e, u) * inv_norm
        images.append(e - f * u)
    return SemilinearMap(space, space,
                         SfieldMorphism.identity(space.sfield), tuple(images))


def random_unitary(space: HermitianSpace, rng,
                   reflections: int = 2) -> SemilinearMap:
    phi = SemilinearMap.identity(space)
    if space.dim == 0:
        return phi
    for _ in range(reflections):
        phi = compose_maps(reflection(space, random_nonzero_vector(space, rng)),
                           phi)
    return phi


def left_scalar_map(space: HermitianSpace, kappa) -> SemilinearMap:
    """u -> kappa * u; quasiunitary with twist inner(kappa) over HQ."""
    return SemilinearMap.identity(space).scale(kappa)


def conjugation_map(space: HermitianSpace) -> SemilinearMap:
    """Coordinatewise conjugation on a Qi space; quasiunitary exactly when
    the Gram matrix has conjugation-fixed (rational) entries."""
    if space.sfield is not StarSfield.QI:
        raise InputError("coordinatewise conjugation lives on Qi spaces")
    for row in space.gram:
        for x in row:
            if x.conjugate() != x:
                raise InputError("Gram matrix is not conjugation-fixed")
    return SemilinearMap(space, space, SfieldMorphism.conjugation(),
                         tuple(space.basis()))


def random_quasiunitary(space: HermitianSpace, rng) -> SemilinearMap:
    """A random quasiunitary map exercising every twist the sfield allows:
    scalar factors over Q, conjugation over Qi, left quaternion
    multiplication (an inner twist) over HQ."""
    phi = random_unitary(space, rng, reflections=rng.randint(1, 2))
    sf = space.sfield
    if sf is StarSfield.Q:
        kappa = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        if rng.random() < 0.5:
            kappa = -kappa
        return phi.scale(kappa)
    if sf is StarSfield.QI:
        gram_rational = all(x.conjugate() == x for row in space.gram for x in row)
        if gram_rational and rng.random() < 0.5:
            phi = compose_maps(conjugation_map(space), phi)
        kappa = GaussianRational(Fraction(rng.randint(-5, 5)),
                                 Fraction(rng.randint(-5, 5)))
        if not kappa:
            kappa = GaussianRational(1, 1)
        return phi.scale(kappa)
    kappa = RationalQuaternion(rng.randint(-3, 3), rng.randint(-3, 3),
                               rng.randint(-3, 3), rng.randint(-3, 3))
    if not kappa:
        kappa = RationalQuaternion(1, 1, 0, 0)
    return phi.scale(kappa)


def random_partial_isometry(space1: HermitianSpace, space2: HermitianSpace,
                            core_dim: int, rng, quasi: bool = False):
    """A random partial (quasi)isometry from space1 to space2 with the
    requested core dimension, built by carrying a random subspace through
    a random ambient (quasi)unitary map.

    Returns (descriptor, core) with the core expressed between the
    canonical subspace frames.  Requires equal Gram matrices, that is one
    space given twice (equal spaces are one object).
    """
    if space1 is not space2:
        raise InputError("ambient spaces must share a Gram matrix")
    s1 = random_subspace(space1, core_dim, rng)
    ambient = random_quasiunitary(space2, rng) if quasi \
        else random_unitary(space2, rng)
    carried = ambient.apply_all(s1.basis)
    s2 = Subspace.from_vectors(space2, carried)
    core = between_frames(ambient, s1.frame, s2.frame)
    return make_partial_isometry(s1, s2, core), core
