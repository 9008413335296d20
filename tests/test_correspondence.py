import random
from fractions import Fraction as F

import pytest
from conftest import nonzero_scalar, oracle_map

from orthoset_lab import correspondence, hermspace, linalg, orthoset, perpgrid
from orthoset_lab.correspondence import (
    coordinatize,
    decompose_partial_orthometry,
    induce,
    partial_wigner,
    piziak_lambda,
    transport_linear,
    transport_partial,
    transport_unitary,
    wigner_reconstruct,
)
from orthoset_lab.errors import (
    InputError,
    NotInducedError,
    NotOrthoisoError,
    NotPartialOrthometryError,
    OrthogonalityViolationError,
    PreconditionError,
)
from orthoset_lab.hermspace import (
    HermitianSpace,
    PartialIsometryDescriptor,
    SemilinearMap,
    Subspace,
    adjoint_linear,
    between_frames,
    compose_maps,
    generalized_inverse,
    herm_form,
    invert_semilinear,
    is_quasiunitary,
    quasi_generalized_inverse,
    scalar_ratio,
    standard_space,
)
from orthoset_lab.orthoset import (
    ProbeSet,
    Ray,
    RayMap,
    probe_rays_in,
    ray_grid,
    ray_of,
    ray_payload,
    rays_of,
)
from orthoset_lab.perpgrid import image_rows, map_matrix
from orthoset_lab.reports import run_tasks
from orthoset_lab.sampling import (
    conjugation_map,
    left_scalar_map,
    random_linear_map,
    random_partial_isometry,
    random_quasiunitary,
    random_unitary,
)
from orthoset_lab.scalars import (
    GaussianRational as GR,
    RationalQuaternion as RQ,
    star_scalar,
)
from orthoset_lab.starfields import SfieldMorphism, StarSfield

Q, QI, HQ = StarSfield.Q, StarSfield.QI, StarSfield.HQ


def shear_map(space):
    return SemilinearMap(
        space, space, SfieldMorphism.identity(space.sfield),
        tuple([space.basis_vector(0), space.basis_vector(0) + space.basis_vector(1)]
              + [space.basis_vector(i) for i in range(2, space.dim)]))


# ----------------------------------------------------------------- induce

def test_induce_examples():
    q2 = standard_space(Q, 2)
    zero_map = induce(SemilinearMap.zero(q2, q2))
    x = ray_of(q2.vector([1, 1]))
    assert zero_map(x).is_zero
    tripled = induce(SemilinearMap.identity(q2).scale(F(3)))
    assert tripled(x) == x
    f = induce(shear_map(q2))
    assert f(ray_of(q2.vector([0, 1]))) == ray_of(q2.vector([1, 1]))


@pytest.mark.parametrize("sf", list(StarSfield))
def test_induce_functorial(sf, rng):
    sp = standard_space(sf, 3)
    phi = random_linear_map(sp, sp, rng)
    psi = random_linear_map(sp, sp, rng)
    lhs = induce(compose_maps(phi, psi))
    rhs_inner, rhs_outer = induce(psi), induce(phi)
    ident = induce(SemilinearMap.identity(sp))
    for x in ProbeSet.generate(sp, seed=4, count=24):
        assert lhs(x) == rhs_outer(rhs_inner(x))
        assert ident(x) == x


@pytest.mark.parametrize("sf", list(StarSfield))
def test_induced_maps_agree_exactly_for_left_multiples(sf, rng):
    # rescaling by a scalar never changes the induced ray map, and maps
    # that are not scalar multiples are told apart by some probe ray
    sp = standard_space(sf, 3)
    phi = random_linear_map(sp, sp, rng)
    while phi.rank < 2:
        phi = random_linear_map(sp, sp, rng)
    kappa = nonzero_scalar(sp.sfield, rng)
    psi = phi.scale(kappa)
    probes = ProbeSet.generate(sp, seed=8, count=32)
    f, g = induce(phi), induce(psi)
    assert all(f(x) == g(x) for x in probes)
    tweaked = SemilinearMap(
        sp, sp, phi.sigma,
        (phi.images[0] + sp.basis_vector(0),) + phi.images[1:])
    if scalar_ratio(tweaked, phi) is None:
        h = induce(tweaked)
        assert any(f(x) != h(x) for x in probes)


# ----------------------------------------------------------- scalar_ratio

def test_scalar_ratio_examples(rng):
    q2 = standard_space(Q, 2)
    phi = random_linear_map(q2, q2, rng)
    while phi.rank < 2:
        phi = random_linear_map(q2, q2, rng)
    assert scalar_ratio(phi, phi) == F(1)
    assert scalar_ratio(phi.scale(F(5)), phi) == F(5)
    other = shear_map(q2)
    assert scalar_ratio(other, phi) is None


def test_scalar_ratio_checks_twist_over_hq():
    hq2 = standard_space(HQ, 2)
    phi = SemilinearMap.identity(hq2)
    kappa = RQ(1, 2, 0, 1)
    assert scalar_ratio(phi.scale(kappa), phi) == kappa
    # same images but an undeclared twist is not a left multiple
    fake = SemilinearMap(hq2, hq2, SfieldMorphism.identity(HQ),
                         phi.scale(kappa).images)
    assert scalar_ratio(fake, phi) is None


def test_scalar_ratio_rank_precondition():
    q2 = standard_space(Q, 2)
    rank1 = SemilinearMap(q2, q2, SfieldMorphism.identity(Q),
                          (q2.vector([1, 0]), q2.vector([2, 0])))
    with pytest.raises(PreconditionError):
        scalar_ratio(rank1, rank1)


# ----------------------------------------------------------------- piziak

def test_piziak_examples():
    q2 = standard_space(Q, 2)
    assert piziak_lambda(SemilinearMap.identity(q2)) == F(1)
    assert piziak_lambda(SemilinearMap.identity(q2).scale(F(2))) == F(4)
    hq2 = standard_space(HQ, 2)
    phi = left_scalar_map(hq2, RQ(1, 1, 0, 0))
    assert piziak_lambda(phi) == RQ(2)


def test_piziak_rejects_orthogonality_violations():
    q2 = standard_space(Q, 2)
    with pytest.raises(OrthogonalityViolationError) as err:
        piziak_lambda(shear_map(q2))
    assert err.value.witness is not None


def test_piziak_probe_precheck():
    q3 = standard_space(Q, 3)
    probes = ProbeSet.generate(q3, seed=0, count=32)
    lam = piziak_lambda(SemilinearMap.identity(q3).scale(F(-3)), probes)
    assert lam == F(9)
    with pytest.raises(OrthogonalityViolationError):
        piziak_lambda(shear_map(q3), probes)


def test_piziak_dimension_precondition():
    q1 = standard_space(Q, 1)
    with pytest.raises(PreconditionError):
        piziak_lambda(SemilinearMap.identity(q1))


@pytest.mark.parametrize("sf", list(StarSfield))
def test_piziak_matches_certificate(sf, rng):
    for _ in range(5):
        sp = standard_space(sf, 3)
        phi = random_quasiunitary(sp, rng)
        sigma, lam = is_quasiunitary(phi)
        assert piziak_lambda(phi) == lam


# -------------------------------------------------------------- transport

def test_transport_linear_identity_twist():
    q2 = standard_space(Q, 2)
    phi = shear_map(q2)
    tr = transport_linear(phi)
    assert tr.new_space == q2
    assert tr.composed == phi


def test_transport_linear_conjugation():
    qi2 = standard_space(QI, 2)
    phi = compose_maps(conjugation_map(qi2), shear_map(qi2))
    tr = transport_linear(phi)
    assert tr.new_space.gram == qi2.gram  # rational entries are conj-fixed
    assert tr.composed.is_linear
    # the composed map applies the same vectors through re-coordinatization
    u = qi2.vector([GR(1, 2), GR(0, 1)])
    assert tr.composed.apply(u) == tr.tau.apply(phi.apply(u))


def test_transport_linear_inner_twist():
    hq2 = standard_space(HQ, 2)
    phi = left_scalar_map(hq2, RQ(0, 1, 1, 0))
    tr = transport_linear(phi)
    assert tr.composed.is_linear
    assert tr.new_space.gram == hq2.gram


def test_transport_unitary_trivial_case():
    q2 = standard_space(Q, 2)
    phi = SemilinearMap.identity(q2)
    tr = transport_unitary(phi)
    assert tr.new_space == q2 and tr.composed == phi


def test_transport_unitary_scaled_example():
    q2 = standard_space(Q, 2)
    phi = SemilinearMap.identity(q2).scale(F(2))
    tr = transport_unitary(phi)
    assert tr.new_space.gram == ((F(1, 4), F(0)), (F(0), F(1, 4)))
    cert = is_quasiunitary(tr.composed)
    assert cert == (SfieldMorphism.identity(Q), F(1))


def test_transport_unitary_quaternion_example():
    hq2 = standard_space(HQ, 2)
    q = RQ(1, 1, 0, 0)
    phi = left_scalar_map(hq2, q)
    assert is_quasiunitary(phi)[1] == RQ(2)
    tr = transport_unitary(phi)
    assert tr.new_space.gram[0][0] == RQ(F(1, 2))
    assert is_quasiunitary(tr.composed)[1] == RQ(1)


def test_transport_unitary_rejects_wrong_certificate():
    # a shear has no quasiunitary certificate to transport through
    q2 = standard_space(Q, 2)
    with pytest.raises(InputError, match="map is not quasiunitary"):
        transport_unitary(shear_map(q2))


# ----------------------------------------------------------- coordinatize

def test_coordinatize_identity_oracle():
    q3 = standard_space(Q, 3)
    ident = SemilinearMap.identity(q3)
    probes = ProbeSet.generate(q3, seed=0, count=48)
    result = coordinatize(induce(ident), q3, q3, probes,
                          adjoint=induce(ident))
    assert result.map.sigma.is_identity
    assert scalar_ratio(result.map, ident) is not None


@pytest.mark.parametrize("sf", list(StarSfield))
def test_coordinatize_round_trip_with_adjoint(sf, rng):
    sp = standard_space(sf, 3)
    phi = random_linear_map(sp, sp, rng)
    while phi.rank < 3:
        phi = random_linear_map(sp, sp, rng)
    probes = ProbeSet.generate(sp, seed=1, count=48)
    result = coordinatize(induce(phi), sp, sp, probes,
                          adjoint=induce(adjoint_linear(phi)))
    assert scalar_ratio(result.map, phi) is not None


@pytest.mark.parametrize("sf", list(StarSfield))
def test_coordinatize_between_different_dimensions(sf, rng):
    h1, h2 = standard_space(sf, 3), standard_space(sf, 5)
    while True:
        phi = random_linear_map(h1, h2, rng)
        if phi.rank == 3:
            break
    probes = ProbeSet.generate(h1, seed=9, count=48)
    result = coordinatize(induce(phi), h1, h2, probes,
                          adjoint=induce(adjoint_linear(phi)))
    assert scalar_ratio(result.map, phi) is not None


def test_wigner_on_weighted_gram(rng):
    space = HermitianSpace.create(Q, 3, [[2, 1, 0], [1, 1, 0], [0, 0, 3]])
    phi0 = random_quasiunitary(space, rng)
    probes = ProbeSet.generate(space, seed=4, count=48)
    wig = wigner_reconstruct(induce(phi0), induce(invert_semilinear(phi0)),
                             space, space, probes)
    assert scalar_ratio(wig.coordinatization.map, phi0) is not None


def test_coordinatize_requires_kernel_knowledge():
    q3 = standard_space(Q, 3)
    probes = ProbeSet.generate(q3, seed=0, count=32)
    with pytest.raises(InputError):
        coordinatize(induce(SemilinearMap.identity(q3)), q3, q3, probes)


def rank2_on_q3():
    q3 = standard_space(Q, 3)
    return SemilinearMap(q3, q3, SfieldMorphism.identity(Q),
                         (q3.vector([1, 0, 0]), q3.vector([0, 1, 0]),
                          q3.zero_vector()))


def wrapped(g):
    """The oracle that maps its rays through g: the same rays, not
    induced, so no map and no matrix is there to read."""
    return oracle_map(g.domain, g.codomain, g)


def test_coordinatize_rank_precondition():
    """A rank-2 map with its adjoint passes the pair and fails the rank
    gate, and so does the oracle pair that wraps it, the shape of a map
    that is not induced."""
    rank2 = rank2_on_q3()
    q3 = rank2.domain
    probes = ProbeSet.generate(q3, seed=0, count=32)
    f, g = induce(rank2), induce(adjoint_linear(rank2))
    for f, g in ((f, g), (wrapped(f), wrapped(g))):
        with pytest.raises(PreconditionError) as err:
            coordinatize(f, q3, q3, probes, adjoint=g)
        assert str(err.value) == "coordinatization needs rank >= 3, got 2"


def test_coordinatize_reads_the_rank_off_the_certified_kernel():
    """A twin of a rank-4 map whose cached rank says 1: the gate reads the
    certified kernel complement, not the map, so the twin is rebuilt."""
    q4 = standard_space(Q, 4)
    phi = SemilinearMap(q4, q4, SfieldMorphism.identity(Q), tuple(
        q4.vector(r) for r in ([1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 4],
                               [5, 0, 0, 1])))
    assert phi.rank == 4
    twin = SemilinearMap(phi.domain, phi.codomain, phi.sigma, phi.images)
    twin.__dict__["rank"] = 1
    probes = ProbeSet.generate(q4, seed=3, count=32)
    result = coordinatize(induce(twin), q4, q4, probes,
                          adjoint=induce(adjoint_linear(phi)))
    assert scalar_ratio(result.map, phi) is not None


@pytest.mark.parametrize("sf", list(StarSfield))
def test_coordinatize_an_oracle_as_its_induced_map(sf):
    """Rays alone set the result: an oracle wrapping an induced map is
    rebuilt to the same map with the same records, on the adjoint branch
    (a rank-3 partial map of a 4-space) and on the injective one."""
    sp = standard_space(sf, 4)
    rng = random.Random(21)
    d, _ = random_partial_isometry(sp, sp, 3, rng, quasi=True)
    f, g = induce(d.map), induce(quasi_generalized_inverse(d))
    probes = ProbeSet.generate(sp, seed=5, count=32)
    induced = coordinatize(f, sp, sp, probes, adjoint=g)
    oracle = coordinatize(wrapped(f), sp, sp, probes, adjoint=wrapped(g))
    assert induced.map.rank == 3
    assert oracle.map == induced.map and oracle.verified == induced.verified
    u = induce(random_quasiunitary(sp, rng))
    induced = coordinatize(u, sp, sp, probes, injective=True)
    oracle = coordinatize(wrapped(u), sp, sp, probes, injective=True)
    assert oracle.map == induced.map and oracle.verified == induced.verified


def test_coordinatize_checks_the_adjoint_before_the_rank():
    """A rank-2 map with a claimed adjoint that fails the pair raises
    InputError: the rank is read off the kernel that the adjoint sets."""
    rank2 = rank2_on_q3()
    q3 = rank2.domain
    probes = ProbeSet.generate(q3, seed=0, count=32)
    with pytest.raises(InputError, match="claimed adjoint"):
        coordinatize(induce(rank2), q3, q3, probes,
                     adjoint=induce(SemilinearMap.identity(q3)))


@pytest.mark.parametrize("sf", list(StarSfield))
def test_coordinatize_trusts_a_map_declared_injective(sf):
    """Declared injective, the gate reads h1.dim.  Below 3 it fails; a
    rank-3 map of a 4-space whose kernel no probe meets is still induced,
    so it is rebuilt, and the probe match certifies the result."""
    sp = standard_space(sf, 2)
    ident = induce(SemilinearMap.identity(sp))
    probes = ProbeSet.generate(sp, seed=0, count=16)
    with pytest.raises(PreconditionError, match="got 2"):
        coordinatize(ident, sp, sp, probes, injective=True)
    proj, _, p = projection_off_a_line(sf)
    result = coordinatize(proj, proj.domain, proj.codomain, p,
                          injective=True)
    assert scalar_ratio(result.map, proj.mapping) is not None
    assert result.map.rank == 3


def test_coordinatize_detects_non_induced_oracle():
    q3 = standard_space(Q, 3)

    def squares(x):
        if x.is_zero:
            return Ray.zero(q3)
        return ray_of(q3.vector([c * c for c in x.rep.coords]))

    oracle = oracle_map(q3, q3, squares)
    probes = ProbeSet.generate(q3, seed=0, count=48)
    with pytest.raises(NotInducedError):
        coordinatize(oracle, q3, q3, probes, injective=True)


def test_coordinatize_partial_map_with_adjoint():
    q4 = standard_space(Q, 4)
    d, _ = random_partial_isometry(q4, q4, 3, random.Random(8))
    probes = ProbeSet.generate(q4, seed=2, count=48)
    result = coordinatize(induce(d.map), q4, q4, probes,
                          adjoint=induce(quasi_generalized_inverse(d)))
    assert scalar_ratio(result.map, d.map) is not None
    assert result.map.rank == 3
    for v in d.s1.orthocomplement().basis:
        assert result.map.apply(v).is_zero


def projection_off_a_line(sf):
    """P(projection onto v-perp) on the standard 4-space, v = (1, 1, 1, 1),
    and the ray of v, which is A-perp's one basis ray and no probe."""
    sp = standard_space(sf, 4)
    v = ray_of(sp.vector([1, 1, 1, 1]))
    a = Subspace.from_vectors(sp, [v.rep]).orthocomplement()
    p = ProbeSet.generate(sp, seed=2, count=32)
    assert a.orthocomplement().basis == (v.rep,) and v not in p.rays
    return induce(compose_maps(a.frame.inclusion, a.frame.projection)), v, p


def off_at(g, x, y):
    """The oracle equal to g except that it sends the ray x to y."""
    return RayMap(g.domain, g.codomain, oracle=lambda rays: [
        y if r == x else z for r, z in zip(rays, g.apply_many(rays))])


@pytest.mark.parametrize("sf", list(StarSfield))
def test_coordinatize_rejects_a_map_alive_on_the_kernel(sf):
    """f agrees with the projection P onto A = v-perp on every probe, so
    the adjoint pair passes and the kernel comes out as A-perp; f sends
    its basis ray v to e0, and the kernel check names v."""
    proj, v, p = projection_off_a_line(sf)
    f = off_at(proj, v, ray_of(proj.domain.basis_vector(0)))
    with pytest.raises(NotInducedError, match="does not vanish") as err:
        coordinatize(f, f.domain, f.codomain, p, adjoint=proj)
    assert err.value.witness == {"ray": ray_payload(v)}


@pytest.mark.parametrize("sf", list(StarSfield))
def test_coordinatize_rejects_an_injective_map_that_kills_a_probe(sf):
    """Declared injective, the kernel is zero: a killed probe lies outside
    it.  Only this path reaches the branch, since a passing adjoint pair
    puts every killed probe in the kernel."""
    sp = standard_space(sf, 3)
    p = ProbeSet.generate(sp, seed=4, count=32)
    x = p.rays[sp.dim + 1]  # the first random probe
    f = off_at(induce(SemilinearMap.identity(sp)), x, Ray.zero(sp))
    with pytest.raises(NotInducedError, match="outside") as err:
        coordinatize(f, sp, sp, p, injective=True)
    assert err.value.witness == {"ray": ray_payload(x)}


def test_coordinatize_rejects_collinear_images_on_the_complement():
    """Declared injective, e0, e1 -> e0 on Q^4 has rank 3 and kills no
    probe, so the kernel check passes; the rebuild then finds the images
    of the first two basis rays equal and raises with index 1."""
    q4 = standard_space(Q, 4)
    e = q4.basis()
    phi = SemilinearMap(q4, q4, SfieldMorphism.identity(Q),
                        (e[0], e[0], e[2], e[3]))
    assert phi.rank == 3
    p = ProbeSet.generate(q4, seed=0, count=32)
    f = induce(phi)
    assert not any(y.is_zero for y in f.apply_many(list(p)[1:]))
    with pytest.raises(NotInducedError, match="collinear") as err:
        coordinatize(f, q4, q4, p, injective=True)
    assert err.value.witness == {"index": 1}


# --------------------------------------------------------------- wigner

def test_wigner_identity_and_permutation():
    q3 = standard_space(Q, 3)
    probes = ProbeSet.generate(q3, seed=0, count=48)
    ident = SemilinearMap.identity(q3)
    wig = wigner_reconstruct(induce(ident), induce(ident), q3, q3, probes)
    assert wig.lam == F(1) and wig.coordinatization.map.sigma.is_identity
    perm = SemilinearMap(q3, q3, SfieldMorphism.identity(Q),
                         (q3.basis_vector(1), q3.basis_vector(2),
                          q3.basis_vector(0)))
    wigp = wigner_reconstruct(induce(perm), induce(invert_semilinear(perm)),
                              q3, q3, probes)
    assert wigp.lam == F(1)
    assert scalar_ratio(wigp.coordinatization.map, perm) is not None


@pytest.mark.parametrize("sf", list(StarSfield))
def test_wigner_round_trip(sf, rng):
    for _ in range(3):
        sp = standard_space(sf, rng.randint(3, 4))
        phi0 = random_quasiunitary(sp, rng)
        probes = ProbeSet.generate(sp, seed=5, count=48)
        wig = wigner_reconstruct(induce(phi0), induce(invert_semilinear(phi0)),
                                 sp, sp, probes)
        assert scalar_ratio(wig.coordinatization.map, phi0) is not None
        assert is_quasiunitary(wig.coordinatization.map) is not None


def test_wigner_negative_control_shear():
    q3 = standard_space(Q, 3)
    shear = shear_map(q3)
    probes = ProbeSet.generate(q3, seed=0, count=48)
    with pytest.raises(NotOrthoisoError) as err:
        wigner_reconstruct(induce(shear), induce(invert_semilinear(shear)),
                           q3, q3, probes)
    assert err.value.witness is not None


def test_wigner_dimension_precondition():
    q2 = standard_space(Q, 2)
    ident = SemilinearMap.identity(q2)
    with pytest.raises(PreconditionError):
        wigner_reconstruct(induce(ident), induce(ident), q2, q2,
                           ProbeSet.generate(q2, seed=0, count=16))


# ------------------------------------------------------ partial orthometry

def test_decompose_identity():
    q3 = standard_space(Q, 3)
    ident = induce(SemilinearMap.identity(q3))
    probes = ProbeSet.generate(q3, seed=0, count=32)
    dec = decompose_partial_orthometry(ident, ident, probes, probes)
    assert dec.a == Subspace.full(q3) and dec.b == Subspace.full(q3)
    factorization, = [r for r in dec.report
                      if r.check == "partial/factorization"]
    assert factorization.status == "pass"
    assert factorization.detail == {"probes": len(probes)}


def test_decompose_shift_example():
    q3 = standard_space(Q, 3)
    s1 = Subspace.from_vectors(q3, [q3.basis_vector(0), q3.basis_vector(1)])
    s2 = Subspace.from_vectors(q3, [q3.basis_vector(1), q3.basis_vector(2)])
    core = SemilinearMap(s1.frame.space, s2.frame.space,
                         SfieldMorphism.identity(Q),
                         tuple(s2.frame.space.basis()))
    from orthoset_lab.hermspace import make_partial_isometry
    d = make_partial_isometry(s1, s2, core)
    probes = ProbeSet.generate(q3, seed=0, count=32)
    dec = decompose_partial_orthometry(
        induce(d.map), induce(generalized_inverse(d)), probes, probes)
    assert dec.a == s1 and dec.b == s2


def test_decompose_zero_map():
    q2 = standard_space(Q, 2)
    zero = induce(SemilinearMap.zero(q2, q2))
    probes = ProbeSet.generate(q2, seed=0, count=16)
    dec = decompose_partial_orthometry(zero, zero, probes, probes)
    assert dec.a == Subspace.zero(q2) and dec.b == Subspace.zero(q2)


def test_decompose_rejects_broken_adjoint():
    q2 = standard_space(Q, 2)
    shear = shear_map(q2)
    probes = ProbeSet.generate(q2, seed=0, count=24)
    with pytest.raises(NotPartialOrthometryError):
        decompose_partial_orthometry(induce(shear),
                                     induce(invert_semilinear(shear)),
                                     probes, probes)


@pytest.mark.parametrize("sf", list(StarSfield))
@pytest.mark.parametrize("alive", ["map", "adjoint"])
def test_decompose_rejects_a_map_alive_on_a_stated_kernel(sf, alive):
    """With the projection P onto A = v-perp, A = B and A-perp = B-perp =
    <v>.  The map or the adjoint agrees with P on every probe but sends v
    to e0, and the kernel check names v."""
    proj, v, p = projection_off_a_line(sf)
    off = off_at(proj, v, ray_of(proj.domain.basis_vector(0)))
    f, f_adj = (off, proj) if alive == "map" else (proj, off)
    with pytest.raises(NotPartialOrthometryError,
                       match="does not vanish") as err:
        decompose_partial_orthometry(f, f_adj, p, p)
    assert err.value.witness == {"ray": ray_payload(v)}


def gram_space_4(sf):
    """A 4-dimensional space with a tridiagonal certified Gram matrix whose
    off-diagonal entries are 1, i or the quaternion units."""
    units = {Q: (1, 1, 1), QI: (GR(0, 1),) * 3,
             HQ: (RQ(0, 1, 0, 0), RQ(0, 0, 1, 0), RQ(0, 0, 0, 1))}[sf]
    gram = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    for i, u in enumerate(units):
        gram[i][i + 1], gram[i + 1][i] = u, star_scalar(u)
    return HermitianSpace.create(sf, 4, gram)


@pytest.mark.parametrize("sf", list(StarSfield))
@pytest.mark.parametrize("quasi", [False, True])
def test_partial_wigner_round_trip(sf, quasi):
    """On the standard 5-space and on a 4-space with a Gram matrix."""
    for space, tag in ((standard_space(sf, 5), ""),
                       (gram_space_4(sf), ":gram")):
        rng = random.Random(f"pw:{sf.value}:{quasi}{tag}")
        d, core0 = random_partial_isometry(space, space, 3, rng, quasi=quasi)
        f = induce(d.map)
        p = ProbeSet.generate(space, seed=3, count=40)
        result = partial_wigner(f, induce(quasi_generalized_inverse(d)), p, p)
        assert result.s1 == d.s1 and result.s2 == d.s2
        assert scalar_ratio(result.core, core0) is not None
        induced = induce(result.map)
        for x in p:
            assert induced(x) == f(x)


def test_partial_wigner_identity_is_identity_isometry():
    q3 = standard_space(Q, 3)
    ident = induce(SemilinearMap.identity(q3))
    p = ProbeSet.generate(q3, seed=0, count=32)
    result = partial_wigner(ident, ident, p, p)
    assert result.s1 == Subspace.full(q3) == result.s2
    assert scalar_ratio(result.map, SemilinearMap.identity(q3)) is not None


def test_partial_wigner_small_core_rejected():
    q4 = standard_space(Q, 4)
    d, _ = random_partial_isometry(q4, q4, 2, random.Random(1))
    p = ProbeSet.generate(q4, seed=0, count=32)
    with pytest.raises(PreconditionError):
        partial_wigner(induce(d.map), induce(quasi_generalized_inverse(d)), p, p)


def test_transport_partial_yields_linear_unitary_core():
    hq5 = standard_space(HQ, 5)
    d, _ = random_partial_isometry(hq5, hq5, 3, random.Random(4), quasi=True)
    tr, linear_d = transport_partial(d)
    assert linear_d.map == tr.composed
    assert linear_d.core.is_linear
    assert generalized_inverse(linear_d) == adjoint_linear(linear_d.map)


def test_generalized_inverse_equals_adjoint_for_linear_partial():
    for sf in StarSfield:
        h = standard_space(sf, 4)
        d, _ = random_partial_isometry(h, h, 3, random.Random(f"gi:{sf.value}"))
        assert generalized_inverse(d) == adjoint_linear(d.map)


def test_partial_wigner_maps_rays_in_batches(monkeypatch):
    """The induced maps of the partial pipeline take whole batches to the
    map kernel; applied one ray at a time, this run took 137 kernel
    calls."""
    calls = []

    def counted(sfield, matrix, rows):
        calls.append(len(rows))
        return image_rows(sfield, matrix, rows)

    monkeypatch.setattr(orthoset, "image_rows", counted)
    q5 = standard_space(Q, 5)
    d, _ = random_partial_isometry(q5, q5, 3, random.Random(1), quasi=True)
    p = ProbeSet.generate(q5, seed=1, count=64)
    partial_wigner(induce(d.map), induce(quasi_generalized_inverse(d)), p, p)
    assert 0 < len(calls) <= 40


@pytest.mark.parametrize("sf", list(StarSfield))
def test_decomposition_feeds_no_image_row_back_to_the_kernel(sf, monkeypatch):
    """f o P(projection onto A) is evaluated as one induced map: no row
    the map kernel returns goes back into it, and the factorization check
    canonicalizes no image.  It is one `zero_images` call on the probes'
    own rows, through the difference of the two maps' matrices, which
    is zero here, so no probe goes on to an `image_rows` batch."""
    returned, fed_back, batches, screened, composed_at = {}, [], [], [], []
    zero_images = orthoset.zero_images

    def spy(sfield, matrix, rows):
        fed_back.extend(row for row in rows if id(row) in returned)
        batches.append(rows)
        out = image_rows(sfield, matrix, rows)
        returned.update((id(row), row) for row in out)  # keeps ids unique
        return out

    def spy_zero_images(matrix, rows, **kwargs):
        screened.append(rows)
        return zero_images(matrix, rows, **kwargs)

    def compose(outer, inner):
        composed_at.append((len(batches), len(screened)))
        return orthoset.compose_ray_maps(outer, inner)

    monkeypatch.setattr(orthoset, "image_rows", spy)
    monkeypatch.setattr(orthoset, "zero_images", spy_zero_images)
    monkeypatch.setattr(correspondence, "compose_ray_maps", compose)
    space = standard_space(sf, 5)
    d, _ = random_partial_isometry(space, space, 3,
                                   random.Random(f"feed:{sf.value}"),
                                   quasi=True)
    p = ProbeSet.generate(space, seed=2, count=48)
    dec = decompose_partial_orthometry(
        induce(d.map), induce(quasi_generalized_inverse(d)), p, p)
    assert dec.a == d.s1 and dec.b == d.s2
    assert fed_back == []
    # the factorization check is the last step of the decomposition
    (start, screen_start), = composed_at
    assert batches[start:] == []
    rows, = screened[screen_start:]
    assert len(rows) == len(p)
    assert all(row is x.row for row, x in zip(rows, p))


@pytest.mark.parametrize("sf", list(StarSfield))
def test_induced_adjoint_images_are_never_built(sf, monkeypatch):
    """With an induced adjoint, the decomposition and coordinatize read it
    only through its matrix: the biconditional's grid, the closure of its
    images (RayMap.image_closure) and the kernel check.  No image_rows
    batch runs on its matrix, and its memo stays empty."""
    matrices = []

    def spy(sfield, matrix, rows):
        matrices.append(matrix)
        return image_rows(sfield, matrix, rows)

    monkeypatch.setattr(orthoset, "image_rows", spy)
    space = standard_space(sf, 5)
    d, _ = random_partial_isometry(space, space, 3,
                                   random.Random(f"adjoint-spy:{sf.value}"),
                                   quasi=True)
    p = ProbeSet.generate(space, seed=3, count=48)
    f = induce(d.map)
    for run in (lambda g: decompose_partial_orthometry(f, g, p, p),
                lambda g: coordinatize(f, space, space, p, adjoint=g)):
        f_adj = induce(quasi_generalized_inverse(d))
        del matrices[:]
        run(f_adj)
        assert matrices and f._memo
        assert not any(m is f_adj._int_matrix for m in matrices)
        assert f_adj._memo == {}


def test_decomposition_rejects_an_oracle_off_on_one_probe():
    """An oracle equal to an induced partial isometry f except on one
    probe x outside A and A-perp, which it sends to another ray of B with
    the same orthogonality against the probes.  Every check before the
    factorization passes; f o P(projection onto A) sends x to f(x), not
    to the planted ray, so the factorization check names x."""
    space = standard_space(QI, 4)
    d, _ = random_partial_isometry(space, space, 2,
                                   random.Random("planted"), quasi=True)
    f, f_adj = induce(d.map), induce(quasi_generalized_inverse(d))
    p = ProbeSet.generate(space, seed=1, count=32)

    def pattern(y):
        return ray_grid(space, [y], p).tolist()

    a_perp = d.s1.orthocomplement()
    x = next(r for r in p if not r.is_zero and not d.s1.contains(r.rep)
             and not a_perp.contains(r.rep))
    planted = next(y for y in probe_rays_in(d.s2, seed=5, count=16)
                   if not y.is_zero and y != f(x)
                   and pattern(y) == pattern(f(x)))
    with pytest.raises(NotPartialOrthometryError,
                       match="factorization") as err:
        decompose_partial_orthometry(off_at(f, x, planted), f_adj, p, p)
    assert err.value.witness == {"ray": ray_payload(x)}


@pytest.mark.parametrize("sf", list(StarSfield))
def test_decomposition_rejects_a_restricted_image_outside_b(sf):
    """An oracle equal to an induced partial isometry f except on one ray
    x of `probe_rays_in(A, ...)`, the last, which it sends to a basis ray
    of B-perp.  x is no probe, so the biconditional, both closures and
    both kernel checks pass; the restriction to A's probe rays sends x
    out of B, and the check names x, the only failing ray."""
    space = standard_space(sf, 5)
    d, _ = random_partial_isometry(space, space, 3,
                                   random.Random(f"leave:{sf.value}"),
                                   quasi=True)
    f, f_adj = induce(d.map), induce(quasi_generalized_inverse(d))
    p = ProbeSet.generate(space, seed=4, count=48)
    x = probe_rays_in(d.s1, p.seed, count=16)[-1]
    assert x not in set(p)
    outside = rays_of(space, d.s2.orthocomplement().basis)[0]
    with pytest.raises(NotPartialOrthometryError,
                       match="^restricted image leaves the image "
                             "closure$") as err:
        decompose_partial_orthometry(off_at(f, x, outside), f_adj, p, p)
    assert err.value.witness == {"ray": ray_payload(x)}
    assert err.value.witness == LEAVING_WITNESS[sf]


LEAVING_WITNESS = {
    Q: {"ray": ["1", "3/7", "-3/14", "-2426887/1094730", "11955/291928"]},
    QI: {"ray": [
        "1", "-30275/24447-18200/24447i", "-5915/8149-51625/16298i",
        "26278456042959279677665/6197793967333737313992"
        "-7153831427538942737367/3443218870740965174440i",
        "-201578434622455078111/516482830611144776166"
        "+65200343695005441279/172160943537048258722i"]},
    HQ: {"ray": [
        "1", "-4244/4585 + 2304/4585i + 84/655j - 1662/4585k",
        "-30/917 - 6561/9170i + 572/917j - 5106/4585k",
        "528568239798833743809/265851498127236499240"
        " + 19964438148864212907/132925749063618249620i"
        " - 52448294596379715633/26585149812723649924j"
        " - 134432776942972700613/265851498127236499240k",
        "-15103019958827904123/19067218103387863675"
        " - 1746043946423833039737/4652401217226638736700i"
        " - 15519524210078049801/76268872413551454700j"
        " + 1958800009805122513069/1163100304306659684175k"]},
}


def test_frame_restrictions_reject_images_outside_the_target():
    q3 = standard_space(Q, 3)
    s = Subspace.from_vectors(q3, [q3.vector([1, 0, 0]), q3.vector([0, 1, 0])])
    t = Subspace.from_vectors(q3, [q3.vector([1, 1, 0]), q3.vector([0, 0, 1])])
    ident = SemilinearMap.identity(q3)
    assert between_frames(ident, s.frame, s.frame) == \
        SemilinearMap.identity(s.frame.space)
    with pytest.raises(InputError, match="does not lie in the subspace"):
        between_frames(ident, s.frame, t.frame)


def test_partial_wigner_reconstructs_once(monkeypatch):
    """One adjoint-pair check (the decomposition's), no Wigner round trip
    and no probe set on a frame space: f is rebuilt once on (ker f)-perp."""
    calls = {"pair": 0, "wigner": 0}
    probe_spaces = []
    real_pair, real_probes = orthoset.verify_adjoint_pair, \
        orthoset._generate_probes

    def pair(*args):
        calls["pair"] += 1
        return real_pair(*args)

    def wigner(*args):
        calls["wigner"] += 1
        raise AssertionError("partial_wigner ran a Wigner round trip")

    def probes(space, seed, count):
        probe_spaces.append(space)
        return real_probes(space, seed, count)

    q5 = standard_space(Q, 5)
    d, _ = random_partial_isometry(q5, q5, 3, random.Random(2), quasi=True)
    p = ProbeSet.generate(q5, seed=1, count=48)
    monkeypatch.setattr(correspondence, "verify_adjoint_pair", pair)
    monkeypatch.setattr(correspondence, "wigner_reconstruct", wigner)
    monkeypatch.setattr(orthoset, "_generate_probes", probes)
    result = partial_wigner(induce(d.map), induce(quasi_generalized_inverse(d)),
                            p, p)
    assert result.s1 == d.s1 and result.s2 == d.s2
    assert calls == {"pair": 1, "wigner": 0}
    assert all(space == q5 for space in probe_spaces)


def test_partial_wigner_certifies_the_kernel_once(monkeypatch):
    """The decomposition certifies the kernel A-perp and the
    reconstruction does not again: A-perp.contains runs once for each
    probe that f kills."""
    q5 = standard_space(Q, 5)
    e = q5.basis()
    a = Subspace.from_vectors(q5, e[1:4])
    a_perp = a.orthocomplement()
    f = induce(compose_maps(a.frame.inclusion, a.frame.projection))
    p = ProbeSet.generate(q5, seed=1, count=32)
    killed = [x for x in p if not x.is_zero and f(x).is_zero]
    assert killed == [ray_of(e[0]), ray_of(e[4])]
    asked = []
    real_contains = Subspace.contains

    def contains(self, u):
        if self == a_perp:
            asked.append(u)
        return real_contains(self, u)

    monkeypatch.setattr(Subspace, "contains", contains)
    result = partial_wigner(f, f, p, p)
    assert result.s1 == a == result.s2
    assert asked == [x.rep for x in killed]


def test_partial_wigner_rejects_a_core_that_fails_the_certificate(
        monkeypatch):
    q5 = standard_space(Q, 5)
    d, _ = random_partial_isometry(q5, q5, 3, random.Random(3))
    p = ProbeSet.generate(q5, seed=0, count=32)
    monkeypatch.setattr(correspondence, "is_quasiunitary", lambda phi: None)
    with pytest.raises(NotPartialOrthometryError, match="certificate"):
        partial_wigner(induce(d.map), induce(quasi_generalized_inverse(d)),
                       p, p)


def test_partial_wigner_maps_no_probe_after_the_reconstruction(monkeypatch):
    """The assembled map is checked against phi exactly, not by mapping
    the probes through it once more."""
    done, late = [], []
    real_reconstruct = correspondence._reconstruct
    real_apply = RayMap.apply_many

    def reconstruct(*args):
        result = real_reconstruct(*args)
        done.append(True)
        return result

    def apply_many(self, rays):
        if done:
            late.append(self)
        return real_apply(self, rays)

    monkeypatch.setattr(correspondence, "_reconstruct", reconstruct)
    monkeypatch.setattr(RayMap, "apply_many", apply_many)
    q5 = standard_space(Q, 5)
    d, _ = random_partial_isometry(q5, q5, 3, random.Random(2), quasi=True)
    p = ProbeSet.generate(q5, seed=1, count=48)
    result = partial_wigner(induce(d.map), induce(quasi_generalized_inverse(d)),
                            p, p)
    assert done == [True] and late == []
    assert result.s1 == d.s1 and result.s2 == d.s2


def test_partial_wigner_reports_a_wrong_assembly_as_internal(monkeypatch):
    q5 = standard_space(Q, 5)
    d, _ = random_partial_isometry(q5, q5, 3, random.Random(3))
    p = ProbeSet.generate(q5, seed=0, count=32)
    real_make = correspondence.make_partial_isometry

    def make(s1, s2, core):
        right = real_make(s1, s2, core)
        return PartialIsometryDescriptor(right.map.scale(2), s1, s2, core)

    monkeypatch.setattr(correspondence, "make_partial_isometry", make)
    f, f_adj = induce(d.map), induce(quasi_generalized_inverse(d))
    with pytest.raises(RuntimeError, match="differs"):
        partial_wigner(f, f_adj, p, p)
    record, = run_tasks([("partial/Q", lambda: partial_wigner(f, f_adj, p, p))])
    assert record.status == "internal"


def test_partial_wigner_computes_each_orthocomplement_once(monkeypatch):
    kernels = []
    real_kernel = linalg.left_kernel

    def left_kernel(rows):
        kernels.append([list(r) for r in rows])
        return real_kernel(rows)

    monkeypatch.setattr(linalg, "left_kernel", left_kernel)
    hq5 = standard_space(HQ, 5)
    d, _ = random_partial_isometry(hq5, hq5, 3, random.Random(4), quasi=True)
    p = ProbeSet.generate(hq5, seed=1, count=48)
    result = partial_wigner(induce(d.map), induce(quasi_generalized_inverse(d)),
                            p, p)

    def perp_system(s):
        return [[herm_form(e, v) for v in s.basis] for e in hq5.basis()]

    assert result.s1 != result.s2
    assert kernels.count(perp_system(result.s1)) == 1
    assert kernels.count(perp_system(result.s2)) == 1
    assert result.s1.orthocomplement() is result.s1.orthocomplement()


# ----------------------------------------- certificates of an induced map

def test_is_induced_by_examples(rng):
    q3, hq2 = standard_space(Q, 3), standard_space(HQ, 2)
    phi = random_linear_map(q3, q3, rng)
    while phi.rank < 3:
        phi = random_linear_map(q3, q3, rng)
    f = induce(phi)
    assert f.is_induced_by(phi) and f.is_induced_by(phi.scale(F(-3, 7)))
    assert not f.is_induced_by(shear_map(q3))
    assert not oracle_map(q3, q3, f).is_induced_by(phi)
    # below rank 2 the factor is not unique: False, not a raise
    rank1 = SemilinearMap(q3, q3, SfieldMorphism.identity(Q),
                          (q3.vector([1, 0, 0]),) + (q3.zero_vector(),) * 2)
    zero = SemilinearMap.zero(q3, q3)
    assert not induce(rank1).is_induced_by(rank1)
    assert not induce(zero).is_induced_by(zero)
    # a left multiple twists the morphism; the same images untwisted are
    # another map
    ident, kappa = SemilinearMap.identity(hq2), RQ(1, 2, 0, 1)
    assert induce(ident.scale(kappa)).is_induced_by(ident)
    fake = SemilinearMap(hq2, hq2, SfieldMorphism.identity(HQ),
                         ident.scale(kappa).images)
    assert not induce(fake).is_induced_by(ident)


def probe_mismatches(f, phi, probes):
    """The probes on which P(phi) and f differ, compared ray by ray."""
    return [x for x, y, z in zip(probes, induce(phi).apply_many(probes),
                                 f.apply_many(probes)) if y != z]


@pytest.mark.parametrize("sf", list(StarSfield))
def test_is_induced_by_holds_only_where_the_probes_agree(sf, monkeypatch):
    """Every rebuilt map of a Wigner round trip and of partial isometries
    and quasiisometries, on the standard 4-space and a Gram space, is
    certified by is_induced_by, and the ray-by-ray comparison it stands
    in for finds no mismatch on the probes."""
    seen = []
    real = RayMap.is_induced_by

    def spy(self, phi):
        verdict = real(self, phi)
        seen.append((self, phi, verdict))
        return verdict

    monkeypatch.setattr(RayMap, "is_induced_by", spy)
    rng = random.Random(f"induced-by:{sf.value}")
    for space in (standard_space(sf, 4), gram_space_4(sf)):
        p = ProbeSet.generate(space, seed=6, count=48)
        phi0 = random_quasiunitary(space, rng)
        wigner_reconstruct(induce(phi0), induce(invert_semilinear(phi0)),
                           space, space, p)
        for quasi in (False, True):
            d, _ = random_partial_isometry(space, space, 3, rng, quasi=quasi)
            partial_wigner(induce(d.map), induce(quasi_generalized_inverse(d)),
                           p, p)
        assert [verdict for _, _, verdict in seen] == [True] * 3
        for f, phi, _ in seen:
            assert probe_mismatches(f, phi, p) == []
        seen.clear()


def disagreement_cases(space, rng):
    """(name, phi, psi) pairs of maps of space for RayMap.disagreements:
    equal maps, a negated rational multiple (another matrix, the same
    rays), a left multiple (non-central over HQ), another quasiunitary
    map, a partial isometry that kills rays against its own multiple and
    against the zero map."""
    phi = random_quasiunitary(space, rng)
    d, _ = random_partial_isometry(space, space, 2, rng)
    return [("equal", phi, phi),
            ("negated", phi, phi.scale(F(-3, 7))),
            ("left-multiple", phi, phi.scale(nonzero_scalar(space.sfield,
                                                            rng))),
            ("other", phi, random_quasiunitary(space, rng)),
            ("partial", d.map, d.map.scale(nonzero_scalar(space.sfield,
                                                          rng))),
            ("zero", d.map, SemilinearMap.zero(space, space))]


@pytest.mark.parametrize("exact", [False, True], ids=["screen", "exact"])
@pytest.mark.parametrize("sf", list(StarSfield))
def test_disagreements_match_the_probe_comparison(sf, exact, monkeypatch):
    """RayMap.disagreements names the rays that probe_mismatches finds, in
    order, for induced maps and for oracles on either side, on a probe
    set (zero ray first) with some rays repeated; under
    ORTHOSET_LAB_EXACT_GRID=1 too.  Two induced maps with one matrix
    map no ray; the other pairs differ in their matrices."""
    if exact:
        monkeypatch.setenv("ORTHOSET_LAB_EXACT_GRID", "1")
    space = standard_space(sf, 4)
    rays = list(ProbeSet.generate(space, seed=4, count=40))
    rays += rays[5:8] + rays[:1]
    counts = {}
    for name, phi, psi in disagreement_cases(space,
                                             random.Random(f"dis:{sf.value}")):
        want = probe_mismatches(induce(psi), phi, rays)
        for left, right in ((induce(phi), induce(psi)),
                            (oracle_map(space, space, induce(phi)),
                             induce(psi)),
                            (induce(phi),
                             oracle_map(space, space, induce(psi))),
                            (oracle_map(space, space, induce(phi)),
                             oracle_map(space, space, induce(psi)))):
            got = left.disagreements(right, rays)
            assert [rays[i] for i in got] == want
            assert got == sorted(got)
        same = (map_matrix(phi) == map_matrix(psi)).all()
        assert same == (name == "equal")
        f = induce(phi)
        assert f.disagreements(induce(psi), rays) == got
        assert (f._memo == {}) == same
        counts[name] = len(want)
    assert counts["equal"] == counts["negated"] == 0
    assert counts["left-multiple"] == counts["partial"] == 0
    # every proper probe but the kernel's; the zero ray always agrees
    assert 0 < counts["zero"] < len(rays) - 1
    assert counts["other"] > len(rays) // 2


def test_disagreements_checks_the_spaces():
    q2, q3 = standard_space(Q, 2), standard_space(Q, 3)
    f = induce(SemilinearMap.identity(q3))
    with pytest.raises(InputError, match="different domains or codomains"):
        f.disagreements(induce(SemilinearMap.zero(q3, q2)), [])
    with pytest.raises(InputError, match="domain"):
        f.disagreements(f, rays_of(q2, q2.basis()))
    assert f.disagreements(f, []) == []


@pytest.mark.parametrize("sf", [QI, HQ])
def test_factorization_names_the_first_planted_probe(sf):
    """An oracle equal to an induced partial isometry f except on three
    probes outside A and A-perp, each sent to another ray of B with the
    same orthogonality against the probes: every check before the
    factorization passes, and the factorization check names the first of
    the three in probe order, whose payload PLANTED_WITNESS pins."""
    space = standard_space(sf, 4)
    d, _ = random_partial_isometry(space, space, 2,
                                   random.Random(f"planted:{sf.value}"),
                                   quasi=True)
    f, f_adj = induce(d.map), induce(quasi_generalized_inverse(d))
    p = ProbeSet.generate(space, seed=3, count=32)
    a_perp = d.s1.orthocomplement()
    targets = probe_rays_in(d.s2, seed=7, count=32)
    plant = {}
    for x in reversed(list(p)):
        if x.is_zero or d.s1.contains(x.rep) or a_perp.contains(x.rep):
            continue
        pattern = ray_grid(space, [f(x)], p).tolist()
        y = next((y for y in targets if not y.is_zero and y != f(x)
                  and ray_grid(space, [y], p).tolist() == pattern), None)
        if y is not None:
            plant[x] = y
        if len(plant) == 3:
            break
    assert len(plant) == 3
    g = RayMap(space, space, oracle=lambda rays: [
        plant.get(r, z) for r, z in zip(rays, f.apply_many(rays))])
    with pytest.raises(NotPartialOrthometryError,
                       match="factorization") as err:
        decompose_partial_orthometry(g, f_adj, p, p)
    first = next(x for x in p if x in plant)
    assert err.value.witness == {"ray": ray_payload(first)}
    assert err.value.witness == PLANTED_WITNESS[sf]


PLANTED_WITNESS = {
    QI: {"ray": ["1", "-28/15-16/5i", "-4/5-16/15i", "8/5-64/35i"]},
    HQ: {"ray": ["1", "1002/1141 + 582/1141i - 5402/5705j + 22124/5705k",
                 "-14599/17115 - 2512/17115i + 535/978j + 13/3423k",
                 "80/163 - 355/2282i + 828/1141j + 969/1141k"]},
}


def test_a_wrong_twist_is_found_on_the_probes(monkeypatch):
    """A twist classifier planted to return the identity rebuilds a Qi
    conj map as a linear one, which no left multiple of the map is: the
    probe comparison runs and names the same count and first probe for
    the induced map as for the same map given as an oracle."""
    space = standard_space(QI, 3)
    phi = compose_maps(conjugation_map(space),
                       random_unitary(space, random.Random(5)))
    assert phi.sigma.kind == "conj"
    monkeypatch.setattr(correspondence, "_classify_twist",
                        lambda sfield, images: SfieldMorphism.identity(sfield))
    p = ProbeSet.generate(space, seed=2, count=64)
    for f in (induce(phi), oracle_map(space, space, induce(phi))):
        with pytest.raises(NotInducedError,
                           match="^reconstructed map disagrees with the "
                                 "oracle on probes$") as err:
            coordinatize(f, space, space, p, injective=True)
        assert err.value.witness == {
            "ray": ["1", "6552/3697+8043/7394i", "-1197/3697-9681/7394i"],
            "mismatches": 60}


@pytest.mark.parametrize("sf,reductions", [(Q, 1), (QI, 1), (HQ, 3)])
def test_wigner_round_trip_exact_work_counts(sf, reductions, monkeypatch):
    """Two Wigner round trips on one fresh Gram space with 256 probes: the
    kernel check's screen leaves no probe row for the exact product, the
    full subspace's frame is built on the first call only, and each call
    runs `reductions` scalar rrefs, the twist's and the final
    certificate's, none for the sum rays."""
    counts = {"exact_rows": 0, "frames": 0, "reduce": 0}
    product, reduce = perpgrid._limb_product, linalg._reduce
    zero_images = perpgrid.zero_images
    for_subspace = hermspace.SubspaceFrame.for_subspace.__func__
    inside = []

    def spy_zero_images(matrix, rows, **kwargs):
        inside.append(True)
        try:
            return zero_images(matrix, rows, **kwargs)
        finally:
            inside.pop()

    def spy_product(rows, matrix):
        if inside:
            counts["exact_rows"] += len(rows)
        return product(rows, matrix)

    def spy_reduce(rows, track):
        counts["reduce"] += 1
        return reduce(rows, track)

    def spy_frame(cls, s):
        counts["frames"] += 1
        return for_subspace(cls, s)

    monkeypatch.setattr(orthoset, "zero_images", spy_zero_images)
    monkeypatch.setattr(perpgrid, "_limb_product", spy_product)
    monkeypatch.setattr(linalg, "_reduce", spy_reduce)
    monkeypatch.setattr(hermspace.SubspaceFrame, "for_subspace",
                        classmethod(spy_frame))
    # a Gram matrix no other test builds, so its space is fresh
    space = HermitianSpace.create(
        sf, 4, [[(13, 17, 19, 29)[i] if i == j else 0 for j in range(4)]
                for i in range(4)])
    p = ProbeSet.generate(space, seed=30, count=256)
    rng = random.Random(f"exact-work:{sf.value}")
    seen = []
    for _ in range(2):
        phi0 = random_quasiunitary(space, rng)
        f, f_inv = induce(phi0), induce(invert_semilinear(phi0))
        for key in counts:
            counts[key] = 0
        wig = wigner_reconstruct(f, f_inv, space, space, p)
        assert scalar_ratio(wig.coordinatization.map, phi0) is not None
        seen.append(dict(counts))
    assert seen == [{"exact_rows": 0, "frames": 1, "reduce": reductions},
                    {"exact_rows": 0, "frames": 0, "reduce": reductions}]


@pytest.mark.parametrize("sf", list(StarSfield))
def test_partial_wigner_exact_work_counts(sf, monkeypatch):
    """One partial reconstruction builds no scalar where planes serve:
    every `compose_maps` is one integer product, with no
    `SemilinearMap.apply`; membership in B is read off the B-perp grid,
    with no `Subspace.contains` on B; and `probe_rays_in` draws integer
    coefficient rows, with no `Vector.__add__`."""
    counts = {"compose_apply": 0, "contains_on_b": 0, "probe_add": 0}
    inside, subspaces = [], []
    apply, add = SemilinearMap.apply, hermspace.Vector.__add__
    contains = Subspace.contains

    def within(name, fn):
        def spy(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return spy

    def spy_apply(self, u):
        counts["compose_apply"] += "compose" in inside
        return apply(self, u)

    def spy_add(self, other):
        counts["probe_add"] += "probes" in inside
        return add(self, other)

    def spy_contains(self, u):
        subspaces.append(self)
        return contains(self, u)

    compose = within("compose", hermspace.compose_maps)
    for module in (hermspace, orthoset, correspondence):
        monkeypatch.setattr(module, "compose_maps", compose)
    monkeypatch.setattr(correspondence, "probe_rays_in",
                        within("probes", orthoset.probe_rays_in))
    monkeypatch.setattr(SemilinearMap, "apply", spy_apply)
    monkeypatch.setattr(hermspace.Vector, "__add__", spy_add)
    monkeypatch.setattr(Subspace, "contains", spy_contains)
    space = standard_space(sf, 5)
    d, core0 = random_partial_isometry(space, space, 3,
                                       random.Random(f"work:{sf.value}"),
                                       quasi=True)
    p = ProbeSet.generate(space, seed=6, count=48)
    got = partial_wigner(induce(d.map), induce(quasi_generalized_inverse(d)),
                         p, p)
    assert got.s1 == d.s1 and got.s2 == d.s2
    assert scalar_ratio(got.core, core0) is not None
    counts["contains_on_b"] = sum(s == d.s2 for s in subspaces)
    assert counts == {"compose_apply": 0, "contains_on_b": 0, "probe_add": 0}


def test_residues_recombined_once_per_map(monkeypatch):
    """Two Wigner round trips per sfield on 64 probes: each induced map's
    K mod PRIME is recombined from its limbs once, and serves its grid in
    the adjoint check and, for f, the kernel check, so a round trip
    recombines two, f's and f^-1's."""
    seen = []
    real = perpgrid._limb_residues

    def spy(matrix, p):
        seen.append(matrix)
        return real(matrix, p)

    monkeypatch.setattr(perpgrid, "_limb_residues", spy)
    monkeypatch.setattr(orthoset, "_limb_residues", spy)
    rng = random.Random("residues-once")
    for sf in StarSfield:
        space = standard_space(sf, 3)
        p = ProbeSet.generate(space, seed=5, count=64)
        for _ in range(2):
            phi0 = random_quasiunitary(space, rng)
            f, f_inv = induce(phi0), induce(invert_semilinear(phi0))
            del seen[:]
            wigner_reconstruct(f, f_inv, space, space, p)
            assert [id(m) for m in seen] == [id(f._int_matrix),
                                             id(f_inv._int_matrix)]


@pytest.mark.parametrize("sf", list(StarSfield))
def test_wigner_canonicalizes_no_probe_image(sf, monkeypatch):
    """One Wigner round trip on 256 probes canonicalizes only the rays the
    reconstruction reads, 2n - 1 + |generators| of them: the kernel check
    and the final certificate read the map's matrix, not probe images."""
    space = gram_space_4(sf)
    phi0 = random_quasiunitary(space, random.Random(f"canon:{sf.value}"))
    f_inv = induce(invert_semilinear(phi0))
    p = ProbeSet.generate(space, seed=8, count=256)
    batches = []
    real = perpgrid._primitive_rows

    def spy(sfield, y):
        batches.append(len(y))
        return real(sfield, y)

    monkeypatch.setattr(perpgrid, "_primitive_rows", spy)
    wig = wigner_reconstruct(induce(phi0), f_inv, space, space, p)
    assert scalar_ratio(wig.coordinatization.map, phi0) is not None
    assert max(batches) == 2 * space.dim - 1 + len(sf.generators())
