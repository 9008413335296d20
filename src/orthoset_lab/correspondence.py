"""The dictionary between semilinear maps and ray maps.

One direction is easy: a semilinear map phi induces the ray map sending <u>
to <phi(u)>.  The other direction is constructive coordinatization: given a
ray map known to be adjointable (with its adjoint supplied and
probe-verified, or known injective), rebuild a semilinear map that induces
it, classify its sfield twist, and certify the result.  An induced ray map
f = P(psi) is certified through its matrix: the rebuilt phi is a nonzero
left multiple of psi (`RayMap.is_induced_by`), so P(phi) = f on every ray,
and no probe image is built; an oracle, or a rebuilt map that fails that
test, is compared with f on every probe (`RayMap.disagreements`).  The
stated kernel is certified in one place, _certify_kernel, which
coordinatize and decompose_partial_orthometry call with their own error
classes; it reads which rays f kills (`RayMap.kills`), off the matrix
for an induced f.
_reconstruct only rebuilds.  The certified kernel complement sets
the rank, so coordinatize asks f only ray-map questions (its images, the
rays it kills, whether a given map induces it) and never reads its
semilinear map.  The twist is held
once, as the rebuilt map's sigma.  On top of that sit the orthometric
specialisations: extraction of the form scale factor of an
orthogonality-preserving map, re-coordinatizations that turn quasi-maps into
honestly linear or unitary ones, and the kernel/image decomposition of
partial orthometries.  A partial orthometry is reconstructed once, by
coordinatize's exact reconstruction on the kernel complement that its
decomposition found; the core between the two subspace frames is then
certified quasiunitary, with no second round trip.  Scale factors and
transports read the one certificate of hermspace, `form_scale`; the scale of
a bijective map is a positive rational (see hermspace.is_quasiunitary), so a
transport through its twist and scale always lands in a certified space.

Reconstructed maps are unique only up to a left scalar; all round-trip
verification in this module is therefore modulo scalar_ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    InconsistencyError,
    InputError,
    NotInducedError,
    NotOrthoisoError,
    NotPartialOrthometryError,
    OrthogonalityViolationError,
    PreconditionError,
)
from .hermspace import (
    HermitianSpace,
    PartialIsometryDescriptor,
    SemilinearMap,
    Subspace,
    Vector,
    between_frames,
    compose_maps,
    form_scale,
    is_quasiunitary,
    is_unitary,
    make_partial_isometry,
)
from .orthoset import (
    ProbeSet,
    RayMap,
    compose_ray_maps,
    probe_rays_in,
    ray_grid,
    ray_payload,
    rays_of,
    verify_adjoint_pair,
)
from .reports import ReportRecord, passed
from .scalars import RationalQuaternion, inv_scalar
from .starfields import SfieldMorphism, StarSfield


@dataclass(frozen=True)
class TransportResult:
    """A re-coordinatization of the codomain: tau is the identity on
    vectors but semilinear for the new scalar structure, and composed
    (= tau o phi) is linear, or unitary in the unitary variant."""

    new_space: HermitianSpace
    tau: SemilinearMap
    composed: SemilinearMap


@dataclass(frozen=True)
class CoordinatizationResult:
    map: SemilinearMap
    verified: list


@dataclass(frozen=True)
class WignerResult:
    coordinatization: CoordinatizationResult
    lam: object


@dataclass(frozen=True)
class PartialOrthometryDecomposition:
    a: Subspace  # (ker f)-perp, equal to the closure of im f*
    b: Subspace  # im f closure, equal to (ker f*)-perp
    report: list


def induce(phi: SemilinearMap) -> RayMap:
    """P(phi): <u> -> <phi(u)>."""
    return RayMap(phi.domain, phi.codomain, mapping=phi)


def piziak_lambda(phi: SemilinearMap, probes: ProbeSet | None = None):
    """The unique scale factor lam with
    <phi(u), phi(v)> = sigma(<u, v>) * lam for all u, v.

    Requires an at least 2-dimensional domain and a map that preserves
    orthogonality, which is pre-checked on all Gram-orthogonal basis pairs
    of phi.image_gram and, when probes are supplied, on all orthogonal
    probe pairs.  Then lam is form_scale(phi), a positive rational if phi
    is bijective.
    """
    h1 = phi.domain
    if h1.dim < 2:
        raise PreconditionError("the scale factor needs dimension >= 2")
    g1 = h1.gram
    img = phi.image_gram
    n = h1.dim
    for i in range(n):
        for j in range(n):
            if not g1[i][j] and img[i][j]:
                raise OrthogonalityViolationError(
                    "orthogonal basis pair with non-orthogonal images",
                    witness={"i": i, "j": j})
    if probes is not None:
        rays = list(probes)
        dom_grid = ray_grid(h1, rays, rays)
        images = induce(phi).apply_many(rays)
        img_grid = ray_grid(phi.codomain, images, images)
        bad = dom_grid & ~img_grid
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise OrthogonalityViolationError(
                "orthogonal probe pair with non-orthogonal images",
                witness={"x": ray_payload(rays[i]), "y": ray_payload(rays[j])})
    return form_scale(phi)


def _transport(phi: SemilinearMap, sigma: SfieldMorphism,
               lam=None) -> TransportResult:
    """Replace the scalar structure of phi's codomain through sigma^-1, and
    rescale its form by lam^-1 when lam is given; tau is the identity on
    vectors and composed is tau o phi.

    The new space's certificate passes.  Every supported sigma^-1 is an
    automorphism that commutes with the star and fixes the rationals, so
    entrywise it takes G = L D L* to sigma^-1(L) D sigma^-1(L)*, with the
    same positive pivots; and lam^-1 > 0 (a positive rational, by
    is_quasiunitary) scales every pivot by a positive rational.
    """
    sig_inv = sigma.inverse()
    h2 = phi.codomain
    gram = h2.gram
    if lam is not None:
        lam_inv = inv_scalar(lam)
        gram = tuple(tuple(x * lam_inv for x in row) for row in gram)
    new_space = HermitianSpace(
        h2.sfield, h2.dim, tuple(tuple(sig_inv(x) for x in row)
                                 for row in gram))
    tau = SemilinearMap(h2, new_space, sig_inv, tuple(new_space.basis()))
    return TransportResult(new_space, tau, compose_maps(tau, phi))


def transport_linear(phi: SemilinearMap) -> TransportResult:
    """Replace the codomain's scalar structure through sigma^-1 so that the
    same vectors form a Hermitian space over which tau o phi is linear;
    tau is the identity on vectors and P(tau) is an orthoisomorphism."""
    result = _transport(phi, phi.sigma)
    assert result.composed.is_linear
    return result


def transport_unitary(phi: SemilinearMap) -> TransportResult:
    """Like transport_linear, but rescale the form by lam^-1 as well, so
    that tau o phi preserves it on the nose.  The twist and lam come from
    the one certificate is_quasiunitary(phi); lam is a positive rational,
    so the rescaled space certifies."""
    cert = is_quasiunitary(phi)
    if cert is None:
        raise InputError("map is not quasiunitary")
    result = _transport(phi, *cert)
    if not is_unitary(result.composed):
        raise InconsistencyError("transported map failed the unitary check")
    return result


def _solve_inner_conjugator(pairs) -> RationalQuaternion | None:
    """A quaternion q with q * g = p * q for every (g, p) pair, i.e. the
    conjugator realizing g -> p as an inner automorphism; None if the
    system has no nonzero solution."""
    basis = StarSfield.HQ.basis()
    rows = []  # equations as rows of a rational matrix, unknowns = coords of q
    for g, p in pairs:
        cols = []
        for e in basis:
            diff = e * g - p * e
            cols.append([diff.a, diff.b, diff.c, diff.d])
        for comp in range(4):
            rows.append([cols[k][comp] for k in range(4)])
    # right kernel of the system = left kernel of its transpose (rationals)
    transpose = [[rows[r][k] for r in range(len(rows))] for k in range(4)]
    kernel = linalg.left_kernel(transpose)
    for cand in kernel:
        q = RationalQuaternion(*[Fraction(x) for x in cand])
        if q:
            return q
    return None


def _classify_twist(sfield: StarSfield, generator_images) -> SfieldMorphism:
    if sfield is StarSfield.Q:
        return SfieldMorphism.identity(sfield)
    if sfield is StarSfield.QI:
        (g, img), = generator_images
        if img == g:
            return SfieldMorphism.identity(sfield)
        if img == -g:
            return SfieldMorphism.conjugation()
        raise InconsistencyError(
            "twist sends i outside {i, -i}; the map is not semilinear "
            "over the Gaussian rationals", witness={"image": str(img)})
    q = _solve_inner_conjugator(generator_images)
    if q is None:
        raise InconsistencyError(
            "twist is not an inner automorphism of the quaternions",
            witness={"images": [str(p) for _, p in generator_images]})
    sigma = SfieldMorphism.inner(q)
    for g, p in generator_images:
        if sigma(g) != p:
            raise InconsistencyError(
                "conjugator fails to reproduce the probed twist",
                witness={"generator": str(g)})
    return sigma


def coordinatize(f: RayMap, h1: HermitianSpace, h2: HermitianSpace,
                 probes: ProbeSet, adjoint: RayMap | None = None,
                 injective: bool = False) -> CoordinatizationResult:
    """Rebuild a semilinear map phi with P(phi) = f.

    The caller must justify adjointability one of two ways: supply the
    adjoint oracle (verified here against probes and the codomain probes
    of the same seed and count; partial maps need this), or declare the
    map injective (orthoisomorphism pipelines).  Probing alone cannot find
    the kernel of an arbitrary oracle: random rays miss a proper subspace,
    so zero-image probes only corroborate, and the kernel is derived from
    the adjoint's image closure, which the theory makes exact.  An
    induced adjoint P(psi) is closed through its map
    (`RayMap.image_closure`): the closure is the span of psi's images of
    a basis, as psi(span X) = span psi(X), and no probe image of the
    adjoint is built.

    The kernel is certified here, once (_certify_kernel): f must kill
    its basis rays, and every probe f kills must lie in it.  Its complement
    k_sub sets the rank that the rank >= 3 gate reads, as ker f =
    g(H2)-perp; the injective branch trusts its claim and gates on h1.dim.
    A claimed adjoint that fails raises InputError before the gate.  The
    injective branch's k_sub is `Subspace.full(h1)`, one per space, so its
    orthogonal basis, frame and projection are built on the first call on
    h1 only.  The reconstruction then anchors the scale on the first basis
    vector of the kernel complement, fixes every other image by
    decomposing the image of a sum ray on the two rows' pivots
    (`linalg.plane_coords`), reads off the sfield twist on
    generator-scaled sum rays the same way, and finally certifies
    P(phi) = f: on every ray when f is induced by a
    nonzero left multiple of phi (`RayMap.is_induced_by`), which by
    Wigner's uniqueness up to a left scalar holds for every induced f that
    the reconstruction fits, and otherwise on every probe.
    """
    records: list[ReportRecord] = []
    if f.domain is not h1 or f.codomain is not h2:
        raise InputError("ray map does not match the stated spaces")
    if adjoint is not None:
        probes2 = ProbeSet.generate(h2, probes.seed, probes.count)
        pair = verify_adjoint_pair(f, adjoint, probes, probes2)
        records.extend(pair)
        if not passed(pair):
            raise InputError("claimed adjoint fails on probes",
                             witness=pair[0].witness)
        k_sub = adjoint.image_closure(probes2)
        kernel = k_sub.orthocomplement()
    elif injective:
        # every space is anisotropic, so the full space's complement is 0
        k_sub, kernel = Subspace.full(h1), Subspace.zero(h1)
    else:
        raise InputError("need an adjoint oracle or injectivity")

    _certify_kernel(f, kernel, probes, NotInducedError)
    if k_sub.dim < 3:
        raise PreconditionError(
            f"coordinatization needs rank >= 3, got {k_sub.dim}")
    phi = _reconstruct(f, k_sub, probes)
    records.append(ReportRecord(
        check="coordinatize/probe-match", status="pass",
        detail={"probes": len(list(probes))}))
    return CoordinatizationResult(phi, records)


def _certify_kernel(g: RayMap, kernel: Subspace, probes, error) -> None:
    """Raise error unless g kills every basis ray of kernel and every proper
    probe that g kills lies in kernel: the one kernel check, of coordinatize
    and decompose_partial_orthometry, each with its own error class.  Both
    loops read `RayMap.kills`, which decides an induced g on the rays' rows
    times its matrix, canonicalizing no image: mod p first, where a
    nonzero residue proves a live ray, and exactly only for the nonzero
    rows whose images vanish mod p.  An injective g, as on every Wigner
    round trip, takes no exact product."""
    rays = rays_of(kernel.space, kernel.basis)
    for x, dead in zip(rays, g.kills(rays)):
        if not dead:
            raise error("map does not vanish on the stated kernel",
                        witness={"ray": ray_payload(x)})
    for x, dead in zip(probes, g.kills(probes)):
        if not x.is_zero and dead and not kernel.contains(x.rep):
            raise error("probe killed by the map lies outside the stated "
                        "kernel", witness={"ray": ray_payload(x)})


def _reconstruct(f: RayMap, k_sub: Subspace,
                 probes: ProbeSet) -> SemilinearMap:
    """The semilinear map phi with P(phi) = f, for f whose kernel, the
    orthocomplement of k_sub, the caller has certified (_certify_kernel):
    no kernel ray is mapped here, and the callers gate k_sub.dim >= 3.
    Raises NotInducedError when f does not fit, and returns only once
    P(phi) = f is certified.  When f is induced by kappa phi, kappa != 0
    (`RayMap.is_induced_by`), the two agree on every ray and no probe is
    mapped.  An induced f = P(psi) that fits the basis, sum and generator
    rays always passes: those rays fix phi on the orthogonal basis as one
    common left multiple of psi, with the twist conjugated to match, and
    both kill the certified kernel.  Otherwise, for an oracle or a wrongly
    rebuilt phi, P(phi) and f are compared on every probe
    (`RayMap.disagreements`: a probe whose row phi's and f's matrices
    map to one row agrees, and only the others are canonicalized), and a
    mismatch reports its count and first probe."""
    h1, h2 = f.domain, f.codomain
    us = list(k_sub.orthogonal_basis)
    # one batch: the complement's orthogonal basis us, the sum rays
    # us[0] + us[i] and the generator-scaled us[0] + g us[1]
    n, gens = len(us), h1.sfield.generators()
    rays = rays_of(h1, us + [us[0] + u for u in us[1:]]
                   + [us[0] + g * us[1] for g in gens])
    images = f.apply_many(rays)
    f_u, f_sum, f_gen = images[:n], images[n:2 * n - 1], images[2 * n - 1:]

    for x, img in zip(rays, f_u):
        if img.is_zero:
            raise NotInducedError(
                "map vanishes inside the stated kernel complement",
                witness={"ray": ray_payload(x)})

    phi_u: list[Vector] = [f_u[0].rep]
    for i, target in enumerate(f_sum, start=1):
        # phi_u[0] and f_u[i].rep are nonzero canonical representatives,
        # so they are collinear exactly when the rays are equal, and
        # otherwise plane_coords solves on their pivots for the unique pair
        if f_u[i] == f_u[0]:
            raise NotInducedError(
                "independent rays get collinear images on the kernel "
                "complement", witness={"index": i})
        if target.is_zero:
            raise NotInducedError("sum ray collapses to zero",
                                  witness={"index": i})
        coeffs = linalg.plane_coords(phi_u[0].coords, f_u[i].rep.coords,
                                     target.rep.coords)
        if coeffs is None or not coeffs[0] or not coeffs[1]:
            raise NotInducedError(
                "image of a sum ray leaves the plane of the summand images",
                witness={"index": i, "ray": ray_payload(target)})
        a, b = coeffs
        phi_u.append((inv_scalar(a) * b) * f_u[i].rep)

    generator_images = []
    # phi_u[1] is a nonzero left multiple of f_u[1].rep, so the plane's
    # rows stay independent
    for g, target in zip(gens, f_gen):
        if target.is_zero:
            raise NotInducedError("generator-scaled sum ray collapses to zero",
                                  witness={"generator": str(g)})
        coeffs = linalg.plane_coords(phi_u[0].coords, phi_u[1].coords,
                                     target.rep.coords)
        if coeffs is None or not coeffs[0]:
            raise NotInducedError(
                "image of a generator-scaled sum ray leaves the expected "
                "plane", witness={"generator": str(g)})
        a, b = coeffs
        generator_images.append((g, inv_scalar(a) * b))
    sigma = _classify_twist(h1.sfield, generator_images)

    # phi sends us[i] to phi_u[i] and kills the kernel
    frame = k_sub.frame
    phi = compose_maps(SemilinearMap(frame.space, h2, sigma, tuple(phi_u)),
                       frame.projection)

    if f.is_induced_by(phi):
        return phi
    rays = list(probes)
    mismatches = induce(phi).disagreements(f, rays)
    if mismatches:
        raise NotInducedError(
            "reconstructed map disagrees with the oracle on probes",
            witness={"ray": ray_payload(rays[mismatches[0]]),
                     "mismatches": len(mismatches)})
    return phi


def wigner_reconstruct(f: RayMap, f_inv: RayMap, h1: HermitianSpace,
                       h2: HermitianSpace, probes: ProbeSet) -> WignerResult:
    """Rebuild a quasiunitary map inducing the orthoisomorphism f.

    f_inv is the inverse oracle; f and f_inv are verified to be an adjoint
    pair on probes, which characterises orthoisomorphisms.  The
    reconstructed map is certified quasiunitary; the certificate, not
    literal scale equality, is the contract, since reconstruction is only
    unique up to a left scalar.  Its twist is the map's own sigma.
    """
    if h1.dim < 3 or h2.dim < 3:
        raise PreconditionError("reconstruction needs dimensions >= 3")
    probes2 = ProbeSet.generate(h2, probes.seed, probes.count)
    pair = verify_adjoint_pair(f, f_inv, probes, probes2)
    if not passed(pair):
        raise NotOrthoisoError(
            "map and claimed inverse are not an adjoint pair",
            witness=pair[0].witness)
    coord = coordinatize(f, h1, h2, probes, injective=True)
    cert = is_quasiunitary(coord.map)
    if cert is None:
        raise NotOrthoisoError("reconstructed map failed the quasiunitary "
                               "certificate")
    return WignerResult(coord, lam=cert[1])


def decompose_partial_orthometry(f: RayMap, f_adj: RayMap,
                                 probes1: ProbeSet,
                                 probes2: ProbeSet) -> PartialOrthometryDecomposition:
    """Split a partial orthometry into inclusion o core o projection.

    The subspaces come out of image closures: A is the closure of the
    adjoint's images (the theory identifies it with (ker f)-perp) and B the
    closure of f's images.  Both identifications are then enforced by the
    one kernel check (_certify_kernel): f must kill the orthocomplement of
    A ray by ray and every probe it kills must lie there, and f_adj must
    kill the orthocomplement of B.  The restriction to A-probes
    (`probe_rays_in`, drawn as integer rows) must send every proper ray
    to a proper ray of B and preserve orthogonality both ways, and the
    composite f o P(projection onto A) must reproduce f on every probe.

    Membership in B is read off one exact grid, of the images against
    the basis rays of B-perp, which the kernel check of f_adj built, and
    against themselves for the orthogonality check; no image is reduced
    against B's basis.  This is exact: the space is finite-dimensional
    and anisotropic, so B = (B-perp)-perp, and an image lies in B exactly
    when it is orthogonal to every basis vector of B-perp.  The witness
    is the first A-ray, in order, whose image is zero or leaves B.

    An induced map's image closure is read through its map
    (`RayMap.image_closure`): the closure of phi's images of the probes
    is the span of phi's images of a basis of the probes' span, since
    phi(span X) = span phi(X).  So no probe image of an induced map is
    built for the closures, and the kernel check reads f's matrix
    (`RayMap.kills`).

    That composite is `compose_ray_maps(f, P(projection onto A))`, whose
    map is built on integer planes (`compose_maps`), and the
    factorization check is `RayMap.disagreements` between it and f on
    the probes.  For an induced f the composite is induced by f's map
    after the projection; once the kernel check has shown that f kills
    A-perp, that map is f's map itself, with f's matrix K.  Every probe's
    row x is still evaluated, as x (K' - K) for the composite's matrix
    K', and a probe with x (K' - K) = 0 agrees, so no probe image of
    either map is canonicalized.  For an oracle f the projected images
    go through the oracle, and both sides' images are compared as rays.
    """
    records = verify_adjoint_pair(f, f_adj, probes1, probes2)
    if not passed(records):
        raise NotPartialOrthometryError("map and claimed adjoint fail the "
                                        "biconditional", witness=records[0].witness)
    h1, h2 = f.domain, f.codomain
    a_sub = f_adj.image_closure(probes2)
    b_sub = f.image_closure(probes1)

    b_perp = b_sub.orthocomplement()
    _certify_kernel(f, a_sub.orthocomplement(), probes1,
                    NotPartialOrthometryError)
    _certify_kernel(f_adj, b_perp, (), NotPartialOrthometryError)

    a_rays = probe_rays_in(a_sub, probes1.seed, count=max(16, 2 * a_sub.dim + 1))
    images = f.apply_many(a_rays)
    # B = (B-perp)-perp in a finite-dimensional anisotropic space, so an
    # image lies in B exactly when it is orthogonal to every basis ray of
    # B-perp: one grid of the images against those rays and themselves
    # decides membership and the orthogonality check below
    grid = ray_grid(h2, images, images + rays_of(h2, b_perp.basis))
    img_grid, in_b = grid[:, :len(images)], grid[:, len(images):].all(axis=1)
    for x, img, inside in zip(a_rays, images, in_b):
        if not x.is_zero and (img.is_zero or not inside):
            raise NotPartialOrthometryError(
                "restricted image leaves the image closure",
                witness={"ray": ray_payload(x)})
    dom_grid = ray_grid(h1, a_rays, a_rays)
    if (dom_grid != img_grid).any():
        i, j = np.argwhere(dom_grid != img_grid)[0]
        raise NotPartialOrthometryError(
            "restriction to A does not preserve orthogonality both ways",
            witness={"x": ray_payload(a_rays[i]), "y": ray_payload(a_rays[j])})
    records.append(ReportRecord(check="partial/core-orthoiso", status="pass",
                                detail={"rays": len(a_rays)}))

    frame = a_sub.frame
    project_a = induce(compose_maps(frame.inclusion, frame.projection))
    rays = list(probes1)
    bad = compose_ray_maps(f, project_a).disagreements(f, rays)
    if bad:
        raise NotPartialOrthometryError(
            "factorization through A and B does not reproduce the map",
            witness={"ray": ray_payload(rays[bad[0]])})
    records.append(ReportRecord(check="partial/factorization", status="pass",
                                detail={"probes": len(rays)}))
    return PartialOrthometryDecomposition(a_sub, b_sub, records)


def partial_wigner(f: RayMap, f_adj: RayMap, probes1: ProbeSet,
                   probes2: ProbeSet) -> PartialIsometryDescriptor:
    """Rebuild a partial quasiisometry inducing the partial orthometry f;
    needs the kernel complement A to have dimension >= 3.

    f is reconstructed once, exactly, with kernel A-perp, which the
    decomposition has certified, and its core between the frames of A and
    B must pass the quasiunitary certificate: on A, f is an
    orthoisomorphism onto B, so in dimension >= 3 it is induced by a
    quasiunitary map (Wigner's theorem in Uhlhorn's orthogonality form)."""
    dec = decompose_partial_orthometry(f, f_adj, probes1, probes2)
    if dec.a.dim < 3:
        raise PreconditionError(
            f"partial reconstruction needs a core of dimension >= 3, "
            f"got {dec.a.dim}")
    phi = _reconstruct(f, dec.a, probes1)
    core = between_frames(phi, dec.a.frame, dec.b.frame)
    if is_quasiunitary(core) is None:
        raise NotPartialOrthometryError(
            "reconstructed core failed the quasiunitary certificate")
    descriptor = make_partial_isometry(dec.a, dec.b, core)
    # descriptor.map is P_B o phi o P_A, P_S = inclusion(S) o projection(S);
    # phi kills A-perp and sends A into B (between_frames checked it), so it
    # is phi, whose P(phi) = f _reconstruct matched: a difference is a bug.
    if descriptor.map != phi:
        raise RuntimeError("assembled partial map differs from the "
                           "reconstructed one")
    return descriptor


def transport_partial(d: PartialIsometryDescriptor) -> tuple[TransportResult,
                                                             PartialIsometryDescriptor]:
    """Re-coordinatize the codomain so a partial quasiisometry becomes a
    partial isometry with a linear, unitary core."""
    cert = is_quasiunitary(d.core)
    if cert is None:
        raise InputError("descriptor core is not quasiunitary")
    result = _transport(d.map, *cert)
    # tau twists coordinates by sigma^-1, so the carried subspace is spanned
    # by tau-images of the old basis, not by the same coordinate rows
    s2_new = Subspace.from_vectors(
        result.new_space, [result.tau.apply(v) for v in d.s2.basis])
    core = between_frames(result.composed, d.s1.frame, s2_new.frame)
    transported = make_partial_isometry(d.s1, s2_new, core)
    if d.s1.dim and not is_unitary(core):
        raise InconsistencyError("transported core failed the unitary check")
    return result, transported
