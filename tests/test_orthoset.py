import random
import sys
from fractions import Fraction as F

import pytest
from conftest import nonzero_scalar

from orthoset_lab import linalg, orthoset, perpgrid
from orthoset_lab.errors import InputError
from orthoset_lab.hermspace import (
    HermitianSpace,
    SemilinearMap,
    Subspace,
    adjoint_linear,
    compose_maps,
    invert_semilinear,
    quasi_generalized_inverse,
    random_nonzero_vector,
    random_subspace,
    standard_space,
)
from orthoset_lab.correspondence import induce, partial_wigner
from orthoset_lab.orthoset import (
    ProbeSet,
    Ray,
    RayMap,
    check_axioms,
    compose_ray_maps,
    dacey_witness,
    linearity_witness,
    perp_closure,
    probe_rays_in,
    ray_of,
    ray_grid,
    ray_payload,
    ray_perp,
    rays_of,
    separating_ray,
    verify_adjoint_pair,
)
from orthoset_lab.perpgrid import PRIME
from orthoset_lab.reports import render
from orthoset_lab.sampling import (
    random_linear_map,
    random_partial_isometry,
    random_quasiunitary,
)
from orthoset_lab.scalars import RationalQuaternion as RQ, HQ_I, HQ_J, HQ_K
from orthoset_lab.starfields import SfieldMorphism, StarSfield
from orthoset_lab.suites import default_spaces

Q, QI, HQ = StarSfield.Q, StarSfield.QI, StarSfield.HQ


def test_ray_of_examples():
    q2 = standard_space(Q, 2)
    assert ray_of(q2.zero_vector()).is_zero
    assert ray_of(q2.vector([2, 4])).rep == q2.vector([1, 2])
    hq2 = standard_space(HQ, 2)
    r = ray_of(hq2.vector([HQ_I, HQ_K]))
    # oracle: left-multiply by i^-1 = -i, and -i * k = j
    assert r.rep == hq2.vector([RQ(1), HQ_I.inv() * HQ_K])
    assert r.rep == hq2.vector([RQ(1), HQ_J])


@pytest.mark.parametrize("sf", list(StarSfield))
def test_ray_of_scale_invariance(sf):
    rng = random.Random(f"rays:{sf.value}")
    sp = standard_space(sf, 3)
    for _ in range(100):
        u = random_nonzero_vector(sp, rng)
        alpha = nonzero_scalar(sf, rng)
        assert ray_of(alpha * u) == ray_of(u)


def test_ray_perp_examples():
    q2 = standard_space(Q, 2)
    zero = Ray.zero(q2)
    e1 = ray_of(q2.vector([1, 0]))
    e2 = ray_of(q2.vector([0, 1]))
    assert ray_perp(zero, e1) and ray_perp(e1, zero) and ray_perp(zero, zero)
    assert ray_perp(e1, e2)
    assert ray_perp(ray_of(q2.vector([1, 1])), ray_of(q2.vector([1, -1])))
    assert not ray_perp(ray_of(q2.vector([1, 1])), ray_of(q2.vector([1, 2])))
    with pytest.raises(InputError):
        ray_perp(e1, ray_of(standard_space(Q, 3).vector([1, 0, 0])))


def test_perp_closure_examples():
    q3 = standard_space(Q, 3)
    assert perp_closure([Ray.zero(q3)]) == Subspace.zero(q3)
    e1, e2 = ray_of(q3.vector([1, 0, 0])), ray_of(q3.vector([0, 1, 0]))
    assert perp_closure([e1, e2]) == Subspace.from_vectors(
        q3, [q3.vector([1, 0, 0]), q3.vector([0, 1, 0])])
    mixed = perp_closure([ray_of(q3.vector([1, 1, 0])),
                          ray_of(q3.vector([1, 0, 1]))])
    assert mixed.dim == 2
    # oracle: the double orthocomplement agrees
    assert mixed.orthocomplement().orthocomplement() == mixed


@pytest.mark.parametrize("sf", list(StarSfield))
def test_perp_closure_is_closure_operator(sf):
    rng = random.Random(f"closure:{sf.value}")
    sp = standard_space(sf, 4)
    for _ in range(10):
        rays = [ray_of(random_nonzero_vector(sp, rng)) for _ in range(3)]
        more = rays + [ray_of(random_nonzero_vector(sp, rng))]
        small, big = perp_closure(rays), perp_closure(more)
        for r in rays:
            assert small.contains(r.rep)                     # extensive
        assert all(big.contains(b) for b in small.basis)     # monotone
        again = perp_closure([ray_of(b) for b in small.basis])
        assert again == small                                # idempotent


def _closure_oracle(rays):
    """The scalar echelon span of every proper representative."""
    return Subspace.from_vectors(rays[0].space,
                                 [r.rep for r in rays if not r.is_zero])


def _closure_families(space, rng):
    """Ray families of space: full rank, rank deficient, duplicate heavy,
    a single ray and all zero."""
    sf, n = space.sfield, space.dim

    def span_rays(dim, count):
        basis = [random_nonzero_vector(space, rng) for _ in range(dim)]
        vectors = []
        for _ in range(count):
            v = space.zero_vector()
            for b in basis:
                v = v + sf.random_scalar(rng) * b
            vectors.append(v)
        return rays_of(space, vectors)

    few = span_rays(2, n + 2)  # more distinct rays than n, so the pick runs
    heavy = few * 4 + [Ray.zero(space)] * 4
    rng.shuffle(heavy)
    return {"full": span_rays(n, 3 * n + 2),
            "deficient": span_rays(rng.randint(1, n - 1), 12),
            "duplicates": heavy,
            "single": [ray_of(random_nonzero_vector(space, rng))],
            "zero": [Ray.zero(space)] * 3}


@pytest.mark.parametrize("sf", list(StarSfield))
def test_perp_closure_matches_the_scalar_span(sf):
    rng = random.Random(f"closure-oracle:{sf.value}")
    for space in [standard_space(sf, 3)] + default_spaces(sf):
        for _ in range(4):
            families = _closure_families(space, rng)
            for name, rays in families.items():
                assert perp_closure(rays) == _closure_oracle(rays), name
            assert perp_closure(families["full"]).dim == space.dim
            assert perp_closure(families["zero"]).dim == 0


def test_perp_closure_confirms_rays_the_pick_misses():
    # rows that agree mod p, rank 1 mod p: the span is the plane, exactly
    q2 = standard_space(Q, 2)
    rays = rays_of(q2, [q2.vector([1, 1 + t * PRIME]) for t in range(3)])
    assert [r.row for r in rays[:2]] == [(1, 1), (1, 1 + PRIME)]
    assert perp_closure(rays) == Subspace.full(q2)
    q3 = standard_space(Q, 3)
    rays = rays_of(q3, [q3.vector(v) for v in ([1, 0, 0], [1, PRIME, 0],
                                               [1, 0, PRIME],
                                               [1, PRIME, PRIME])])
    assert perp_closure(rays) == Subspace.full(q3)


def test_perp_closure_confirms_a_quaternion_ray_the_pick_misses():
    hq2 = standard_space(HQ, 2)
    q = RQ(1, 2, 3, 4)
    rays = rays_of(hq2, [hq2.vector([1, q + t * PRIME]) for t in range(3)])
    closure = perp_closure(rays)
    assert closure.dim == _closure_oracle(rays).dim == 2


@pytest.mark.parametrize("sf", list(StarSfield))
def test_perp_closure_of_the_basis_rays_is_read_off(sf, monkeypatch):
    """Rays that hold every standard basis ray close to the full space with
    no row reduction; without one basis ray the closure reduces the rays,
    and both give the scalar span."""
    spans = []
    real = linalg.rref

    def spy(rows):
        spans.append(len(rows))
        return real(rows)
    monkeypatch.setattr(linalg, "rref", spy)
    for space in [standard_space(sf, 3)] + default_spaces(sf):
        probes = list(ProbeSet.generate(space, seed=4, count=24))
        spans.clear()
        full = perp_closure(probes)
        assert spans == []
        assert full == Subspace.full(space) == _closure_oracle(probes)
        spans.clear()
        e1 = ray_of(space.basis_vector(0))
        assert perp_closure(probes[::-1] + [e1]) == full and spans == []
        rest = [r for r in probes if r != e1]
        closure = perp_closure(rest)
        assert spans
        assert closure == _closure_oracle(rest)
        basis = rays_of(space, space.basis())
        for i in range(space.dim):  # one basis ray short: a hyperplane
            rest = basis[:i] + basis[i + 1:]
            assert perp_closure(rest) == _closure_oracle(rest)
            assert perp_closure(rest).dim == space.dim - 1


def test_perp_closure_rejects_rays_of_another_space():
    q2 = standard_space(Q, 2)
    gram = HermitianSpace.create(Q, 2, [[2, 1], [1, 1]])
    with pytest.raises(InputError):
        perp_closure([ray_of(q2.vector([1, 0])),
                      ray_of(gram.vector([0, 1]))])
    twin = standard_space(Q, 2)
    assert perp_closure([ray_of(q2.vector([1, 0])),
                         ray_of(twin.vector([0, 1]))]) == Subspace.full(q2)


def test_partial_wigner_closures_reduce_at_most_k_n_rows(monkeypatch):
    # the closures of 256 probe images read the basis rays off the probe
    # set and reduce no row
    rref, closure = linalg.rref, orthoset.perp_closure.__code__
    heights = []

    def spy(rows):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not closure:
            frame = frame.f_back
        if frame is not None:
            heights.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(linalg, "rref", spy)
    closed = []
    real = orthoset.perp_closure

    def closing(rays):
        closed.append(len(rays))
        return real(rays)
    monkeypatch.setattr(orthoset, "perp_closure", closing)
    h = standard_space(HQ, 5)
    d, _ = random_partial_isometry(h, h, 3, random.Random("closure-guard"))
    probes = ProbeSet.generate(h, seed=1, count=256)
    partial_wigner(induce(d.map), induce(quasi_generalized_inverse(d)),
                   probes, probes)
    # the closures ran on the probes; a probe set holds every basis ray,
    # so they reduce no row at all
    assert closed and max(closed) == 256 and heights == []
    # without a basis ray the closure spans the rays, which the spy sees
    e1 = ray_of(h.basis_vector(0))
    induce(d.map).image_closure([r for r in probes if r != e1])
    assert heights


@pytest.mark.parametrize("sf", list(StarSfield))
def test_check_axioms_pass(sf):
    sp = standard_space(sf, 3)
    probes = ProbeSet.generate(sp, seed=1, count=40)
    records = check_axioms(sp, probes)
    assert all(r.status == "pass" for r in records)


def test_check_axioms_reports_the_first_witness_in_row_major_order(
        monkeypatch):
    from orthoset_lab import orthoset
    sp = standard_space(Q, 2)
    probes = ProbeSet.generate(sp, seed=1, count=8)
    rays = list(probes)
    bad = orthoset.ray_grid(sp, rays, rays).copy()
    bad[5, 2] = not bad[5, 2]   # (2, 5) asymmetric
    bad[3, 6] = not bad[3, 6]   # (3, 6) asymmetric
    bad[0, 7] = False           # (0, 7) asymmetric, the zero ray fails
    bad[4, 4] = bad[6, 6] = True  # proper rays orthogonal to themselves
    monkeypatch.setattr(orthoset, "ray_grid", lambda *args: bad)
    witnesses = {r.check: r.witness for r in check_axioms(sp, probes)}
    assert witnesses == {
        "axioms/symmetry": {"x": ray_payload(rays[0]),
                            "y": ray_payload(rays[7])},
        "axioms/self-orthogonal-iff-zero": {"x": ray_payload(rays[4])},
        "axioms/zero-orthogonal-to-all": {"x": "zero"},
    }


def test_linearity_witness_examples():
    q2 = standard_space(Q, 2)
    e1, e2 = ray_of(q2.vector([1, 0])), ray_of(q2.vector([0, 1]))
    z = linearity_witness(e1, e2)
    assert z == ray_of(q2.vector([1, 1])) and not ray_perp(z, e1)
    z2 = linearity_witness(e1, ray_of(q2.vector([1, 1])))
    assert z2 == e2 and ray_perp(z2, e1)
    hq2 = standard_space(HQ, 2)
    x = ray_of(hq2.vector([1, 0]))
    y = ray_of(hq2.vector([1, HQ_I]))
    assert linearity_witness(x, y) == ray_of(hq2.vector([0, 1]))


def test_linearity_witness_validation():
    q2 = standard_space(Q, 2)
    e1 = ray_of(q2.vector([1, 0]))
    with pytest.raises(InputError):
        linearity_witness(e1, e1)
    with pytest.raises(InputError):
        linearity_witness(e1, Ray.zero(q2))


def test_dacey_witness_examples():
    q3 = standard_space(Q, 3)
    s = Subspace.from_vectors(q3, [q3.vector([1, 0, 0]), q3.vector([0, 1, 0])])
    inside = ray_of(q3.vector([1, 1, 0]))
    assert dacey_witness(s, inside) == (inside, Ray.zero(q3))
    outside = ray_of(q3.vector([0, 0, 1]))
    assert dacey_witness(s, outside) == (Ray.zero(q3), outside)
    y, z = dacey_witness(s, ray_of(q3.vector([1, 1, 1])))
    assert y == ray_of(q3.vector([1, 1, 0]))
    assert z == ray_of(q3.vector([0, 0, 1]))


def test_frechet_examples():
    q2 = standard_space(Q, 2)
    e1, e2 = ray_of(q2.vector([1, 0])), ray_of(q2.vector([0, 1]))
    assert separating_ray(e1, e2) == e2
    w = separating_ray(ray_of(q2.vector([1, 1])), ray_of(q2.vector([1, 2])))
    assert w == ray_of(q2.vector([1, -1]))
    rays = [r for r in ProbeSet.generate(q2, seed=3, count=12) if not r.is_zero]
    for i, x in enumerate(rays):
        for y in rays[i + 1:]:
            if x != y:
                w = separating_ray(x, y)
                assert ray_perp(w, x) != ray_perp(w, y)


@pytest.mark.parametrize("sf", list(StarSfield))
def test_separating_ray_matches_the_line_projection(sf):
    """y's part orthogonal to x, built from the form directly, is the
    orthogonal part of the projection onto the line of x."""
    for space in default_spaces(sf):
        rays = [r for r in ProbeSet.generate(space, seed=6, count=10)
                if not r.is_zero]
        for x in rays:
            line = Subspace.from_vectors(space, [x.rep])
            for y in rays:
                if x != y:
                    _, perp_part = line.project(y.rep)
                    assert separating_ray(x, y) == ray_of(perp_part)


def test_verify_adjoint_pair_identity():
    q3 = standard_space(Q, 3)
    ident = induce(SemilinearMap.identity(q3))
    probes = ProbeSet.generate(q3, seed=0, count=24)
    records = verify_adjoint_pair(ident, ident, probes, probes)
    assert all(r.status == "pass" for r in records)


@pytest.mark.parametrize("sf", list(StarSfield))
def test_verify_adjoint_pair_with_true_adjoint(sf, rng):
    h1, h2 = standard_space(sf, 3), standard_space(sf, 2)
    phi = random_linear_map(h1, h2, rng)
    records = verify_adjoint_pair(
        induce(phi), induce(adjoint_linear(phi)),
        ProbeSet.generate(h1, seed=2, count=32),
        ProbeSet.generate(h2, seed=2, count=32))
    assert all(r.status == "pass" for r in records)


def test_verify_adjoint_pair_shear_fails_with_witness():
    q2 = standard_space(Q, 2)
    shear = SemilinearMap(q2, q2, SfieldMorphism.identity(Q),
                          (q2.vector([1, 0]), q2.vector([1, 1])))
    probes = ProbeSet.generate(q2, seed=0, count=24)
    records = verify_adjoint_pair(induce(shear),
                                  induce(invert_semilinear(shear)),
                                  probes, probes)
    assert any(r.status == "fail" for r in records)
    bad = next(r for r in records if r.status == "fail")
    assert bad.witness and "first" in bad.witness


def test_verify_adjoint_pair_rejects_rays_of_another_space():
    # g maps the Gram space into Q^2 and the second probes live in the Gram
    # space, so the left grid would decide Gram-space rays by Q^2's form
    q2 = standard_space(Q, 2)
    gram = HermitianSpace.create(Q, 2, [[2, 1], [1, 1]])
    f = induce(SemilinearMap.identity(q2))
    g = induce(SemilinearMap(gram, q2, SfieldMorphism.identity(Q),
                             tuple(q2.basis())))
    p1 = ProbeSet.generate(q2, seed=0, count=16)
    p2 = ProbeSet.generate(gram, seed=0, count=16)
    with pytest.raises(InputError):
        verify_adjoint_pair(f, g, p1, p2)


def test_verify_adjoint_pair_builds_no_image_ray_of_an_induced_map(
        monkeypatch):
    """Two induced maps are read through their matrices: no image_rows
    batch and no memo entry.  An oracle pair still maps every probe once
    and memoizes the images, with the same records."""
    batches = []
    image_rows = orthoset.image_rows

    def spy(*args):
        batches.append(len(args[2]))
        return image_rows(*args)

    monkeypatch.setattr(orthoset, "image_rows", spy)
    h1, h2 = standard_space(HQ, 3), standard_space(HQ, 2)
    phi = random_linear_map(h1, h2, random.Random("pair:spy"))
    p1 = ProbeSet.generate(h1, seed=2, count=32)
    p2 = ProbeSet.generate(h2, seed=2, count=32)
    f, g = induce(phi), induce(adjoint_linear(phi))
    records = verify_adjoint_pair(f, g, p1, p2)
    assert records[0].status == "pass"
    assert batches == [] and f._memo == {} and g._memo == {}
    of = RayMap(h1, h2, oracle=f.apply_many)
    og = RayMap(h2, h1, oracle=g.apply_many)
    oracle_records = verify_adjoint_pair(of, og, p1, p2)
    assert [r.to_obj(False) for r in oracle_records] == \
        [r.to_obj(False) for r in records]
    assert set(of._memo) == set(p1) and set(og._memo) == set(p2)
    assert batches == [len(set(p1)), len(set(p2))]


def exact_grid_records(monkeypatch, *args):
    """verify_adjoint_pair's report bytes on the screened path and on the
    ORTHOSET_LAB_EXACT_GRID=1 oracle path, which confirms every pair."""
    screened = render(verify_adjoint_pair(*args))
    with monkeypatch.context() as mp:
        mp.setenv("ORTHOSET_LAB_EXACT_GRID", "1")
        exact = render(verify_adjoint_pair(*args))
    return screened, exact


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_verify_adjoint_pair_matches_the_exact_path(sf, monkeypatch):
    """On standard and Gram spaces: a linear map between two spaces and
    its adjoint, on distinct probe sets; a quasiunitary map and its
    inverse, on one probe set for both sides; and a shear and its
    inverse, which fail on a standard space.  Every report is byte for
    byte the oracle's."""
    rng = random.Random(f"pair-oracle:{sf.value}")
    for h in default_spaces(sf):
        h2 = standard_space(sf, 3)
        phi = random_linear_map(h, h2, rng)
        p1 = ProbeSet.generate(h, seed=3, count=40)
        p2 = ProbeSet.generate(h2, seed=3, count=40)
        screened, exact = exact_grid_records(
            monkeypatch, induce(phi), induce(adjoint_linear(phi)), p1, p2)
        assert screened == exact and '"status":"pass"' in screened
        u = random_quasiunitary(h, rng)
        screened, exact = exact_grid_records(
            monkeypatch, induce(u), induce(invert_semilinear(u)), p1, p1)
        assert screened == exact and '"status":"pass"' in screened
        e = h.basis()
        shear = SemilinearMap(h, h, SfieldMorphism.identity(sf),
                              (e[0], e[0] + e[1], *e[2:]))
        screened, exact = exact_grid_records(
            monkeypatch, induce(shear), induce(invert_semilinear(shear)),
            p1, p1)
        assert screened == exact
        if h == standard_space(sf, h.dim):
            assert '"status":"fail"' in screened


@pytest.mark.parametrize("same", [True, False], ids=["one-set", "two-sets"])
def test_verify_adjoint_pair_shear_matches_the_exact_path(same, monkeypatch):
    """The failing shear pair: the same violation count and the same first
    MAX_WITNESSES violating pairs as the oracle path, with one probe set
    for both sides and with two equal but distinct ones."""
    q3 = standard_space(Q, 3)
    shear = SemilinearMap(q3, q3, SfieldMorphism.identity(Q),
                          (q3.basis_vector(0),
                           q3.basis_vector(0) + q3.basis_vector(1),
                           q3.basis_vector(2)))
    probes = ProbeSet.generate(q3, seed=7, count=64)
    other = probes if same else ProbeSet(q3, 7, 64, tuple(probes.rays))
    f, g = induce(shear), induce(invert_semilinear(shear))
    screened, exact = exact_grid_records(monkeypatch, f, g, probes, other)
    assert screened == exact
    rec, = verify_adjoint_pair(f, g, probes, other)
    assert rec.status == "fail"
    assert rec.detail["violations"] > orthoset.MAX_WITNESSES
    assert len(rec.witness["shown"]) == orthoset.MAX_WITNESSES


def spy_list_loads(monkeypatch):
    """The row counts of every list of rows that `_int_rows` loads, in
    `RayMap.grid_rows` and in the grids; the loaded arrays that the grids
    copy, and the exact images of candidate rows, are not listed."""
    loads = []
    real = perpgrid._int_rows

    def spy(rows, width):
        if isinstance(rows, list):
            loads.append(len(rows))
        return real(rows, width)
    for module in (perpgrid, orthoset):
        monkeypatch.setattr(module, "_int_rows", spy)
    return loads


def test_verify_adjoint_pair_loads_each_probe_family_once(monkeypatch):
    """One load for one probe set on both sides, and one per probe set for
    two; both grids read the loaded rows."""
    rng = random.Random("pair-loads")
    h1, h2 = standard_space(QI, 4), standard_space(QI, 3)
    phi = random_linear_map(h1, h2, rng)
    u = random_quasiunitary(h1, rng)
    p1 = ProbeSet.generate(h1, seed=5, count=48)
    p2 = ProbeSet.generate(h2, seed=5, count=40)
    loads = spy_list_loads(monkeypatch)
    verify_adjoint_pair(induce(u), induce(invert_semilinear(u)), p1, p1)
    assert loads == [48]
    loads.clear()
    verify_adjoint_pair(induce(phi), induce(adjoint_linear(phi)), p1, p2)
    assert loads == [48, 40]


def test_verify_adjoint_pair_confirms_few_hq_candidates(monkeypatch):
    """The pairs that one HQ adjoint pair sends to exact confirmation, with
    seed-fixed maps and probes.  This quasiunitary map sends a basis ray
    to a ray whose forms with the other probes have real part 0, so a
    screen of component 0 alone passed that row against all 255 nonzero
    probes on each side, 510 pairs, none of them orthogonal; the weighted
    screen passes none."""
    h = standard_space(HQ, 3)
    u = random_quasiunitary(h, random.Random("pair-candidates:0"))
    probes = ProbeSet.generate(h, seed=5, count=256)
    pairs, confirmed = [], []
    real = perpgrid._confirm

    def spy(tables, u_, gram, v, ii, jj):
        zero = real(tables, u_, gram, v, ii, jj)
        pairs.append(len(ii))
        confirmed.append(int(zero.sum()))
        return zero
    monkeypatch.setattr(perpgrid, "_confirm", spy)
    rec, = verify_adjoint_pair(induce(u), induce(invert_semilinear(u)),
                               probes, probes)
    assert rec.status == "pass"
    assert (sum(pairs), sum(confirmed)) == (0, 0)


def test_verify_adjoint_pair_transposes_the_adjoint_side():
    """A map that is not its own adjoint, on a square probe grid: every
    cell compares f(x) perp y with x perp g(y), as ray_perp decides them
    pair by pair, so the violations and the first witness are those of
    the pairwise loop."""
    q2 = standard_space(Q, 2)
    phi = SemilinearMap(q2, q2, SfieldMorphism.identity(Q),
                        (q2.vector([1, 2]), q2.vector([0, 1])))
    probes = list(ProbeSet.generate(q2, seed=3, count=16))
    f = induce(phi)
    good = verify_adjoint_pair(f, induce(adjoint_linear(phi)), probes,
                               probes)
    assert good[0].status == "pass"
    bad = verify_adjoint_pair(f, f, probes, probes)
    cells = [(x, y, ray_perp(f(x), y), ray_perp(x, f(y)))
             for x in probes for y in probes]
    wrong = [c for c in cells if c[2] != c[3]]
    assert bad[0].status == "fail"
    assert bad[0].detail["violations"] == len(wrong) > 0
    x, y, left, right = wrong[0]
    assert bad[0].witness["first"] == {
        "x": ray_payload(x), "y": ray_payload(y),
        "f(x) perp y": left, "x perp g(y)": right}


def test_ray_grid_checks_the_space_of_every_ray():
    q2 = standard_space(Q, 2)
    gram = HermitianSpace.create(Q, 2, [[2, 1], [1, 1]])
    rays = list(ProbeSet.generate(q2, seed=0, count=8))
    other = list(ProbeSet.generate(gram, seed=0, count=8))
    with pytest.raises(InputError):
        ray_grid(q2, rays, other)
    with pytest.raises(InputError):
        ray_grid(q2, other, rays)
    # equal spaces are one object
    twin = standard_space(Q, 2)
    assert twin is q2
    assert (ray_grid(twin, rays, rays) == ray_grid(q2, rays, rays)).all()


def test_probe_set_structure_and_reproducibility():
    q3 = standard_space(Q, 3)
    a = ProbeSet.generate(q3, seed=9, count=20)
    b = ProbeSet.generate(q3, seed=9, count=20)
    c = ProbeSet.generate(q3, seed=10, count=20)
    assert a.rays == b.rays and len(a) == 20
    assert a.rays != c.rays
    assert a.rays[0].is_zero
    for i in range(3):
        assert ray_of(q3.basis_vector(i)) in a.rays[1:4]
    assert all(not r.is_zero for r in a.rays[1:])


def test_probe_set_on_zero_dimensional_space():
    z = standard_space(Q, 0)
    probes = ProbeSet.generate(z, seed=0, count=16)
    assert len(probes.rays) == 1 and probes.rays[0].is_zero


def test_probe_rays_in_subspace():
    q4 = standard_space(Q, 4)
    s = random_subspace(q4, 2, random.Random(5))
    rays = probe_rays_in(s, seed=1, count=10)
    assert rays[0].is_zero
    assert all(r.is_zero or s.contains(r.rep) for r in rays)
    assert len(rays) == 10


def _scalar_probe_rays_in(subspace, seed, count):
    """The scalar reference for probe_rays_in: every random ray a sum of
    scalar left multiples of the basis vectors, drawn again while zero,
    then one `rays_of` batch."""
    space = subspace.space
    vectors = list(subspace.basis)
    rng = random.Random(f"subprobes:{space.sfield.value}:{subspace.dim}:{seed}")
    sf = space.sfield
    while len(vectors) + 1 < count and subspace.dim > 0:
        v = space.zero_vector()
        while v.is_zero:
            v = space.zero_vector()
            for b in subspace.basis:
                v = v + sf.random_scalar(rng) * b
        vectors.append(v)
    return [Ray.zero(space)] + rays_of(space, vectors)


@pytest.mark.parametrize("sf", list(StarSfield))
def test_probe_rays_in_matches_the_scalar_combinations(sf):
    """probe_rays_in, integer coefficient rows through the embedding's
    matrix, gives the rays of the scalar sums, row for row: standard and
    Gram spaces, every subspace dimension 0..n, counts 1, 2, 16 and 33."""
    rng = random.Random(f"subprobes-ref:{sf.value}")
    e = sf.basis()[-1]
    for n in (3, 5):
        gram = [[3 if i == j else e if j == i + 1 else sf.star(e)
                 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
        for space in (standard_space(sf, n),
                      HermitianSpace.create(sf, n, gram)):
            for dim in range(n + 1):
                s = random_subspace(space, dim, rng)
                for count in (1, 2, 16, 33):
                    got = probe_rays_in(s, seed=dim + n, count=count)
                    assert got == _scalar_probe_rays_in(s, dim + n, count)
                    assert len(got) == (max(count, dim + 1) if dim else 1)


def _scalar_probes(space, seed, count):
    """The scalar reference for ProbeSet.generate: the standard basis, then
    `random_nonzero_vector` draws, then one `rays_of` batch."""
    vectors = space.basis()
    rng = random.Random(f"probes:{space.sfield.value}:{space.dim}:{seed}")
    while len(vectors) + 1 < count and space.dim > 0:
        vectors.append(random_nonzero_vector(space, rng))
    return [Ray.zero(space)] + rays_of(space, vectors)


@pytest.mark.parametrize("sf", list(StarSfield))
def test_probe_sets_match_the_scalar_draws(sf):
    """ProbeSet.generate, integer rows drawn as probe_rays_in draws them,
    gives the rays of the scalar draws, row for row: standard spaces of
    dimensions 0-8 and the default Gram spaces, six seeds, eight counts."""
    for space in [standard_space(sf, n) for n in range(9)] + default_spaces(sf):
        for seed in range(6):
            for count in (1, 2, 3, 5, 9, 10, 33, 256):
                got = ProbeSet.generate(space, seed, count)
                assert list(got) == _scalar_probes(space, seed, count)
                assert len(got) == (max(count, space.dim + 1)
                                    if space.dim else 1)


@pytest.mark.parametrize("sf", list(StarSfield))
def test_induced_maps_preserve_spans_of_ray_pairs(sf, rng):
    # continuity: the image of the closure of {x1, x2} stays inside the
    # closure of the two image rays
    sp = standard_space(sf, 4)
    for _ in range(5):
        phi = random_linear_map(sp, sp, rng)
        f = induce(phi)
        x1 = ray_of(random_nonzero_vector(sp, rng))
        x2 = ray_of(random_nonzero_vector(sp, rng))
        plane = perp_closure([x1, x2])
        target = perp_closure([f(x1), f(x2)])
        for r in probe_rays_in(plane, seed=6, count=12):
            img = f(r)
            assert img.is_zero or target.contains(img.rep)


def test_check_axioms_ten_thousand_pairs_under_a_second():
    import time
    sp = standard_space(Q, 4)
    probes = ProbeSet.generate(sp, seed=0, count=101)  # > 10^4 ordered pairs
    start = time.perf_counter()
    records = check_axioms(sp, probes)
    elapsed = time.perf_counter() - start
    assert all(r.status == "pass" for r in records)
    assert elapsed < 1.0


def test_ray_map_zero_preserved_and_space_checks():
    q2 = standard_space(Q, 2)
    f = induce(SemilinearMap.identity(q2))
    assert f(Ray.zero(q2)).is_zero
    with pytest.raises(InputError):
        f(ray_of(standard_space(Q, 3).vector([1, 0, 0])))
    with pytest.raises(InputError):
        RayMap(q2, q2)  # neither mapping nor oracle


def composition_cases():
    """Pairs (outer, inner) of partial (quasi)isometries of a standard
    5-space, and an outer map after the orthogonal projection onto its
    kernel complement, as the partial decomposition composes them."""
    for sf in StarSfield:
        space = standard_space(sf, 5)
        for quasi in (False, True):
            rng = random.Random(f"compose:{sf.value}:{quasi}")
            outer, _ = random_partial_isometry(space, space, 3, rng,
                                               quasi=quasi)
            inner, _ = random_partial_isometry(space, space, 4, rng,
                                               quasi=quasi)
            frame = outer.s1.frame
            project = compose_maps(frame.inclusion, frame.projection)
            tag = f"{sf.value}-{'quasi' if quasi else 'plain'}"
            yield pytest.param(outer.map, inner.map, id=f"{tag}-partial")
            yield pytest.param(outer.map, project, id=f"{tag}-projection")


def composition_rays(space, seed):
    """Probe rays with the zero ray and duplicates."""
    rays = list(ProbeSet.generate(space, seed=seed, count=48))
    return rays + rays[:5] + [Ray.zero(space)]


@pytest.mark.parametrize("psi,pi", list(composition_cases()))
def test_composite_of_induced_maps_matches_the_chained_images(psi, pi):
    """P(psi) o P(pi) = P(psi o pi): the induced composite maps every ray,
    in one batch, to the ray the two maps give one after the other."""
    outer, inner = induce(psi), induce(pi)
    composite = compose_ray_maps(outer, inner)
    assert composite.is_induced
    assert composite.mapping == compose_maps(psi, pi)
    rays = composition_rays(pi.domain, 7)
    got = composite.apply_many(rays)
    want = outer.apply_many(inner.apply_many(rays))
    assert got == want
    assert [repr(r) for r in got] == [repr(r) for r in want]


def test_composite_with_an_oracle_chains_the_batches():
    """An oracle outer map gets the inner map's images, each new one once,
    in one batch per composite batch; an oracle inner map feeds the outer
    induced map the same way.  Neither composite is induced."""
    space = standard_space(HQ, 4)
    rng = random.Random("compose:oracle")
    d, _ = random_partial_isometry(space, space, 3, rng, quasi=True)
    phi = random_linear_map(space, space, rng)
    batches = []

    def logged(rays):
        batches.append(list(rays))
        return induce(phi).apply_many(rays)

    inner = induce(d.map)
    rays = composition_rays(space, 8)
    composite = compose_ray_maps(RayMap(space, space, oracle=logged), inner)
    assert not composite.is_induced
    assert composite.apply_many(rays) == \
        induce(phi).apply_many(inner.apply_many(rays))
    assert batches == [list(dict.fromkeys(inner.apply_many(rays)))]

    batches.clear()
    composite = compose_ray_maps(inner, RayMap(space, space, oracle=logged))
    assert not composite.is_induced
    assert composite.apply_many(rays) == \
        inner.apply_many(induce(phi).apply_many(rays))
    assert batches == [list(dict.fromkeys(rays))]


def test_compose_ray_maps_checks_the_spaces():
    q2, q3 = standard_space(Q, 2), standard_space(Q, 3)
    with pytest.raises(InputError, match="do not compose"):
        compose_ray_maps(induce(SemilinearMap.identity(q2)),
                         induce(SemilinearMap.identity(q3)))
