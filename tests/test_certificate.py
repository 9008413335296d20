"""The one scale certificate: SemilinearMap.image_gram and form_scale, its
one check that the scale of a bijective map is a positive rational, and the
callers that read them.

The differential tests hold the earlier, separate implementations of
piziak_lambda and is_quasiunitary as oracles, and require the same value,
or the same exception class, message and witness, on every input.
"""

import json
import os
import random
from collections import Counter

import numpy as np
import pytest
from conftest import short_id, spaces_under_test, twists

from orthoset_lab import cli, correspondence, hermspace, suites
from orthoset_lab.correspondence import induce, piziak_lambda
from orthoset_lab.errors import (
    InconsistencyError,
    InputError,
    OrthogonalityViolationError,
    OrthosetLabError,
    PreconditionError,
)
from orthoset_lab.hermspace import (
    SemilinearMap,
    form_scale,
    herm_form,
    is_quasiunitary,
    random_vector,
    standard_space,
)
from orthoset_lab.orthoset import ProbeSet, ray_grid, ray_payload
from orthoset_lab.sampling import left_scalar_map, random_quasiunitary
from orthoset_lab.scalars import (
    RationalQuaternion as RQ,
    inv_scalar,
    real_part,
    star_scalar,
)
from orthoset_lab.starfields import SfieldMorphism, StarSfield
from orthoset_lab.suites import SuiteConfig, default_spaces

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

Q, QI, HQ = StarSfield.Q, StarSfield.QI, StarSfield.HQ


# ------------------------------------------------------------ oracles

def oracle_piziak_lambda(phi, probes=None):
    h1 = phi.domain
    if h1.dim < 2:
        raise PreconditionError("the scale factor needs dimension >= 2")
    sig = phi.sigma
    imgs = phi.images
    g1 = h1.gram
    n = h1.dim
    for i in range(n):
        for j in range(n):
            if not g1[i][j] and herm_form(imgs[i], imgs[j]):
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
    lam = None
    for j in range(n):
        i = next(k for k in range(n) if g1[k][j])
        lam_j = sig(inv_scalar(g1[i][j])) * herm_form(imgs[i], imgs[j])
        if lam is None:
            lam = lam_j
        elif lam_j != lam:
            raise InconsistencyError(
                "scale factor differs across basis vectors",
                witness={"j": j, "lam_j": str(lam_j), "lam": str(lam)})
    for i in range(n):
        for j in range(n):
            if herm_form(imgs[i], imgs[j]) != sig(g1[i][j]) * lam:
                raise InconsistencyError(
                    "form scaling fails on a basis pair; the declared twist "
                    "does not match the map", witness={"i": i, "j": j})
    bijective = h1.dim == phi.codomain.dim and phi.rank == h1.dim
    if bijective and star_scalar(lam) != lam:
        raise InconsistencyError("scale factor is not star-fixed",
                                 witness={"lam": str(lam)})
    return lam


def oracle_is_quasiunitary(phi):
    h1, h2 = phi.domain, phi.codomain
    if h1.dim != h2.dim or phi.rank != h1.dim:
        raise InputError("quasiunitarity is defined for bijective maps")
    sf2 = h2.sfield
    if h1.dim == 0:
        return phi.sigma, sf2.one()
    sig = phi.sigma
    imgs = phi.images
    lam = inv_scalar(sig(h1.gram[0][0])) * herm_form(imgs[0], imgs[0])
    if not lam:
        return None
    for i in range(h1.dim):
        for j in range(h1.dim):
            if herm_form(imgs[i], imgs[j]) != sig(h1.gram[i][j]) * lam:
                return None
    if star_scalar(lam) != lam:
        return None
    for g in h1.sfield.generators():
        if sig(star_scalar(g)) * lam != lam * star_scalar(sig(g)):
            return None
    return sig, lam


def outcome(fn, *args):
    """A comparable result: the value, or the exception's class, message
    and witness."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the class is part of the outcome
        return ("raise", type(exc), str(exc), getattr(exc, "witness", None))


# ------------------------------------------------------------- inputs

def _with_sigma(phi, sigma):
    return SemilinearMap(phi.domain, phi.codomain, sigma, phi.images)


def _other_sigma(sf, rng):
    if sf is Q:
        return SfieldMorphism.identity(Q)
    if sf is QI:
        return SfieldMorphism.conjugation()
    return SfieldMorphism.inner(RQ(1, rng.randint(-2, 2), rng.randint(-2, 2),
                                   rng.randint(1, 2)))


def _shear(space):
    e = space.basis()
    return SemilinearMap(space, space, SfieldMorphism.identity(space.sfield),
                         tuple([e[0], e[0] + e[1]] + e[2:]))


def _rank1(space, rng):
    e = space.basis()
    v = hermspace.random_nonzero_vector(space, rng)
    return SemilinearMap(space, space, SfieldMorphism.identity(space.sfield),
                         tuple(space.sfield.random_scalar(rng) * v for _ in e))


def certificate_cases():
    rng = random.Random(2024)
    cases = []
    for sf in StarSfield:
        spaces = [standard_space(sf, n) for n in (1, 2, 3, 4)]
        spaces += default_spaces(sf)
        for space in spaces:
            for k in range(4):
                phi = random_quasiunitary(space, rng)
                cases.append((f"{sf.value}/{space.dim}/quasiunitary{k}", phi))
                cases.append((f"{sf.value}/{space.dim}/retwisted{k}",
                              _with_sigma(phi, _other_sigma(sf, rng))))
            if space.dim >= 2:
                cases.append((f"{sf.value}/{space.dim}/shear", _shear(space)))
            cases.append((f"{sf.value}/{space.dim}/rank1",
                          _rank1(space, rng)))
            cases.append((f"{sf.value}/{space.dim}/zero",
                          SemilinearMap.zero(space, space)))
        if sf is HQ:
            for q in (RQ(1, 1, 0, 0), RQ(2, -1, 3, 1), RQ(0, 0, 0, 5)):
                for n in (2, 3):
                    cases.append((f"HQ/{n}/left{q}",
                                  left_scalar_map(standard_space(HQ, n), q)))
    # keeps the basis orthogonal, fails the probes and the scale
    q2 = standard_space(Q, 2)
    cases.append(("Q/2/diag(1,2)", SemilinearMap(
        q2, q2, SfieldMorphism.identity(Q),
        (q2.vector([1, 0]), q2.vector([0, 2])))))
    # both columns of the Gram space [[2, 1], [1, 1]] give lam = 1, but the
    # second image has norm 5
    cases.append(("Q/2/gram-skew", SemilinearMap(
        default_spaces(Q)[1], q2, SfieldMorphism.identity(Q),
        (q2.vector([1, 1]), q2.vector([2, -1])))))
    return cases


CASES = certificate_cases()


def _fresh(phi):
    """The same map as a new object, so that no cached image Gram is
    shared between the oracle run and the run under test."""
    return SemilinearMap(phi.domain, phi.codomain, phi.sigma, phi.images)


# -------------------------------------------------------------- tests

def test_piziak_lambda_matches_the_oracle():
    seen = set()
    for label, phi in CASES:
        for probes in (None, ProbeSet.generate(phi.domain, seed=3, count=64)):
            want = outcome(oracle_piziak_lambda, _fresh(phi), probes)
            got = outcome(piziak_lambda, _fresh(phi), probes)
            assert got == want, (label, probes is not None)
            seen.add(want[0] if want[0] == "value" else want[1:3])
    # the cases reach every outcome of the extraction
    assert seen >= {
        "value",
        (PreconditionError, "the scale factor needs dimension >= 2"),
        (OrthogonalityViolationError,
         "orthogonal basis pair with non-orthogonal images"),
        (OrthogonalityViolationError,
         "orthogonal probe pair with non-orthogonal images"),
        (InconsistencyError, "scale factor differs across basis vectors"),
        (InconsistencyError, "form scaling fails on a basis pair; the "
                             "declared twist does not match the map"),
    }, seen


def test_is_quasiunitary_matches_the_oracle():
    seen = set()
    for label, phi in CASES:
        want = outcome(oracle_is_quasiunitary, _fresh(phi))
        got = outcome(is_quasiunitary, _fresh(phi))
        assert got == want, label
        seen.add(want[0] if want[1] is not None else "none")
    assert seen == {"value", "none", "raise"}


def test_is_quasiunitary_after_piziak_lambda_matches_the_oracle():
    # the second reader finds the image Gram the first one cached
    for label, phi in CASES:
        phi = _fresh(phi)
        want = outcome(oracle_is_quasiunitary, _fresh(phi))
        outcome(piziak_lambda, phi)
        assert outcome(is_quasiunitary, phi) == want, label


def test_is_quasiunitary_scales_are_positive_rationals():
    seen = set()
    for label, phi in CASES:
        got = outcome(is_quasiunitary, _fresh(phi))
        if got[0] == "value" and got[1] is not None:
            lam = got[1][1]
            r = real_part(lam)
            assert r > 0 and lam == phi.codomain.sfield.coerce(r), label
            seen.add((phi.domain.sfield, phi.domain._is_identity_gram))
    # every sfield, over standard and Gram spaces
    assert seen == {(sf, std) for sf in StarSfield for std in (True, False)}


def test_a_scale_that_is_not_a_positive_rational_is_an_internal_error(
        monkeypatch, capsys):
    phi = random_quasiunitary(standard_space(HQ, 3), random.Random(3))
    monkeypatch.setattr(hermspace, "form_scale",
                        lambda phi: RQ(0, 1, 0, 0))
    with pytest.raises(Exception) as err:
        is_quasiunitary(phi)
    assert not isinstance(err.value, OrthosetLabError)
    # so the report marks a bug in the program, not a failed law
    code = cli.main(["construct", "transport-unitary", "--map",
                     os.path.join(FIXTURES, "quasiunitary_hq3.json")])
    rec = json.loads(capsys.readouterr().out)
    assert code == 3 and rec["status"] == "internal"


def _count_certificates(monkeypatch, *modules):
    """Record the map of every is_quasiunitary call read through the
    named modules."""
    calls = []
    real = hermspace.is_quasiunitary

    def counted(phi):
        calls.append(phi)
        return real(phi)
    for module in modules:
        monkeypatch.setattr(module, "is_quasiunitary", counted, raising=False)
    return calls


def test_construct_transport_unitary_reads_one_certificate(monkeypatch,
                                                           capsys):
    calls = _count_certificates(monkeypatch, cli, correspondence)
    code = cli.main(["construct", "transport-unitary", "--map",
                     os.path.join(FIXTURES, "quasiunitary_hq3.json")])
    assert code == 0 and capsys.readouterr().out
    assert len(calls) == 1


def test_transport_suite_reads_one_certificate_per_map(monkeypatch):
    calls = _count_certificates(monkeypatch, suites, correspondence)
    cfg = SuiteConfig(suite="transport", count=16)
    for sf in StarSfield:
        calls.clear()
        records = suites.transport_records(sf, cfg, random.Random(1), "t")
        assert all(r.status == "pass" for r in records)
        assert len(calls) == suites.TRANSPORT_MAPS
        assert max(Counter(map(id, calls)).values()) == 1



def test_transport_suite_certifies_each_transported_map_once(monkeypatch):
    """transport_unitary certifies the input map and, through is_unitary,
    the transported one; the suite adds no third certificate."""
    calls = _count_certificates(monkeypatch, hermspace, suites,
                                correspondence)
    cfg = SuiteConfig(suite="transport", count=16)
    records = suites.transport_records(Q, cfg, random.Random(1), "t")
    assert all(r.status == "pass" for r in records)
    assert len(calls) == 2 * suites.TRANSPORT_MAPS == 40



def test_wigner_suite_reads_one_certificate_per_map(monkeypatch):
    calls = _count_certificates(monkeypatch, suites, correspondence)
    cfg = SuiteConfig(suite="wigner", count=16)
    records = suites.wigner_records(Q, cfg, random.Random(1), "w")
    assert all(r.status == "pass" for r in records)
    assert len(calls) == suites.WIGNER_MAPS

def test_transport_suite_records_a_failed_transport(monkeypatch):
    def fails(phi):
        raise InconsistencyError("transported map failed the unitary check")
    monkeypatch.setattr(suites, "transport_unitary", fails)
    cfg = SuiteConfig(suite="transport", count=16)
    records = suites.transport_records(Q, cfg, random.Random(1), "t")
    rec, = [r for r in records if r.check == "t/unitary-after-transport"]
    assert rec.status == "fail"
    assert rec.witness == {
        "trial": 0, "error": "transported map failed the unitary check"}

def test_form_scale_reads_the_image_gram():
    hq3 = default_spaces(HQ)[1]
    phi = random_quasiunitary(hq3, random.Random(5))
    n = hq3.dim
    assert phi.image_gram == tuple(
        tuple(herm_form(phi.images[i], phi.images[j]) for j in range(n))
        for i in range(n))
    lam = form_scale(phi)
    assert all(phi.image_gram[i][j] == phi.sigma(hq3.gram[i][j]) * lam
               for i in range(n) for j in range(n))
    assert form_scale(SemilinearMap.identity(standard_space(Q, 0))) is None


@pytest.mark.parametrize("space", spaces_under_test(), ids=short_id)
def test_image_gram_matches_the_full_form_table(space):
    """One form per unordered basis pair, mirrored by the star, is the full
    n x n table of herm_form, value and printed form, for maps of every
    twist into each space, out of it and out of a standard space."""
    rng = random.Random(f"image_gram:{short_id(space)}")
    for sigma in twists(space.sfield):
        for domain in (space, standard_space(space.sfield, 4)):
            phi = SemilinearMap(domain, space, sigma, tuple(
                random_vector(space, rng) for _ in range(domain.dim)))
            full = tuple(tuple(herm_form(u, v) for v in phi.images)
                         for u in phi.images)
            assert phi.image_gram == full
            assert [list(map(str, row)) for row in phi.image_gram] == \
                [list(map(str, row)) for row in full]


def test_scale_and_certificate_evaluate_each_basis_form_once(monkeypatch):
    phi = random_quasiunitary(standard_space(Q, 4), random.Random(1))
    calls = []
    real = hermspace.herm_form

    def counted(u, v):
        calls.append((u, v))
        return real(u, v)
    monkeypatch.setattr(hermspace, "herm_form", counted)
    lam = piziak_lambda(phi)
    assert is_quasiunitary(phi) == (phi.sigma, lam)
    assert len(calls) == 4 * 5 // 2  # one per unordered basis pair
