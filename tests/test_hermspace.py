import gc
import os
import random
from fractions import Fraction as F

import pytest
from conftest import _scalar_apply, nonzero_scalar, twists

from orthoset_lab import hermspace, linalg, serialize
from orthoset_lab.correspondence import transport_linear
from orthoset_lab.errors import (
    CertificateError,
    DependencyError,
    InputError,
    UnsupportedVariantError,
)
from orthoset_lab.hermspace import (
    HermitianSpace,
    SemilinearMap,
    Subspace,
    adjoint_linear,
    compose_maps,
    generalized_inverse,
    gram_schmidt,
    herm_form,
    invert_semilinear,
    is_quasiunitary,
    make_partial_isometry,
    quasi_generalized_inverse,
    random_nonzero_vector,
    random_subspace,
    random_vector,
    standard_space,
)
from orthoset_lab.orthoset import Ray, probe_rays_in, rays_of
from orthoset_lab.sampling import left_scalar_map, random_linear_map, random_unitary
from orthoset_lab.suites import default_spaces
from orthoset_lab.scalars import GaussianRational as GR, RationalQuaternion as RQ, HQ_I, HQ_J, HQ_K, star_scalar
from orthoset_lab.starfields import SfieldMorphism, StarSfield

Q, QI, HQ = StarSfield.Q, StarSfield.QI, StarSfield.HQ


# ------------------------------------------------------------ certification

def test_standard_spaces_certify():
    for sf in StarSfield:
        for n in range(0, 5):
            standard_space(sf, n)


def test_nontrivial_grams_certify():
    HermitianSpace.create(Q, 2, [[2, 1], [1, 1]])
    HermitianSpace.create(QI, 2, [[2, GR(0, 1)], [GR(0, -1), 1]])
    HermitianSpace.create(HQ, 2, [[1, 0], [0, F(3, 2)]])


def test_non_hermitian_gram_rejected():
    with pytest.raises(CertificateError):
        HermitianSpace.create(Q, 2, [[1, 1], [2, 1]])
    with pytest.raises(CertificateError):
        HermitianSpace.create(QI, 2, [[1, GR(0, 1)], [GR(0, 1), 1]])


def test_indefinite_gram_rejected():
    with pytest.raises(CertificateError):
        HermitianSpace.create(Q, 2, [[1, 0], [0, -1]])
    with pytest.raises(CertificateError):
        HermitianSpace.create(Q, 2, [[1, 2], [2, 1]])  # det = -3


def test_hq_gram_with_zero_pivot_or_not_hermitian_rejected():
    with pytest.raises(CertificateError) as err:
        HermitianSpace.create(HQ, 2, [[1, HQ_I], [-HQ_I, 1]])
    assert err.value.witness == {"order": 2, "minor": "0"}
    with pytest.raises(CertificateError) as err:
        HermitianSpace.create(HQ, 1, [[HQ_I]])
    assert err.value.witness == {"i": 0, "j": 0}


def _det(rows):
    """Determinant over a commutative field (Q or Qi entries)."""
    m = [list(r) for r in rows]
    n = len(m)
    det = F(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return m[0][0] - m[0][0]
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        p = m[c][c]
        det = det * p
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / p
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _minors_witness(gram):
    """The leading-minors test over Q or Qi, the certificate's oracle: the
    first order whose minor is not a positive rational, with that minor,
    or None when all are positive."""
    for k in range(1, len(gram) + 1):
        minor = _det([row[:k] for row in gram[:k]])
        value = minor if isinstance(minor, F) else minor.re
        if value <= 0 or (not isinstance(minor, F) and minor.im):
            return {"order": k, "minor": str(minor)}
    return None


def _certificate_witness(sf, gram):
    try:
        HermitianSpace.create(sf, len(gram), gram)
    except CertificateError as exc:
        return exc.witness
    return None


def _random_hermitian(sf, n, rng):
    """A random Hermitian matrix: B B* for a full-rank or rank-deficient
    random B, sometimes with a diagonal entry pushed down, or random
    entries with a diagonal of either sign."""
    shape = rng.choice(("full", "singular", "shifted", "entries"))
    if shape == "entries":
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = sf.coerce(F(rng.randint(-2, 6), rng.randint(1, 3)))
            for j in range(i + 1, n):
                g[i][j] = sf.random_scalar(rng, 2)
                g[j][i] = star_scalar(g[i][j])
        return g
    r = n if shape != "singular" else rng.randint(0, n - 1)
    b = [[sf.random_scalar(rng, 3) for _ in range(r)] for _ in range(n)]
    g = [[sum((b[i][k] * star_scalar(b[j][k]) for k in range(r)),
              sf.zero()) for j in range(n)] for i in range(n)]
    if shape == "shifted":
        k = rng.randrange(n)
        g[k][k] = g[k][k] - sf.coerce(rng.randint(1, 40))
    return g


@pytest.mark.parametrize("sf", [Q, QI])
def test_certificate_agrees_with_leading_minors(sf):
    rng = random.Random(f"ldl:{sf.value}")
    orders = []
    for _ in range(400):
        gram = _random_hermitian(sf, rng.randint(1, 4), rng)
        got = _certificate_witness(sf, gram)
        assert got == _minors_witness(gram)
        orders.append(got and got["order"])
    # the sample holds accepted matrices and rejections at every order
    assert set(orders) == {None, 1, 2, 3, 4}


def _complex_adjoint(gram):
    """chi(G) over Qi: each quaternion z1 + z2 j becomes the block
    [[z1, z2], [-conj z2, conj z1]].  chi is an injective *-homomorphism,
    so a Hermitian G is positive definite iff chi(G) is (Zhang 1997), and
    the leading minor of chi(G) of order 2k is the square of the product
    of the first k pivots of G."""
    def block(q):
        z1, z2 = GR(q.a, q.b), GR(q.c, q.d)
        return [[z1, z2], [-z2.conjugate(), z1.conjugate()]]
    out = []
    for row in gram:
        blocks = [block(q) for q in row]
        out += [[x for bl in blocks for x in bl[r]] for r in range(2)]
    return out


def test_hq_certificate_agrees_with_the_complex_adjoint():
    rng = random.Random("ldl:HQ")
    orders = []
    for _ in range(200):
        gram = _random_hermitian(HQ, rng.randint(1, 3), rng)
        got = _certificate_witness(HQ, gram)
        chi = _complex_adjoint(gram)
        oracle = _minors_witness(chi)
        assert (got is None) == (oracle is None)
        if got is not None:
            k = got["order"]
            assert oracle["order"] == 2 * k - 1
            minor = F(got["minor"])
            assert _det([row[:2 * k] for row in chi[:2 * k]]) == minor * minor
        orders.append(got and got["order"])
    assert set(orders) == {None, 1, 2, 3}


def test_non_diagonal_hq_grams_certify():
    i, j, k = HQ_I, HQ_J, HQ_K
    grams = [
        [[2, i, 0], [-i, 2, j], [0, -j, 3]],
        [[1, RQ(0, 1, 1, 1)], [RQ(0, -1, -1, -1), 4]],
        [[3, j, k, 0], [-j, 3, i, k], [-k, -i, 3, j], [0, -k, -j, 3]],
    ]
    rng = random.Random("hq-gram")
    for gram in grams:
        sp = HermitianSpace.create(HQ, len(gram), gram)
        for _ in range(20):
            u = random_vector(sp, rng)
            norm = herm_form(u, u)
            assert norm == star_scalar(norm)
            assert u.is_zero or norm.a > 0


def test_singular_and_indefinite_hq_grams_rejected_with_order():
    i, j = HQ_I, HQ_J
    cases = [
        ([[1, i], [-i, 1]], {"order": 2, "minor": "0"}),
        ([[1, j], [-j, -1]], {"order": 2, "minor": "-2"}),
        ([[2, i, 0], [-i, 2, j], [0, -j, F(1, 3)]],
         {"order": 3, "minor": "-1"}),
        ([[2, i, 0], [-i, 2, j], [0, -j, F(2, 3)]],
         {"order": 3, "minor": "0"}),
        ([[0, 0], [0, 1]], {"order": 1, "minor": "0"}),
    ]
    for gram, witness in cases:
        assert _certificate_witness(HQ, gram) == witness


# --------------------------------------------------------------- interning

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _fixture_space(name):
    return serialize.space_from_json(
        serialize.load_file(os.path.join(FIXTURES, name)))


def test_equal_spaces_are_one_object():
    q3 = standard_space(Q, 3)
    assert HermitianSpace.create(Q, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) is q3
    assert _fixture_space("q3.json") is q3
    assert _fixture_space("hq3_gram.json") is default_spaces(HQ)[1]
    gram = HermitianSpace.create(Q, 2, [[2, 1], [1, 1]])
    assert HermitianSpace(Q, 2, ((F(2), F(1)), (F(1), F(1)))) is gram
    assert gram is not standard_space(Q, 2) and gram != standard_space(Q, 2)


def test_linear_transport_keeps_the_codomain_object():
    gram = HermitianSpace.create(Q, 2, [[2, 1], [1, 1]])
    phi = random_linear_map(standard_space(Q, 3), gram, random.Random(5))
    assert transport_linear(phi).new_space is phi.codomain


def test_each_distinct_space_is_certified_once(monkeypatch):
    certified = []
    real = hermspace._certify_ldl

    def spy(gram):
        certified.append(gram)
        return real(gram)

    monkeypatch.setattr(hermspace, "_certify_ldl", spy)
    grams = [(Q, [[101, 1], [1, 103]]),
             (QI, [[101, GR(0, 1)], [GR(0, -1), 103]]),
             (HQ, [[101, HQ_I], [-HQ_I, 103]])]
    live = [HermitianSpace.create(sf, 2, g) for sf, g in grams]
    for _ in range(3):
        again = [HermitianSpace.create(sf, 2, g) for sf, g in grams]
        assert all(a is b for a, b in zip(again, live))
    assert len(certified) == 3


def test_a_failed_certificate_is_not_kept():
    for _ in range(2):
        with pytest.raises(CertificateError):
            HermitianSpace.create(Q, 2, [[1, 1], [2, 1]])
    key = (Q, 2, ((F(1), F(1)), (F(2), F(1))))
    assert key not in hermspace._live_spaces


def test_a_space_without_references_leaves_the_table():
    space = HermitianSpace.create(Q, 2, [[107, 1], [1, 109]])
    key = (Q, 2, space.gram)
    assert hermspace._live_spaces[key] is space
    del space
    gc.collect()
    assert key not in hermspace._live_spaces


def test_equal_vectors_hash_equal():
    hq2 = standard_space(HQ, 2)
    u, v = hq2.vector([1, HQ_I]), hq2.vector([RQ(F(2, 2)), RQ(0, 1, 0, 0)])
    assert u == v and hash(u) == hash(v) and len({u, v}) == 1


# ------------------------------------------------------------------- forms

def test_form_examples():
    q3 = standard_space(Q, 3)
    assert herm_form(q3.vector([1, 2, 0]), q3.vector([3, 1, 0])) == F(5)
    assert herm_form(q3.vector([1, 2, 3]), q3.zero_vector()) == F(0)
    hq1 = standard_space(HQ, 1)
    assert herm_form(hq1.vector([HQ_I]), hq1.vector([HQ_J])) == -HQ_K


def test_form_respects_gram():
    sp = HermitianSpace.create(Q, 2, [[2, 1], [1, 1]])
    u, v = sp.vector([1, 0]), sp.vector([0, 1])
    assert herm_form(u, u) == F(2)
    assert herm_form(u, v) == F(1)


def test_form_space_mismatch():
    a, b = standard_space(Q, 2), standard_space(Q, 3)
    with pytest.raises(InputError):
        herm_form(a.vector([1, 0]), b.vector([1, 0, 0]))


# ----------------------------------------------------------- gram-schmidt

def test_gram_schmidt_rational_example():
    q2 = standard_space(Q, 2)
    out = gram_schmidt([q2.vector([1, 1]), q2.vector([1, 0])])
    assert out[0].coords == (F(1), F(1))
    assert out[1].coords == (F(1, 2), F(-1, 2))


def test_gram_schmidt_orthogonal_input_unchanged():
    q3 = standard_space(Q, 3)
    vecs = [q3.vector([1, 0, 0]), q3.vector([0, 2, 0])]
    assert gram_schmidt(vecs) == vecs


def test_gram_schmidt_gaussian_example():
    qi2 = standard_space(QI, 2)
    i = GR(0, 1)
    out = gram_schmidt([qi2.vector([1, i]), qi2.vector([0, 1])])
    # oracle: pairwise orthogonality plus span preservation
    assert herm_form(out[0], out[1]) == GR(0)
    assert Subspace.from_vectors(qi2, out) == Subspace.full(qi2)
    assert out[1].coords == (GR(0, F(1, 2)), GR(F(1, 2)))


def test_gram_schmidt_dependency_witness():
    """The witness is the one vanishing left combination c of the inputs
    with c_k = 1 and zeros after the first dependent index k."""
    rng = random.Random("gs-witness")
    q2 = standard_space(Q, 2)
    cases = [([q2.vector([1, 2]), q2.vector([2, 4])], [-2, 1], 1)]
    for sf in StarSfield:
        sp = standard_space(sf, 3)
        v0, v1, v3 = sp.vector([1, 2, 0]), sp.vector([0, 1, 1]), \
            sp.basis_vector(2)
        a, b = nonzero_scalar(sf, rng), nonzero_scalar(sf, rng)
        cases += [([v0, v1, a * v0 + b * v1, v3], [-a, -b, 1, 0], 2),
                  ([sp.zero_vector(), v0], [1, 0], 0)]
    for vecs, combo, k in cases:
        with pytest.raises(DependencyError) as err:
            gram_schmidt(vecs)
        assert err.value.witness == {"combination": [str(c) for c in combo],
                                     "index": k}
        total = vecs[0].space.zero_vector()
        for c, v in zip(combo, vecs):
            total = total + c * v
        assert total.is_zero


# --------------------------------------------------------- orthocomplement

def test_orthocomplement_examples():
    q3 = standard_space(Q, 3)
    s = Subspace.from_vectors(q3, [q3.vector([1, 0, 0])])
    assert s.orthocomplement() == Subspace.from_vectors(
        q3, [q3.vector([0, 1, 0]), q3.vector([0, 0, 1])])
    assert Subspace.full(q3).orthocomplement() == Subspace.zero(q3)
    q2 = standard_space(Q, 2)
    line = Subspace.from_vectors(q2, [q2.vector([1, 1])])
    assert line.orthocomplement() == Subspace.from_vectors(
        q2, [q2.vector([1, -1])])


@pytest.mark.parametrize("sf", list(StarSfield))
def test_orthocomplement_properties(sf):
    rng = random.Random(f"oc:{sf.value}")
    for _ in range(12):
        n = rng.randint(1, 5)
        sp = standard_space(sf, n)
        s = random_subspace(sp, rng.randint(0, n), rng)
        perp = s.orthocomplement()
        assert s.dim + perp.dim == n
        assert perp.orthocomplement() == s
        for b in s.basis:
            for c in perp.basis:
                assert not herm_form(b, c)


# ---------------------------------------------------------------- project

def test_project_examples():
    q3 = standard_space(Q, 3)
    s = Subspace.from_vectors(q3, [q3.vector([1, 0, 0]), q3.vector([0, 1, 0])])
    u = q3.vector([2, 3, 5])
    assert s.project(u) == (q3.vector([2, 3, 0]), q3.vector([0, 0, 5]))
    inside = q3.vector([1, 2, 0])
    assert s.project(inside) == (inside, q3.zero_vector())
    q2 = standard_space(Q, 2)
    diag = Subspace.from_vectors(q2, [q2.vector([1, 1])])
    u_s, u_p = diag.project(q2.vector([1, 0]))
    assert u_s.coords == (F(1, 2), F(1, 2))
    assert u_p.coords == (F(1, 2), F(-1, 2))


# ---------------------------------------------------------------- adjoints

def test_adjoint_identity():
    q3 = standard_space(Q, 3)
    ident = SemilinearMap.identity(q3)
    assert adjoint_linear(ident) == ident


def test_adjoint_gaussian_example():
    qi2 = standard_space(QI, 2)
    i = GR(0, 1)
    phi = SemilinearMap(qi2, qi2, SfieldMorphism.identity(QI),
                        (qi2.vector([i, 0]), qi2.vector([0, 2])))
    adj = adjoint_linear(phi)
    assert adj.images == (qi2.vector([GR(0, -1), 0]), qi2.vector([0, 2]))


def test_adjoint_with_weighted_gram():
    sp = HermitianSpace.create(Q, 2, [[1, 0], [0, 2]])
    phi = SemilinearMap(sp, sp, SfieldMorphism.identity(Q),
                        (sp.vector([0, 1]), sp.vector([0, 0])))
    adj = adjoint_linear(phi)
    assert adj.images == (sp.vector([0, 0]), sp.vector([2, 0]))
    for a in range(2):
        for b in range(2):
            assert herm_form(phi.apply(sp.basis_vector(a)), sp.basis_vector(b)) == \
                herm_form(sp.basis_vector(a), adj.apply(sp.basis_vector(b)))


@pytest.mark.parametrize("sf", list(StarSfield))
def test_adjoint_defining_identity_random(sf):
    rng = random.Random(f"adj:{sf.value}")
    for _ in range(10):
        h1 = standard_space(sf, rng.randint(1, 4))
        h2 = HermitianSpace.create(
            sf, 3, [[1, 0, 0], [0, 2, 0], [0, 0, F(1, 3)]])
        phi = random_linear_map(h1, h2, rng)
        adj = adjoint_linear(phi)
        for i in range(h1.dim):
            for j in range(h2.dim):
                assert herm_form(phi.apply(h1.basis_vector(i)),
                                 h2.basis_vector(j)) == \
                    herm_form(h1.basis_vector(i), adj.apply(h2.basis_vector(j)))
        assert adjoint_linear(adj) == phi


def test_adjoint_between_non_diagonal_gram_spaces(rng):
    hq_gram = HermitianSpace.create(
        HQ, 3, [[2, HQ_I, 0], [-HQ_I, 2, HQ_J], [0, -HQ_J, 3]])
    pairs = [(HermitianSpace.create(Q, 2, [[2, 1], [1, 1]]),
              standard_space(Q, 3)),
             (HermitianSpace.create(HQ, 2, [[1, HQ_K], [-HQ_K, 3]]), hq_gram)]
    for h1, h2 in pairs:
        for _ in range(8):
            phi = random_linear_map(h1, h2, rng)
            adj = adjoint_linear(phi)
            for i in range(h1.dim):
                for j in range(h2.dim):
                    assert herm_form(phi.apply(h1.basis_vector(i)),
                                     h2.basis_vector(j)) == \
                        herm_form(h1.basis_vector(i),
                                  adj.apply(h2.basis_vector(j)))
            assert adjoint_linear(adj) == phi


def test_quasiunitary_on_weighted_spaces(rng):
    weighted = HermitianSpace.create(HQ, 3,
                                     [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    for _ in range(5):
        phi = random_unitary(weighted, rng).scale(RQ(0, 1, 1, 0))
        cert = is_quasiunitary(phi)
        assert cert is not None
        sigma, lam = cert
        assert lam == RQ(2)  # the norm of i + j


def test_adjoint_contravariance(rng):
    for sf in StarSfield:
        h0, h1, h2 = (standard_space(sf, d) for d in (2, 3, 2))
        psi = random_linear_map(h0, h1, rng)
        phi = random_linear_map(h1, h2, rng)
        assert adjoint_linear(compose_maps(phi, psi)) == \
            compose_maps(adjoint_linear(psi), adjoint_linear(phi))


def test_adjoint_requires_linear():
    qi2 = standard_space(QI, 2)
    twisted = SemilinearMap(qi2, qi2, SfieldMorphism.conjugation(),
                            tuple(qi2.basis()))
    with pytest.raises(InputError):
        adjoint_linear(twisted)


# ----------------------------------------------------------- quasiunitary

def test_is_quasiunitary_examples():
    q2 = standard_space(Q, 2)
    ident = SemilinearMap.identity(q2)
    assert is_quasiunitary(ident) == (SfieldMorphism.identity(Q), F(1))
    doubled = ident.scale(F(2))
    assert is_quasiunitary(doubled) == (SfieldMorphism.identity(Q), F(4))


def test_is_quasiunitary_quaternion_left_multiplication():
    hq2 = standard_space(HQ, 2)
    q = RQ(1, 1, 0, 0)
    phi = left_scalar_map(hq2, q)
    sigma, lam = is_quasiunitary(phi)
    assert sigma == SfieldMorphism.inner(q)
    assert lam == RQ(2)  # the norm of 1 + i


def test_is_quasiunitary_rejects_non_bijective():
    q2 = standard_space(Q, 2)
    rank1 = SemilinearMap(q2, q2, SfieldMorphism.identity(Q),
                          (q2.vector([1, 0]), q2.vector([2, 0])))
    with pytest.raises(InputError):
        is_quasiunitary(rank1)


def test_is_quasiunitary_none_for_shear():
    q2 = standard_space(Q, 2)
    shear = SemilinearMap(q2, q2, SfieldMorphism.identity(Q),
                          (q2.vector([1, 0]), q2.vector([1, 1])))
    assert is_quasiunitary(shear) is None


def test_invert_semilinear_round_trip(rng):
    for sf in StarSfield:
        sp = standard_space(sf, 3)
        phi = random_unitary(sp, rng)
        if sf is StarSfield.HQ:
            phi = phi.scale(RQ(1, 0, 1, 0))
        inv = invert_semilinear(phi)
        assert compose_maps(inv, phi) == SemilinearMap.identity(sp)
        assert compose_maps(phi, inv) == SemilinearMap.identity(sp)


# ------------------------------------------------------- partial isometry

def _shift_descriptor():
    q3 = standard_space(Q, 3)
    s1 = Subspace.from_vectors(q3, [q3.vector([1, 0, 0]), q3.vector([0, 1, 0])])
    s2 = Subspace.from_vectors(q3, [q3.vector([0, 1, 0]), q3.vector([0, 0, 1])])
    f1, f2 = s1.frame, s2.frame
    core = SemilinearMap(f1.space, f2.space, SfieldMorphism.identity(Q),
                         tuple(f2.space.basis()))
    return q3, s1, s2, make_partial_isometry(s1, s2, core)


def test_partial_isometry_shift_example():
    q3, s1, s2, d = _shift_descriptor()
    assert d.map.apply(q3.vector([1, 0, 0])) == q3.vector([0, 1, 0])
    assert d.map.apply(q3.vector([0, 1, 0])) == q3.vector([0, 0, 1])
    assert d.map.apply(q3.vector([0, 0, 1])) == q3.zero_vector()


def test_generalized_inverse_shift_example():
    q3, s1, s2, d = _shift_descriptor()
    psi = generalized_inverse(d)
    assert psi.apply(q3.vector([0, 1, 0])) == q3.vector([1, 0, 0])
    assert psi.apply(q3.vector([0, 0, 1])) == q3.vector([0, 1, 0])
    assert psi.apply(q3.vector([1, 0, 0])) == q3.zero_vector()
    # both composites are the orthogonal projections
    for i in range(3):
        e = q3.basis_vector(i)
        assert psi.apply(d.map.apply(e)) == s1.project(e)[0]
        assert d.map.apply(psi.apply(e)) == s2.project(e)[0]
    assert psi == adjoint_linear(d.map)


def test_identity_and_zero_partial_isometries():
    q2 = standard_space(Q, 2)
    full = Subspace.full(q2)
    ident_core = SemilinearMap.identity(full.frame.space)
    d = make_partial_isometry(full, full, ident_core)
    assert d.map == SemilinearMap.identity(q2)
    assert generalized_inverse(d) == SemilinearMap.identity(q2)
    zero = Subspace.zero(q2)
    zcore = SemilinearMap(zero.frame.space, zero.frame.space,
                          SfieldMorphism.identity(Q), ())
    dz = make_partial_isometry(zero, zero, zcore)
    assert dz.map == SemilinearMap.zero(q2, q2)
    assert generalized_inverse(dz) == SemilinearMap.zero(q2, q2)


def test_partial_isometry_input_validation():
    q3 = standard_space(Q, 3)
    s1 = Subspace.from_vectors(q3, [q3.vector([1, 0, 0])])
    s2 = Subspace.from_vectors(q3, [q3.vector([0, 1, 0]), q3.vector([0, 0, 1])])
    core = SemilinearMap.identity(s1.frame.space)
    with pytest.raises(InputError):
        make_partial_isometry(s1, s2, core)
    shear_core_space = Subspace.from_vectors(
        q3, [q3.vector([1, 0, 0]), q3.vector([0, 1, 0])]).frame.space
    shear = SemilinearMap(shear_core_space, shear_core_space,
                          SfieldMorphism.identity(Q),
                          (shear_core_space.vector([1, 0]),
                           shear_core_space.vector([1, 1])))
    s12 = Subspace.from_vectors(q3, [q3.vector([1, 0, 0]), q3.vector([0, 1, 0])])
    with pytest.raises(InputError):
        make_partial_isometry(s12, s12, shear)


def test_generalized_inverse_rejects_quasi_core():
    hq4 = standard_space(HQ, 4)
    s = Subspace.from_vectors(hq4, [hq4.basis_vector(0), hq4.basis_vector(1)])
    core = left_scalar_map(s.frame.space, RQ(1, 1, 0, 0))
    d = make_partial_isometry(s, s, core)
    with pytest.raises(UnsupportedVariantError):
        generalized_inverse(d)
    psi = quasi_generalized_inverse(d)
    for i in range(4):
        e = hq4.basis_vector(i)
        assert psi.apply(d.map.apply(e)) == s.project(e)[0]


# -------------------------------------------------------------- subspaces

def test_subspace_canonical_equality():
    q3 = standard_space(Q, 3)
    a = Subspace.from_vectors(q3, [q3.vector([1, 1, 0]), q3.vector([0, 1, 1])])
    b = Subspace.from_vectors(q3, [q3.vector([1, 2, 1]), q3.vector([1, 0, -1])])
    assert a == b
    for rows in ([[2, 0, 0]],                  # pivot != 1
                 [[0, 1, 0], [1, 0, 0]],       # unsorted pivots
                 [[1, 3, 0], [0, 1, 0]],       # nonzero above a pivot
                 [[1, 0, 0], [0, 0, 0]]):      # zero row
        with pytest.raises(InputError):
            Subspace(q3, tuple(q3.vector(r) for r in rows))
    hq3 = standard_space(HQ, 3)
    s = Subspace(hq3, (hq3.vector([1, 0, HQ_J]), hq3.vector([0, 1, HQ_K])))
    assert s == Subspace.from_vectors(hq3, list(s.basis))


def test_from_vectors_reduces_once(monkeypatch):
    calls = []
    real = linalg.rref

    def counted(rows):
        calls.append(rows)
        return real(rows)
    monkeypatch.setattr(linalg, "rref", counted)
    q3 = standard_space(Q, 3)
    s = Subspace.from_vectors(q3, [q3.vector([2, 4, 0]), q3.vector([1, 1, 1])])
    assert s.dim == 2 and len(calls) == 1


def frame_spaces():
    """Standard spaces over every sfield, and a Gram space over each."""
    i = GR(0, 1)
    return [standard_space(sf, 4) for sf in StarSfield] + [
        HermitianSpace.create(Q, 3, [[2, 1, 0], [1, 2, 1], [0, 1, 2]]),
        HermitianSpace.create(QI, 3, [[2, i, 0], [-i, 2, 1], [0, 1, 3]]),
        HermitianSpace.create(HQ, 3, [[2, HQ_I, 0], [-HQ_I, 2, HQ_J],
                                      [0, -HQ_J, 3]]),
    ]


def test_frame_round_trip():
    rng = random.Random("frame")
    for sp in frame_spaces():
        for s in (Subspace.zero(sp), random_subspace(sp, 2, rng),
                  Subspace.full(sp)):
            fr = s.frame
            for v in s.basis:
                assert fr.to_ambient(fr.from_ambient(v)) == v
            outside = random_vector(sp, rng)
            coords = fr.project_coords(outside)
            assert fr.to_ambient(coords) == s.project(outside)[0]
            # the frame's linear maps: inclusion sends e_i to vectors[i],
            # projection agrees with project_coords, and they are adjoint
            inc, proj = fr.inclusion, fr.projection
            assert (inc.domain, inc.codomain) == (fr.space, sp)
            assert (proj.domain, proj.codomain) == (sp, fr.space)
            assert inc.images == fr.vectors and inc.is_linear
            for c in fr.space.basis() + [random_vector(fr.space, rng)]:
                by_hand = sp.zero_vector()
                for a, o in zip(c.coords, fr.vectors):
                    by_hand = by_hand + a * o
                assert inc.apply(c) == fr.to_ambient(c) == by_hand
                assert herm_form(inc.apply(c), outside) == \
                    herm_form(c, proj.apply(outside))
            for u in sp.basis() + [outside, sp.zero_vector()]:
                assert proj.apply(u) == fr.project_coords(u)
        assert Subspace.zero(sp).project(outside) == (sp.zero_vector(), outside)
        assert Subspace.full(sp).project(outside) == (outside, sp.zero_vector())


def test_frame_space_certifies_over_hq():
    hq3 = standard_space(HQ, 3)
    s = Subspace.from_vectors(
        hq3, [hq3.vector([1, HQ_I, 0]), hq3.vector([0, 1, HQ_J])])
    frame = s.frame  # construction re-certifies the diagonal Gram matrix
    assert frame.space.dim == 2
    assert frame.space.gram[0][1] == RQ(0)


def test_zero_dimensional_space_edge_cases():
    for sf in StarSfield:
        z = standard_space(sf, 0)
        assert herm_form(z.zero_vector(), z.zero_vector()) == sf.zero()
        assert Subspace.full(z) == Subspace.zero(z)
        ident = SemilinearMap.identity(z)
        assert adjoint_linear(ident) == ident
        assert is_quasiunitary(ident) == (SfieldMorphism.identity(sf), sf.one())


# ------------------------------------------------------------ composition

def _scalar_compose(outer, inner):
    """The scalar reference for compose_maps: the scalar loop
    `_scalar_apply` of outer on each image of inner."""
    return tuple(_scalar_apply(outer, v) for v in inner.images)


def _tridiagonal_space(sf, n):
    """A Gram space with 3 on the diagonal and the last basis scalar (1, i
    or k) beside it, positive definite by diagonal dominance."""
    e = sf.basis()[-1]
    return HermitianSpace.create(sf, n, [
        [3 if i == j else e if j == i + 1 else star_scalar(e) if i == j + 1
         else 0 for j in range(n)] for i in range(n)])


def _huge_scalar(sf, rng):
    """A scalar whose components pass 2**64 or sit at -2**63, over a
    denominator past 2**64 or a small one."""
    comps = [rng.choice((2 ** 64 + rng.randint(1, 99), -2 ** 63,
                         rng.randint(-9, 9))) for _ in sf.basis()]
    den = rng.choice((1, 2 ** 65 + 1, rng.randint(2, 9)))
    if sf is Q:
        return F(comps[0], den)
    return sf.scalar_type._raw(comps, den)


def _twists(sf):
    if sf is QI:
        return [SfieldMorphism.identity(sf), SfieldMorphism.conjugation()]
    if sf is HQ:
        return [SfieldMorphism.identity(sf), SfieldMorphism.inner(RQ(1, 2, -1, 3))]
    return [SfieldMorphism.identity(sf)]


@pytest.mark.parametrize("sf", list(StarSfield))
def test_compose_maps_matches_the_scalar_apply_loop(sf):
    """compose_maps, one integer product on outer's block, equals the
    scalar loop of outer on every image of inner: over
    every twist pair, standard and Gram spaces of dimensions 0 to 6, zero
    maps, unit-row maps, and entries past 2**64 and at -2**63."""
    rng = random.Random(f"compose:{sf.value}")
    twists = _twists(sf)

    def space(n):
        return _tridiagonal_space(sf, n) if rng.random() < 0.5 \
            else standard_space(sf, n)

    def vector(h, huge):
        return h.vector([_huge_scalar(sf, rng) if huge else
                         sf.random_scalar(rng) for _ in range(h.dim)])

    for n in range(7):
        for d, m in ((n, n), (rng.randint(0, 6), rng.randint(0, 6))):
            a, b, c = space(d), space(n), space(m)
            for s_out in twists:
                for s_in in twists:
                    huge = rng.random() < 0.3
                    inner = SemilinearMap(a, b, s_in, tuple(
                        vector(b, huge) for _ in range(d)))
                    outer = SemilinearMap(b, c, s_out, tuple(
                        vector(c, not huge) for _ in range(n)))
                    units = SemilinearMap(a, b, s_in, tuple(
                        b.basis_vector(rng.randrange(n)) if n and rng.random()
                        < 0.7 else b.zero_vector() for _ in range(d)))
                    for pi in (inner, units, SemilinearMap.zero(a, b)):
                        for psi in (outer, SemilinearMap.zero(b, c)):
                            got = compose_maps(psi, pi)
                            assert got.images == _scalar_compose(psi, pi)
                            assert got.sigma == psi.sigma.compose(pi.sigma)
            assert compose_maps(outer, SemilinearMap.identity(b)).images \
                == outer.images


def _scalar_probe_rays(subspace, seed, count):
    """The reference for probe_rays_in through the scalar loop: the
    embedding e_i -> b_i of the basis applied by `_scalar_apply` to the
    unit coefficient rows, then to scalar coefficient rows drawn as
    probe_rays_in draws them, again while zero."""
    space, s = subspace.space, subspace.dim
    if not s:
        return [Ray.zero(space)]
    sf = space.sfield
    coeffs = standard_space(sf, s)
    embedding = SemilinearMap(coeffs, space, SfieldMorphism.identity(sf),
                              subspace.basis)
    rng = random.Random(f"subprobes:{sf.value}:{s}:{seed}")
    rows = coeffs.basis()
    while len(rows) + 1 < count:
        rows.append(random_nonzero_vector(coeffs, rng))
    return [Ray.zero(space)] + rays_of(
        space, [_scalar_apply(embedding, c) for c in rows])


@pytest.mark.parametrize("sf", list(StarSfield))
def test_block_paths_match_the_scalar_loop(sf):
    """apply, apply_all, compose_maps and probe_rays_in, which all read a
    map's `block`, equal the scalar loop `_scalar_apply`: every twist kind
    of the sfield, standard and Gram spaces, zero-dimensional domains and
    codomains, and entries past 2**63 in the map or in the vectors."""
    rng = random.Random(f"block:{sf.value}")

    def vector(h, huge):
        return h.vector([_huge_scalar(sf, rng) if huge else
                         sf.random_scalar(rng) for _ in range(h.dim)])

    for n, m in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4),
                 (5, 3)):
        for gram in (False, True):
            dom = _tridiagonal_space(sf, n) if gram else standard_space(sf, n)
            cod = standard_space(sf, m) if gram else _tridiagonal_space(sf, m)
            for sigma in twists(sf):
                huge = rng.random() < 0.5
                phi = SemilinearMap(dom, cod, sigma, tuple(
                    vector(cod, huge) for _ in range(n)))
                us = [vector(dom, not huge) for _ in range(3)] + \
                    [dom.zero_vector()] + dom.basis()
                want = tuple(_scalar_apply(phi, u) for u in us)
                assert tuple(phi.apply(u) for u in us) == want
                assert phi.apply_all(us) == want
                assert phi.apply_all([]) == ()
                for inner_sigma in twists(sf):
                    a = standard_space(sf, rng.randint(0, 3))
                    inner = SemilinearMap(a, dom, inner_sigma, tuple(
                        vector(dom, huge) for _ in range(a.dim)))
                    got = compose_maps(phi, inner)
                    assert got.images == tuple(
                        _scalar_apply(phi, v) for v in inner.images)
            if m:
                sub = Subspace.from_vectors(
                    cod, [vector(cod, huge) for _ in range(min(m, 3))])
                for count in (1, 2, 17):
                    assert probe_rays_in(sub, n, count) == \
                        _scalar_probe_rays(sub, n, count)
    with pytest.raises(InputError, match="domain"):
        phi.apply_all([standard_space(sf, 4).zero_vector()])
