import glob
import json
from fractions import Fraction as F

import pytest

from orthoset_lab import serialize as sz
from orthoset_lab.errors import ParseError
from orthoset_lab.hermspace import (
    HermitianSpace,
    Subspace,
    standard_space,
)
from orthoset_lab.orthoset import Ray, ray_of
from orthoset_lab.sampling import left_scalar_map
from orthoset_lab.scalars import GaussianRational as GR, RationalQuaternion as RQ
from orthoset_lab.starfields import SfieldMorphism, StarSfield

Q, QI, HQ = StarSfield.Q, StarSfield.QI, StarSfield.HQ


def test_scalar_syntax():
    assert sz.scalar_to_json(F(-3, 7)) == "-3/7"
    assert sz.scalar_to_json(F(5)) == "5"
    assert sz.scalar_to_json(GR(F(1, 2), F(-3))) == {"re": "1/2", "im": "-3"}
    assert sz.scalar_to_json(RQ(1, 0, F(2, 3), 0)) == \
        {"a": "1", "b": "0", "c": "2/3", "d": "0"}
    assert sz.scalar_from_json("3/2", Q) == F(3, 2)
    assert sz.scalar_from_json({"re": "1", "im": "-1"}, QI) == GR(1, -1)
    assert sz.scalar_from_json("4", QI) == GR(4)  # plain rationals lift
    assert sz.scalar_from_json("4", HQ) == RQ(4)


def test_scalar_parse_errors():
    with pytest.raises(ParseError):
        sz.scalar_from_json("x/y", Q)
    with pytest.raises(ParseError):
        sz.scalar_from_json({"re": "1"}, QI)
    with pytest.raises(ParseError, match="unknown keys"):
        sz.scalar_from_json({"re": "1", "im": "0", "j": "1"}, QI)
    with pytest.raises(ParseError):
        sz.sfield_from_json("R")
    for literal, sfield in (("1/0", Q), ("1/0", QI),
                            ({"re": "1", "im": "2/0"}, QI)):
        with pytest.raises(ParseError):
            sz.scalar_from_json(literal, sfield)


def test_space_round_trip_identity_gram_omitted():
    sp = standard_space(QI, 3)
    obj = sz.space_to_json(sp)
    assert "gram" not in obj
    assert sz.space_from_json(obj) == sp
    weighted = HermitianSpace.create(Q, 2, [[2, 1], [1, 1]])
    obj2 = sz.space_to_json(weighted)
    assert obj2["gram"] == [["2", "1"], ["1", "1"]]
    assert sz.space_from_json(obj2) == weighted


def test_morphism_round_trip():
    for sigma in (SfieldMorphism.identity(Q), SfieldMorphism.conjugation(),
                  SfieldMorphism.inner(RQ(1, 2, 0, 1))):
        obj = sz.morphism_to_json(sigma)
        assert sz.morphism_from_json(obj, sigma.sfield) == sigma
    with pytest.raises(ParseError):
        sz.morphism_from_json({"kind": "conj"}, Q)
    with pytest.raises(ParseError):
        sz.morphism_from_json({"kind": "inner", "q": "1"}, QI)
    with pytest.raises(ParseError, match="unknown keys"):
        sz.morphism_from_json({"kind": "id", "q": "1"}, HQ)


def test_map_round_trip(rng):
    hq2 = standard_space(HQ, 2)
    phi = left_scalar_map(hq2, RQ(1, 1, 0, 0))
    obj = sz.map_to_json(phi)
    back, claimed = sz.map_from_json(obj)
    assert back == phi and claimed is None
    adj_obj = dict(obj, adjoint_images=obj["images"])
    back2, claimed2 = sz.map_from_json(adj_obj)
    assert claimed2 is not None and claimed2.images == phi.images


def test_every_key_the_writers_emit_is_accepted():
    """Each writer's output, gram, twist and claimed adjoint included,
    loads back through the loader of its object."""
    gram = HermitianSpace.create(HQ, 2, [[2, RQ(0, 1, 0, 0)],
                                         [RQ(0, -1, 0, 0), 1]])
    phi = left_scalar_map(gram, RQ(1, 1, 0, 1))
    obj = sz.map_to_json(phi)
    obj["adjoint_images"] = obj["images"]
    assert set(obj["domain"]) == {"sfield", "dim", "gram"}
    assert set(obj["sigma"]) == {"kind", "q"}
    back, claimed = sz.map_from_json(json.loads(canonical(obj)))
    assert back == phi and claimed is not None
    for sigma in (SfieldMorphism.identity(Q), SfieldMorphism.conjugation()):
        assert sz.morphism_from_json(sz.morphism_to_json(sigma),
                                     sigma.sfield) == sigma
    for a, sf in ((F(1, 2), Q), (GR(1, 2), QI), (RQ(1, 2, 3, 4), HQ)):
        assert sz.scalar_from_json(sz.scalar_to_json(a), sf) == a
    s = Subspace.from_vectors(gram, [gram.vector([1, RQ(0, 0, 1, 0)])])
    assert load_subspace(json.loads(canonical(sz.subspace_to_json(s)))) == s


def load_subspace(obj):
    """A subspace file read as the CLI reads it: raw rows, then echelon."""
    return Subspace.from_vectors(*sz.basis_vectors_from_json(obj))


def test_subspace_round_trip_canonicalizes():
    q3 = standard_space(Q, 3)
    obj = {"space": sz.space_to_json(q3),
           "basis": [["1", "1", "0"], ["2", "2", "2"]]}
    s = load_subspace(obj)
    assert s == Subspace.from_vectors(
        q3, [q3.vector([1, 1, 0]), q3.vector([0, 0, 1])])
    again = load_subspace(sz.subspace_to_json(s))
    assert again == s
    space, raw = sz.basis_vectors_from_json(obj)
    assert raw[1] == q3.vector([2, 2, 2])  # raw rows kept for constructions


def test_ray_round_trip():
    q2 = standard_space(Q, 2)
    r = ray_of(q2.vector([2, 4]))
    obj = sz.ray_to_json(r)
    assert obj["rep"] == ["1", "2"]
    space = sz.space_from_json(obj["space"])
    assert ray_of(sz.vector_from_json(obj["rep"], space)) == r
    z = sz.ray_to_json(Ray.zero(q2))
    assert z == {"space": obj["space"], "rep": "zero"}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_canonical_dump_stable():
    sp = HermitianSpace.create(QI, 2, [[2, GR(0, 1)], [GR(0, -1), 1]])
    text = canonical(sz.space_to_json(sp))
    reparsed = sz.space_from_json(json.loads(text))
    assert canonical(sz.space_to_json(reparsed)) == text


@pytest.mark.parametrize("path", sorted(glob.glob("fixtures/*.json")))
def test_fixtures_round_trip(path):
    obj = sz.load_file(path)
    if "images" in obj:
        value, claimed = sz.map_from_json(obj)
        emitted = sz.map_to_json(value)
        if claimed is not None:
            emitted["adjoint_images"] = sz.map_to_json(claimed)["images"]
        value2, claimed2 = sz.map_from_json(json.loads(canonical(emitted)))
        assert value2 == value and claimed2 == claimed
    elif "basis" in obj:
        value = load_subspace(obj)
        assert load_subspace(json.loads(
            canonical(sz.subspace_to_json(value)))) == value
    else:
        value = sz.space_from_json(obj)
        assert sz.space_from_json(json.loads(
            canonical(sz.space_to_json(value)))) == value


def test_load_file_errors(tmp_path):
    with pytest.raises(ParseError):
        sz.load_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        sz.load_file(str(bad))
    bad.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ParseError):
        sz.load_file(str(bad))
