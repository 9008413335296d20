"""JSON file formats for spaces, maps, subspaces and rays.

Scalar text syntax: rationals are "p/q" or "p"; Gaussian rationals are
{"re": ..., "im": ...}; quaternions are {"a": ..., "b": ..., "c": ...,
"d": ...}; sfield tags are "Q", "Qi", "HQ"; morphisms are {"kind": "id" |
"conj" | "inner"} with the conjugator under "q" for inner morphisms.
Input rules: "dim" is a JSON integer, not a bool or a float, from 0 to
MAX_DIM, checked before any space is built; a Gram matrix is dim rows of
dim entries, a map's images are one row per domain dimension, its
claimed adjoint images one per codomain dimension, and a basis any
number of rows, each row as long as the dimension it lives in, all
checked before any scalar of the file is parsed; a zero denominator, as in
"1/0", is a ParseError, and so is a key that no loader reads (a misspelt
"gram", or "q" outside an inner morphism).
Output is canonical: sorted keys, reduced fractions, denominators printed
only when they differ from 1, identity Gram matrices omitted.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError, ParseError
from .hermspace import HermitianSpace, SemilinearMap, Subspace, Vector
from .orthoset import Ray
from .scalars import (
    GaussianRational,
    RationalQuaternion,
    rational_from_str,
    rational_to_str,
)
from .starfields import SfieldMorphism, StarSfield

# the largest "dim" an input file may state.  HermitianSpace.create builds
# dim**2 Gram scalars before anything else reads the file, so a larger
# dim is rejected first
MAX_DIM = 64


def scalar_to_json(a):
    if isinstance(a, (int, Fraction)):
        return rational_to_str(Fraction(a))
    if isinstance(a, (GaussianRational, RationalQuaternion)):
        return {name: rational_to_str(getattr(a, name))
                for name in a.component_names}
    raise InputError(f"not a scalar: {a!r}")


def _rational(text) -> Fraction:
    if not isinstance(text, str):
        raise TypeError("rationals are JSON strings")
    return rational_from_str(text)


def _known_keys(obj, keys, what: str) -> None:
    """A key of the JSON object obj outside keys is a ParseError."""
    if isinstance(obj, dict) and set(obj) - set(keys):
        raise ParseError(f"unknown keys in {what} object: "
                         f"{sorted(set(obj) - set(keys))}")


def scalar_from_json(obj, sfield: StarSfield):
    try:
        if sfield is StarSfield.Q:
            return _rational(obj)
        cls = sfield.scalar_type
        if isinstance(obj, str):
            return cls(_rational(obj))
        _known_keys(obj, cls.component_names, "scalar")
        return cls(*[_rational(obj[name]) for name in cls.component_names])
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar literal {obj!r} for {sfield.value}") from exc


def sfield_from_json(tag) -> StarSfield:
    for sf in StarSfield:
        if sf.value == tag:
            return sf
    raise ParseError(f"unknown sfield tag {tag!r}")


def space_to_json(space: HermitianSpace) -> dict:
    obj = {"sfield": space.sfield.value, "dim": space.dim}
    if not space._is_identity_gram:
        obj["gram"] = [[scalar_to_json(x) for x in row] for row in space.gram]
    return obj


def _rows(rows, what: str, length: int) -> list:
    """A JSON list of lists of length entries each: the rows of a Gram
    matrix, of map images or of a basis, shape-checked before any scalar
    is parsed."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{what} must be a list of lists")
    if any(len(r) != length for r in rows):
        raise ParseError(f"{what} rows must have {length} entries")
    return rows


def _space_parts(obj) -> tuple:
    """The sfield, dim and shape-checked Gram rows (None for the standard
    form) of a space object, with no scalar parsed."""
    _known_keys(obj, ("sfield", "dim", "gram"), "space")
    try:
        sf = sfield_from_json(obj["sfield"])
        dim = obj["dim"]
        gram = obj.get("gram")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad space object: {exc}") from exc
    if type(dim) is not int:  # int() would pass a bool and truncate a float
        raise ParseError(f"dim must be a JSON integer, got {dim!r}")
    if dim < 0:
        raise ParseError(f"dim must be nonnegative, got {dim}")
    if dim > MAX_DIM:
        raise ParseError(f"dim must be at most {MAX_DIM}, got {dim}")
    if gram is not None and len(_rows(gram, "gram", dim)) != dim:
        raise ParseError("Gram matrix shape does not match dimension")
    return sf, dim, gram


def _space(sf: StarSfield, dim: int, gram) -> HermitianSpace:
    if gram is None:
        return HermitianSpace.create(sf, dim)
    rows = [[scalar_from_json(x, sf) for x in row] for row in gram]
    return HermitianSpace.create(sf, dim, rows)


def space_from_json(obj) -> HermitianSpace:
    return _space(*_space_parts(obj))


def morphism_to_json(sigma: SfieldMorphism) -> dict:
    obj = {"kind": sigma.kind}
    if sigma.kind == "inner":
        obj["q"] = scalar_to_json(sigma.q)
    return obj


def morphism_from_json(obj, sfield: StarSfield) -> SfieldMorphism:
    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise ParseError("morphism object needs a kind") from exc
    _known_keys(obj, ("kind", "q") if kind == "inner" else ("kind",),
                "morphism")
    if kind == "id":
        return SfieldMorphism.identity(sfield)
    if kind == "conj":
        if sfield is not StarSfield.QI:
            raise ParseError("conj morphisms exist on Qi only")
        return SfieldMorphism.conjugation()
    if kind == "inner":
        if sfield is not StarSfield.HQ:
            raise ParseError("inner morphisms exist on HQ only")
        return SfieldMorphism.inner(scalar_from_json(obj.get("q"), sfield))
    raise ParseError(f"unknown morphism kind {kind!r}")


def _vector_rows_to_json(vectors) -> list:
    return [[scalar_to_json(c) for c in v.coords] for v in vectors]


def map_to_json(phi: SemilinearMap) -> dict:
    return {
        "domain": space_to_json(phi.domain),
        "codomain": space_to_json(phi.codomain),
        "sigma": morphism_to_json(phi.sigma),
        "images": _vector_rows_to_json(phi.images),
    }


def _vectors(space: HermitianSpace, rows) -> list[Vector]:
    return [space.vector([scalar_from_json(x, space.sfield) for x in row])
            for row in rows]


def map_from_json(obj) -> tuple[SemilinearMap, SemilinearMap | None]:
    """Returns the map and, when the file carries claimed adjoint images,
    the claimed adjoint map.  Both spaces and both lists are shape-checked
    before any scalar is parsed."""
    _known_keys(obj, ("domain", "codomain", "sigma", "images",
                      "adjoint_images"), "map")
    try:
        dom, cod = _space_parts(obj["domain"]), _space_parts(obj["codomain"])
        n, m = dom[1], cod[1]
        rows = _rows(obj["images"], "images", m)
        if len(rows) != n:
            raise ParseError("image count does not match the domain dimension")
        arows = None
        if "adjoint_images" in obj:
            arows = _rows(obj["adjoint_images"], "adjoint_images", n)
            if len(arows) != m:
                raise ParseError("adjoint image count does not match")
        domain, codomain = _space(*dom), _space(*cod)
        sigma = morphism_from_json(obj["sigma"], domain.sfield)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad map object: {exc}") from exc
    phi = SemilinearMap(domain, codomain, sigma, tuple(_vectors(codomain, rows)))
    claimed = None
    if arows is not None:
        claimed = SemilinearMap(codomain, domain,
                                SfieldMorphism.identity(domain.sfield),
                                tuple(_vectors(domain, arows)))
    return phi, claimed


def subspace_to_json(s: Subspace) -> dict:
    return {"space": space_to_json(s.space),
            "basis": _vector_rows_to_json(s.basis)}


def basis_vectors_from_json(obj) -> tuple[HermitianSpace, list[Vector]]:
    """The raw basis rows of a subspace file, without echelon reduction;
    gram_schmidt-style constructions need the rows as given."""
    _known_keys(obj, ("space", "basis"), "subspace")
    try:
        sf, dim, gram = _space_parts(obj["space"])
        rows = _rows(obj["basis"], "basis", dim)
        space = _space(sf, dim, gram)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad subspace object: {exc}") from exc
    return space, _vectors(space, rows)


def ray_to_json(r: Ray) -> dict:
    obj = {"space": space_to_json(r.space)}
    obj["rep"] = "zero" if r.is_zero else [scalar_to_json(c) for c in r.rep.coords]
    return obj


def vector_from_json(obj, space: HermitianSpace) -> Vector:
    if not isinstance(obj, list):
        raise ParseError("vector literal must be a list of scalars")
    return space.vector([scalar_from_json(x, space.sfield) for x in obj])


def loads(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source} is not valid JSON: {exc}") from exc


def load_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads(text, path)
