"""Finite-dimensional Hermitian spaces over the supported *-sfields.

Vectors are rows under a left scalar action and forms follow the convention

    <u, v> = sum_ij u_i * G_ij * star(v_j),

linear in the first argument, star-twisted in the second.  Every space
carries an anisotropy certificate, the same over every sfield: left
elimination factors the Gram matrix as G = L D L* with L unit lower
triangular, and every pivot in D must be a positive rational.
Then <u, u> = sum_k d_k N((u L)_k) is positive for u != 0, so the form is
anisotropic.  Over Q and Qi the product d_1 ... d_k is the k-th leading
principal minor.  The certificate is deliberately stronger than anisotropy
itself, which is undecidable-in-practice for arbitrary rational forms
without heavy machinery.

Equal spaces are one object: construction returns the live space of the
same sfield, dimension and Gram matrix when there is one, so the
certificate is checked once per distinct space and space equality is `is`.

A map's scale certificate is read off one cached matrix, the forms of its
basis images (`SemilinearMap.image_gram`), by `form_scale`, and serves
is_quasiunitary and correspondence alike.  On a bijective map its scale is
a positive rational, by the certificate of the codomain (see
is_quasiunitary), so no further test of the scale can fail.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg, perpgrid
from .errors import (
    CertificateError,
    DependencyError,
    InconsistencyError,
    InputError,
    PreconditionError,
    UnsupportedVariantError,
)
from .scalars import inv_scalar, real_part, star_scalar
from .starfields import SfieldMorphism, StarSfield


def _certify_ldl(gram) -> None:
    """Certify a Hermitian Gram matrix by G = L D L*.

    Step k eliminates below the pivot d_k by the left row operations
    row_i <- row_i - g_ik d_k^-1 row_k on the trailing columns.  Each pivot
    is central, so the trailing block stays Hermitian and its diagonal, the
    next pivot, is self-adjoint: a rational, read off as its real part.
    The first pivot that is not positive fails with the order k and the
    product d_1 ... d_k, which over Q and Qi is the leading principal minor.
    """
    m = [list(r) for r in gram]
    minor = None
    for k, row_k in enumerate(m):
        d = row_k[k]
        minor = d if minor is None else minor * d
        if real_part(d) <= 0:
            raise CertificateError(
                "leading principal minor is not a positive rational",
                witness={"order": k + 1, "minor": str(minor)})
        d_inv = inv_scalar(d)
        for row_i in m[k + 1:]:
            f = row_i[k] * d_inv
            if f:
                row_i[k + 1:] = [a - f * b
                                 for a, b in zip(row_i[k + 1:], row_k[k + 1:])]


def _identity_gram(sfield: StarSfield, dim: int) -> tuple:
    return tuple(tuple(sfield.coerce(1 if i == j else 0) for j in range(dim))
                 for i in range(dim))


_live_spaces = weakref.WeakValueDictionary()  # (sfield, dim, gram) -> space


class _Interned(type):
    """Construction through the table of live spaces: a hit comes back as
    is; a miss is built, certified by __post_init__, then registered, so a
    Gram matrix that fails its certificate never enters the table."""

    def __call__(cls, sfield: StarSfield, dim: int, gram):
        gram = tuple(tuple(sfield.coerce(x) for x in row) for row in gram)
        key = (sfield, dim, gram)
        space = _live_spaces.get(key)
        if space is None:
            space = _live_spaces[key] = super().__call__(sfield, dim, gram)
        return space


@dataclass(frozen=True, eq=False)
class HermitianSpace(metaclass=_Interned):
    sfield: StarSfield
    dim: int
    gram: tuple

    def __post_init__(self):
        n = self.dim
        if n < 0:
            raise InputError("dimension must be nonnegative")
        g = self.gram
        if len(g) != n or any(len(row) != n for row in g):
            raise InputError("Gram matrix shape does not match dimension")
        for i in range(n):
            for j in range(i, n):
                if g[j][i] != star_scalar(g[i][j]):
                    raise CertificateError(
                        "Gram matrix is not Hermitian",
                        witness={"i": i, "j": j})
        _certify_ldl(g)

    @classmethod
    def create(cls, sfield: StarSfield, dim: int, gram=None) -> "HermitianSpace":
        return cls(sfield, dim, _identity_gram(sfield, dim) if gram is None
                   else gram)

    @cached_property
    def _is_identity_gram(self) -> bool:
        return self.gram == _identity_gram(self.sfield, self.dim)

    @cached_property
    def _full(self) -> "Subspace":
        # the standard basis is already in reduced echelon form
        return Subspace(self, tuple(self.basis()))

    @cached_property
    def _cells(self):
        """Nonzero Gram cells (i, j, G_ij) for the general form path."""
        return tuple((i, j, self.gram[i][j])
                     for i in range(self.dim) for j in range(self.dim)
                     if self.gram[i][j])

    def form_coords(self, u, v):
        """<u, v> on raw coordinate tuples."""
        acc = None
        if self._is_identity_gram:
            for a, b in zip(u, v):
                if a and b:
                    term = a * star_scalar(b)
                    acc = term if acc is None else acc + term
        else:
            for i, j, g in self._cells:
                a, b = u[i], v[j]
                if a and b:
                    term = a * g * star_scalar(b)
                    acc = term if acc is None else acc + term
        return self.sfield.zero() if acc is None else acc

    def vector(self, coords) -> "Vector":
        return Vector(self, tuple(self.sfield.coerce(c) for c in coords))

    def zero_vector(self) -> "Vector":
        return self.vector([0] * self.dim)

    def basis_vector(self, i: int) -> "Vector":
        return self.vector([1 if j == i else 0 for j in range(self.dim)])

    def basis(self) -> list["Vector"]:
        return [self.basis_vector(i) for i in range(self.dim)]

    def __repr__(self):
        tag = "std" if self._is_identity_gram else "gram"
        return f"HermitianSpace({self.sfield.value}, dim={self.dim}, {tag})"


def standard_space(sfield: StarSfield, dim: int) -> HermitianSpace:
    return HermitianSpace.create(sfield, dim)


@dataclass(frozen=True)
class Vector:
    space: HermitianSpace
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.space.dim:
            raise InputError("coordinate count does not match the space")

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        _same_space(self, other)
        return Vector(self.space, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        _same_space(self, other)
        return Vector(self.space, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector(self.space, tuple(-a for a in self.coords))

    def __rmul__(self, alpha) -> "Vector":
        alpha = self.space.sfield.coerce(alpha)
        return Vector(self.space, tuple(alpha * c for c in self.coords))

    def __repr__(self):
        return f"Vector({', '.join(str(c) for c in self.coords)})"


def _same_space(u, v):
    if u.space is not v.space:
        raise InputError("vectors live in different spaces")


def herm_form(u: Vector, v: Vector):
    """<u, v>: linear in u, star-twisted in v, <u, v> = star(<v, u>)."""
    _same_space(u, v)
    return u.space.form_coords(u.coords, v.coords)


def gram_schmidt(vectors) -> list[Vector]:
    """Orthogonalise while preserving the left span; the first vector is
    kept as is.  Dependent input raises DependencyError carrying a vanishing
    left combination of the inputs."""
    out: list[Vector] = []
    inv_norms = []
    for k, b in enumerate(vectors):
        if out:
            _same_space(out[0], b)
        e = b
        for o, inv_norm in zip(out, inv_norms):
            f = herm_form(b, o) * inv_norm
            if f:
                e = e - f * o
        if e.is_zero:
            # the first k inputs are independent, so exactly one vanishing
            # left combination c has c_k = 1 and zeros after k
            c, = linalg.left_kernel([list(v.coords) for v in vectors[:k + 1]])
            raise DependencyError(
                "input vectors are linearly dependent",
                witness={"combination": [str(inv_scalar(c[k]) * x) for x in c]
                         + ["0"] * (len(vectors) - k - 1), "index": k})
        out.append(e)
        inv_norms.append(inv_scalar(herm_form(e, e)))
    return out


@dataclass(frozen=True)
class Subspace:
    """A subspace held by its reduced left-row-echelon basis, which is the
    canonical representative: two subspaces are equal iff their bases are."""

    space: HermitianSpace
    basis: tuple

    def __post_init__(self):
        """Check the reduced echelon shape in O(k n): no zero rows, each
        row's first nonzero entry a 1, these pivot columns strictly
        increasing, and every other row 0 in each pivot column."""
        rows = [v.coords for v in self.basis]
        pivots = tuple(map(linalg.pivot, rows))
        if not (all(p >= 0 and r[p] == 1 for p, r in zip(pivots, rows))
                and all(a < b for a, b in zip(pivots, pivots[1:]))
                and not any(r[p] for k, r in enumerate(rows)
                            for m, p in enumerate(pivots) if m != k)):
            raise InputError("basis is not in reduced echelon form; "
                             "use Subspace.from_vectors")
        # the pivot column of each basis row, read by contains
        object.__setattr__(self, "_pivots", pivots)

    @classmethod
    def from_vectors(cls, space: HermitianSpace, vectors) -> "Subspace":
        rows = [list(v.coords) for v in vectors]
        reduced, _ = linalg.rref(rows)
        return cls(space, tuple(space.vector(r) for r in reduced))

    @classmethod
    def zero(cls, space: HermitianSpace) -> "Subspace":
        return cls(space, ())

    @classmethod
    def full(cls, space: HermitianSpace) -> "Subspace":
        """The whole space, one Subspace per interned space, held on it: its
        orthogonal basis, frame and projection are built once per space."""
        return space._full

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, u: Vector) -> bool:
        _same_space_sub(self, u)
        residue, _ = linalg.reduce_against(
            [v.coords for v in self.basis], self._pivots, u.coords)
        return not any(residue)

    @cached_property
    def orthogonal_basis(self) -> tuple:
        return tuple(gram_schmidt(list(self.basis)))

    def orthocomplement(self) -> "Subspace":
        """All u with <v, u> = 0 for every v in this subspace; computed once
        as a left kernel, using <u, v> = star(<v, u>) to put u on the left."""
        if "_perp" not in self.__dict__:
            space = self.space
            n = space.dim
            cols = [[herm_form(e, v) for v in self.basis] for e in space.basis()]
            kernel = linalg.left_kernel(cols) if self.basis else \
                [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            object.__setattr__(self, "_perp", Subspace.from_vectors(
                space, [space.vector(r) for r in kernel]))
        return self._perp

    def project(self, u: Vector) -> tuple[Vector, Vector]:
        """Split u = u_S + u_perp with u_S in S and u_perp orthogonal to S."""
        _same_space_sub(self, u)
        u_s = self.frame.to_ambient(self.frame.project_coords(u))
        return u_s, u - u_s

    @cached_property
    def frame(self) -> "SubspaceFrame":
        return SubspaceFrame.for_subspace(self)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.space!r})"


def _same_space_sub(s: Subspace, u: Vector):
    if s.space is not u.space:
        raise InputError("vector lives outside the subspace's ambient space")


@dataclass(frozen=True)
class SubspaceFrame:
    """Orthogonal coordinates on a subspace.

    The frame space is a Hermitian space of the subspace's dimension whose
    Gram matrix is the diagonal of self-products of an orthogonal basis;
    it always satisfies the anisotropy certificate, over every sfield.
    The frame carries the subspace's adjoint pair as two linear maps:
    `inclusion` from the frame space into the ambient space, and
    `projection` from the ambient space onto the frame coordinates of the
    orthogonal projection.  Every map between subspaces is built from them.
    """

    subspace: Subspace
    space: HermitianSpace
    vectors: tuple

    @classmethod
    def for_subspace(cls, s: Subspace) -> "SubspaceFrame":
        ortho = s.orthogonal_basis
        sf = s.space.sfield
        diag = tuple(
            tuple(herm_form(o, o) if i == j else sf.zero()
                  for j in range(len(ortho)))
            for i, o in enumerate(ortho))
        inner = HermitianSpace(sf, len(ortho), diag)
        return cls(s, inner, ortho)

    @cached_property
    def inclusion(self) -> "SemilinearMap":
        """Frame coordinates to ambient vectors: e_i goes to vectors[i]."""
        return SemilinearMap(self.space, self.subspace.space,
                             SfieldMorphism.identity(self.space.sfield),
                             self.vectors)

    @cached_property
    def projection(self) -> "SemilinearMap":
        """Ambient vectors to the frame coordinates of their orthogonal
        projection onto the subspace."""
        ambient = self.subspace.space
        return SemilinearMap(ambient, self.space,
                             SfieldMorphism.identity(ambient.sfield),
                             tuple(self.project_coords(e)
                                   for e in ambient.basis()))

    def to_ambient(self, v: Vector) -> Vector:
        return self.inclusion.apply(v)

    @cached_property
    def _inv_norms(self):
        # the frame space's Gram diagonal holds <o, o> for each vector o
        return tuple(inv_scalar(row[i]) for i, row in enumerate(self.space.gram))

    def project_coords(self, u: Vector) -> Vector:
        """Frame coordinates of the orthogonal projection of u."""
        coords = tuple(herm_form(u, o) * n
                       for o, n in zip(self.vectors, self._inv_norms))
        return Vector(self.space, coords)

    def from_ambient(self, u: Vector) -> Vector:
        c = self.project_coords(u)
        if self.to_ambient(c) != u:
            raise InputError("vector does not lie in the subspace")
        return c


@dataclass(frozen=True)
class SemilinearMap:
    """A map phi with phi(sum_i a_i e_i) = sum_i sigma(a_i) * images[i].

    Storing basis images keeps the twist on the input coefficients only,
    which avoids side ambiguity over the quaternions.  The map is linear
    exactly when sigma is the identity.
    """

    domain: HermitianSpace
    codomain: HermitianSpace
    sigma: SfieldMorphism
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.domain.dim:
            raise InputError("need one image per domain basis vector")
        for v in self.images:
            if v.space is not self.codomain:
                raise InputError("images must live in the codomain")
        if self.sigma.sfield is not self.domain.sfield or \
                self.domain.sfield is not self.codomain.sfield:
            raise InputError("map and morphism sfields must agree")

    @classmethod
    def identity(cls, space: HermitianSpace) -> "SemilinearMap":
        return cls(space, space, SfieldMorphism.identity(space.sfield),
                   tuple(space.basis()))

    @classmethod
    def zero(cls, domain: HermitianSpace, codomain: HermitianSpace) -> "SemilinearMap":
        return cls(domain, codomain, SfieldMorphism.identity(domain.sfield),
                   tuple(codomain.zero_vector() for _ in range(domain.dim)))

    @property
    def is_linear(self) -> bool:
        return self.sigma.is_identity

    @cached_property
    def matrix(self):
        return [list(v.coords) for v in self.images]

    @cached_property
    def rank(self) -> int:
        return linalg.rank(self.matrix)

    @cached_property
    def _unit_rows(self):
        """For images that are all unit rows e_l or zero, the l of each,
        -1 for zero; otherwise None.  Read by `compose_maps`."""
        one, units = self.codomain.sfield.one(), []
        for v in self.images:
            hits = [l for l, c in enumerate(v.coords) if c]
            if len(hits) > 1 or (hits and v.coords[hits[0]] != one):
                return None
            units.append(hits[0] if hits else -1)
        return tuple(units)

    @cached_property
    def image_gram(self) -> tuple:
        """<phi(e_i), phi(e_j)> for every pair of domain basis vectors, one
        form per unordered pair: the codomain's Gram matrix is certified
        Hermitian, so <phi(e_j), phi(e_i)> = star(<phi(e_i), phi(e_j)>)
        exactly."""
        imgs = self.images
        gram = [[None] * len(imgs) for _ in imgs]
        for i, u in enumerate(imgs):
            gram[i][i] = herm_form(u, u)
            for j in range(i + 1, len(imgs)):
                gram[i][j] = herm_form(u, imgs[j])
                gram[j][i] = star_scalar(gram[i][j])
        return tuple(map(tuple, gram))

    def apply(self, u: Vector) -> Vector:
        if u.space is not self.domain:
            raise InputError("vector is not in the map's domain")
        ident = self.sigma.is_identity
        acc = None
        for a, img in zip(u.coords, self.images):
            if not a:
                continue
            b = a if ident else self.sigma(a)
            row = img.coords
            if acc is None:
                acc = [b * c for c in row]
            else:
                for k, c in enumerate(row):
                    if c:
                        acc[k] = acc[k] + b * c
        if acc is None:
            return self.codomain.zero_vector()
        return Vector(self.codomain, tuple(acc))

    def scale(self, kappa) -> "SemilinearMap":
        """The left multiple kappa * phi; the associated morphism picks up
        an inner twist by kappa."""
        kappa = self.codomain.sfield.coerce(kappa)
        if not kappa:
            raise InputError("scale factor must be nonzero")
        return SemilinearMap(
            self.domain, self.codomain, self.sigma.twisted_by(kappa),
            tuple(kappa * v for v in self.images))

    def __repr__(self):
        return (f"SemilinearMap({self.domain!r} -> {self.codomain!r}, "
                f"sigma={self.sigma.kind})")


def compose_maps(outer: SemilinearMap, inner: SemilinearMap) -> SemilinearMap:
    """outer after inner, whose morphism is sigma_outer after sigma_inner.

    Inner sends e_j to the row x_j, and outer sends it on to
    sum_l sigma_outer(x_jl) outer(e_l): the row sigma_outer(x_j) M of the
    matrix M of outer's images.  All rows are one exact integer product
    (`perpgrid.compose_rows`) on the component planes, and each output
    coordinate is one scalar over its row's denominator.  A map whose
    images are unit or zero rows, as the projection onto the full space
    of a standard space is, selects outer's images instead
    (`SemilinearMap._unit_rows`): sigma fixes 0 and 1, so e_l goes to
    outer(e_l) and 0 to 0, and no scalar is built."""
    if inner.codomain is not outer.domain:
        raise InputError("maps do not compose")
    units = inner._unit_rows
    if units is not None:
        zero = outer.codomain.zero_vector() if -1 in units else None
        images = tuple(zero if l < 0 else outer.images[l] for l in units)
    else:
        y, dens = perpgrid.compose_rows(
            outer.domain.sfield, [v.coords for v in inner.images],
            [v.coords for v in outer.images], outer.codomain.dim, outer.sigma)
        images = vectors_from_planes(outer.codomain, y.tolist(), dens)
    return SemilinearMap(inner.domain, outer.codomain,
                         outer.sigma.compose(inner.sigma), images)


def vectors_from_planes(space: HermitianSpace, rows, dens) -> tuple:
    """The vectors y_j / d_j of space, for rows y_j given as their k
    integer component planes of n entries each and positive integers d_j:
    one scalar per coordinate, over its row's denominator."""
    if space.sfield is StarSfield.Q:
        return tuple(Vector(space, tuple(Fraction(a, d) for a in row[0]))
                     for row, d in zip(rows, dens))
    raw = space.sfield.scalar_type._raw
    return tuple(Vector(space, tuple(raw(c, d) for c in zip(*row)))
                 for row, d in zip(rows, dens))


def scalar_ratio(psi: SemilinearMap, phi: SemilinearMap):
    """The left factor kappa with psi = kappa * phi, or None.

    Equality of semilinear maps needs both the images and the twist to
    match; rescaling by kappa twists the morphism by inner conjugation,
    so both are checked.  Requires rank(phi) >= 2, below which the factor
    is not unique.
    """
    if psi.domain is not phi.domain or psi.codomain is not phi.codomain:
        raise InputError("maps must share domain and codomain")
    if phi.rank < 2:
        raise PreconditionError("scalar_ratio needs a map of rank >= 2")
    kappa = None
    for pv, sv in zip(phi.images, psi.images):
        for pc, sc in zip(pv.coords, sv.coords):
            if pc:
                kappa = sc * inv_scalar(pc)
                break
        if kappa is not None:
            break
    if kappa is None or not kappa:
        return None
    for pv, sv in zip(phi.images, psi.images):
        if kappa * pv != sv:
            return None
    if psi.sigma != phi.sigma.twisted_by(kappa):
        return None
    return kappa


def invert_semilinear(phi: SemilinearMap) -> SemilinearMap:
    """The inverse of a bijective semilinear map; its morphism is sigma^-1."""
    if phi.domain.dim != phi.codomain.dim or phi.rank != phi.domain.dim:
        raise InputError("map is not bijective")
    m_inv = linalg.matrix_inverse(phi.matrix)
    sig_inv = phi.sigma.inverse()
    images = tuple(
        phi.domain.vector([sig_inv(phi.domain.sfield.coerce(x)) for x in row])
        for row in m_inv)
    return SemilinearMap(phi.codomain, phi.domain, sig_inv, images)


def adjoint_linear(phi: SemilinearMap) -> SemilinearMap:
    """The unique linear map phi* with <phi(u), v> = <u, phi*(v)> for all
    u, v; solved exactly from the Gram matrices."""
    if not phi.is_linear:
        raise InputError("adjoint_linear requires a linear map")
    h1, h2 = phi.domain, phi.codomain
    g1 = [list(r) for r in h1.gram]
    g2 = [list(r) for r in h2.gram]
    b = linalg.matmul(phi.matrix, g2)
    x = linalg.matmul(linalg.matrix_inverse(g1), b)
    sf = h1.sfield
    images = tuple(
        h1.vector([star_scalar(sf.coerce(x[k][m])) for k in range(h1.dim)])
        for m in range(h2.dim))
    return SemilinearMap(h2, h1, SfieldMorphism.identity(sf), images)


def form_scale(phi: SemilinearMap):
    """The lam with <phi(e_i), phi(e_j)> = sigma(g_ij) * lam on every basis
    pair, read off phi.image_gram (None in dimension 0).  The first g_ij != 0
    of each column j gives a candidate; all must agree and every pair must
    scale, else InconsistencyError."""
    sig = phi.sigma
    g1 = phi.domain.gram
    img = phi.image_gram
    n = len(g1)
    lam = None
    for j in range(n):
        i = next(k for k in range(n) if g1[k][j])
        lam_j = sig(inv_scalar(g1[i][j])) * img[i][j]
        if lam is None:
            lam = lam_j
        elif lam_j != lam:
            raise InconsistencyError(
                "scale factor differs across basis vectors",
                witness={"j": j, "lam_j": str(lam_j), "lam": str(lam)})
    for i in range(n):
        for j in range(n):
            if img[i][j] != sig(g1[i][j]) * lam:
                raise InconsistencyError(
                    "form scaling fails on a basis pair; the declared twist "
                    "does not match the map", witness={"i": i, "j": j})
    return lam


def is_quasiunitary(phi: SemilinearMap):
    """Certify <phi(u), phi(v)> = sigma(<u, v>) * lam by form_scale.
    Returns (sigma, lam) or None; raises InputError on non-bijective input.

    lam is read in column 0 as sigma(g_00)^-1 * <phi(e_0), phi(e_0)>.  g_00
    is a positive rational, the first pivot of the domain's certificate;
    every supported sigma (id, conj, inner(q)) fixes the rationals; and
    phi(e_0) != 0 for a bijective map into a certified space, so its form
    is a positive rational too.  So lam is a positive rational, central
    and star-fixed.  Every supported sigma also commutes with the star
    (over HQ, (q g q^-1)* = q g* q^-1 since q* = N(q) q^-1), so the basis
    certificate extends to all vectors.  A lam that is not a positive
    rational is a bug in the program, not a failed law, and raises
    RuntimeError.
    """
    h1, h2 = phi.domain, phi.codomain
    if h1.dim != h2.dim or phi.rank != h1.dim:
        raise InputError("quasiunitarity is defined for bijective maps")
    if h1.dim == 0:
        return phi.sigma, h2.sfield.one()
    try:
        lam = form_scale(phi)
    except InconsistencyError:
        return None
    r = real_part(lam)
    if r <= 0 or lam != h2.sfield.coerce(r):
        raise RuntimeError(f"scale {lam} of a bijective map is not a "
                           f"positive rational")
    return phi.sigma, lam


def is_unitary(phi: SemilinearMap) -> bool:
    """phi is quasiunitary with the identity twist and scale factor 1, so
    it preserves the form on the nose."""
    cert = is_quasiunitary(phi)
    return cert is not None and cert[0].is_identity and \
        cert[1] == phi.codomain.sfield.one()


@dataclass(frozen=True)
class PartialIsometryDescriptor:
    """A map that restricts to a (quasi)unitary bijection between s1 and s2
    and vanishes on the orthocomplement of s1."""

    map: SemilinearMap
    s1: Subspace
    s2: Subspace
    core: SemilinearMap


def make_partial_isometry(s1: Subspace, s2: Subspace,
                          core: SemilinearMap) -> PartialIsometryDescriptor:
    """Assemble inclusion(s2) o core o projection(s1); the core acts between
    the orthogonal frame coordinates of s1 and s2."""
    if s1.dim != s2.dim:
        raise InputError("subspaces must have equal dimension")
    f1, f2 = s1.frame, s2.frame
    if core.domain is not f1.space or core.codomain is not f2.space:
        raise InputError("core must map the s1 frame space to the s2 frame space")
    if s1.dim and is_quasiunitary(core) is None:
        raise InputError("core is not quasiunitary")
    phi = compose_maps(f2.inclusion, compose_maps(core, f1.projection))
    return PartialIsometryDescriptor(phi, s1, s2, core)


def generalized_inverse(d: PartialIsometryDescriptor) -> SemilinearMap:
    """inclusion(s1) o core^-1 o projection(s2) for a linear, unitary core;
    coincides with the adjoint of the assembled map."""
    if d.s1.dim and not is_unitary(d.core):
        raise UnsupportedVariantError(
            "generalized_inverse needs a linear unitary core; "
            "transport the quasi variant first")
    return quasi_generalized_inverse(d)


def quasi_generalized_inverse(d: PartialIsometryDescriptor) -> SemilinearMap:
    """The quasi variant: inclusion(s1) o core^-1 o projection(s2)."""
    if d.s1.dim == 0:
        return SemilinearMap.zero(d.s2.space, d.s1.space)
    core_inv = invert_semilinear(d.core)
    return compose_maps(d.s1.frame.inclusion,
                        compose_maps(core_inv, d.s2.frame.projection))


def between_frames(phi: SemilinearMap, source: SubspaceFrame,
                   target: SubspaceFrame) -> SemilinearMap:
    """phi restricted to the subspace of frame source, in the coordinates of
    frame target: target.projection o phi o source.inclusion.  phi must
    send the source subspace into the target subspace, as from_ambient
    checks; its coordinates are the projection's (the form is linear in u)."""
    into = compose_maps(phi, source.inclusion)
    return SemilinearMap(source.space, target.space, into.sigma,
                         tuple(target.from_ambient(w) for w in into.images))


def random_vector(space: HermitianSpace, rng, bound: int = 10) -> Vector:
    return Vector(space, tuple(space.sfield.random_scalar(rng, bound)
                               for _ in range(space.dim)))


def random_nonzero_vector(space: HermitianSpace, rng, bound: int = 10) -> Vector:
    if space.dim == 0:
        raise InputError("the zero space has no nonzero vectors")
    while True:
        v = random_vector(space, rng, bound)
        if not v.is_zero:
            return v


def random_subspace(space: HermitianSpace, dim: int, rng) -> Subspace:
    """A random subspace of the exact requested dimension."""
    if dim > space.dim:
        raise InputError("requested dimension exceeds the space")
    while True:
        vecs = [random_vector(space, rng) for _ in range(dim)]
        s = Subspace.from_vectors(space, vecs)
        if s.dim == dim:
            return s
