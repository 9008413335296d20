"""Rays of a Hermitian space and the orthogonality structure they carry.

A ray is an at-most-one-dimensional left subspace: either the zero element
or a line with a canonical representative whose first nonzero coordinate is
1 (achieved by left multiplication, so it is well defined for left spans).
A `Ray` holds that representative as one primitive integer row: the
canonical row times the lcm of its denominators, its k component planes
flattened into k * n ints.  The row is unique for the ray, so ray maps
and grids run on ints, and equality and hashing on the row and the
identity of the space (equal spaces are one object).  The representative
as a Vector of scalars (`rep`, the text of `repr` and of `ray_payload`)
is built from the row only on first use, one scalar and one gcd per
coordinate.  Orthogonality of rays is orthogonality of
representatives, with the zero element orthogonal to everything.

The ray universe of a space over any of our sfields is infinite, so the
universally quantified checks in this module run over ProbeSets: finite,
reproducible, seed-determined families of rays that always contain the zero
ray and all standard basis rays.  Probe sets and probes inside a
subspace (`probe_rays_in`) are drawn by one drawer as integer
coefficient rows, with no vector arithmetic, and canonicalized in one
batch: a probe set's rows directly, a subspace's through the matrix of
its basis.  Every other family of rays the package builds is
canonicalized in one `rays_of` batch.  A ray set closes to the exact
span of its rays (`perp_closure`).

Ray maps induced by a semilinear map are evaluated by the batched exact
kernel of `perpgrid`: `RayMap.apply_many` multiplies the rays' rows with
one integer matrix that holds the map's matrix and its twist (a k x k
integer matrix on a scalar's components) and canonicalizes every image
row with one gcd, building no scalar object.  The product is exact on
int64 limbs: the map's matrix is split once into signed s-bit limbs,
with c K (2**s - 1)**2 <= 2**63 - 1 for K = k n contracted terms and c = 2
limb products summed in int64, and the rays' rows are split the same way
batch by batch.  The rays are the ones `ray_of(phi.apply(u))` gives,
which the tests keep as the reference, as they keep the product on
Python ints for the limbs.  On the `wigner` benchmark, 57 Wigner round
trips on 256-probe sets, the limb product took the median round from
1.82 s to 1.49 s (seed 401, ten alternating pairs, all won; 2-core host,
Python 3.11, `BENCH_18.json`).  An oracle map is a batch function on
rays, so both kinds of map are evaluated the same way: the new rays of a
batch are mapped in one call, and every map memoizes its images.

An induced map's images need not be built to be gridded.
`RayMap.image_grid` decides f(x_i) perp y_j from the rays' rows and the
map's matrix (`perpgrid.row_grid`), canonicalizing no image, and an
oracle map grids its images.  `verify_adjoint_pair`, the paper's
biconditional f(x) perp y iff x perp g(y), takes both sides so, the
right one as g's grid transposed, on rows that `RayMap.grid_rows` loads
once per probe family, and fills no memo of an induced map: a `wigner`
benchmark round runs `image_rows` 162 times, not 222.

Nor need an induced map's images be built to be closed.
`RayMap.image_closure` closes the rays in the domain,
S = perp_closure(rays), and spans phi's images of S's basis, since
phi(span X) = span phi(X) for a bijective twist.  A probe set holds every
basis ray, so S is the full space, read off n lookups with no span, and
no probe image is built.  An oracle map closes its images.

Nor need two induced maps' images be built to be compared.
`RayMap.disagreements` reads every ray's row x off x (K - K'), the
difference of the two maps' matrices, through `perpgrid.zero_images`:
x K = x K' makes the two images one ray, and only the other rays are
mapped and canonicalized.  The factorization check of a partial
orthometry compares f with f after the projection onto (ker f)-perp;
f kills ker f, so the two maps have one matrix, and a seed-5 `partial`
benchmark round maps 390 image rows, not 9 588 (in-process spy).

Ray maps compose as the maps that induce them do: P(psi) o P(pi) =
P(psi o pi).  `compose_ray_maps` builds the composite of two induced
maps as one induced map, so a batch goes through one matrix and is
canonicalized once, and no image row is fed back into the kernel.  A
composite with an oracle chains the two batches, since an oracle is
evaluated only on rays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import InputError
from .hermspace import (
    HermitianSpace,
    SemilinearMap,
    Subspace,
    Vector,
    compose_maps,
    herm_form,
    scalar_ratio,
    vectors_from_planes,
)
from .perpgrid import (
    PRIME,
    _int_rows,
    _limb_residues,
    _primitive_rows,
    combination_rows,
    image_rows,
    map_matrix,
    matrix_limbs,
    ray_rows,
    row_grid,
    zero_images,
)
from .reports import ReportRecord, law
from .scalars import inv_scalar

MAX_WITNESSES = 5  # violating pairs shown by a failed verify_adjoint_pair


class Ray:
    """A ray of a space, held as its primitive integer row.

    The row is the canonical representative (first nonzero coordinate 1)
    times the lcm of its denominators: the k component planes of the
    coordinates, each of length n, one after the other, as one tuple of
    k * n ints.  It is unique for the ray, so equality and hashing run on
    the row and the space's identity; the zero ray's row is all zeros.
    Build rays with `rays_of`, `ray_of` or `Ray.zero`.  `rep`, the
    representative as a Vector of scalars, is built from the row on first
    use, one scalar per coordinate with one gcd each, and then kept."""

    __slots__ = ("space", "row", "_hash", "_rep")

    def __init__(self, space: HermitianSpace, row: tuple):
        self.space = space
        self.row = row
        self._hash = None
        self._rep = None

    def __eq__(self, other):
        if not isinstance(other, Ray):
            return NotImplemented
        return self.row == other.row and self.space is other.space

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.space, self.row))
        return h

    @classmethod
    def zero(cls, space: HermitianSpace) -> "Ray":
        return cls(space, (0,) * _row_width(space))

    @property
    def is_zero(self) -> bool:
        return not any(self.row)

    @property
    def rep(self) -> Vector | None:
        """The canonical representative; None for the zero ray."""
        if self._rep is None and not self.is_zero:
            space, row = self.space, self.row
            n = space.dim
            den = next(x for x in row[:n] if x)  # the pivot's real part
            planes = [row[c:c + n] for c in range(0, len(row), n)]
            self._rep, = vectors_from_planes(space, [planes], [den])
        return self._rep

    def __repr__(self):
        if self.is_zero:
            return "Ray(ZERO)"
        return f"Ray({', '.join(str(c) for c in self.rep.coords)})"


def rays_of(space: HermitianSpace, vectors) -> list[Ray]:
    """The rays spanned by vectors of space, canonicalized in one batch."""
    vectors = list(vectors)
    if not vectors:
        return []
    if any(v.space is not space for v in vectors):
        raise InputError("vector lives in a different space")
    rows = ray_rows(space.sfield, [v.coords for v in vectors], space.dim)
    return [Ray(space, row) for row in rows]


def ray_of(u: Vector) -> Ray:
    """The ray spanned by u, canonically represented."""
    return rays_of(u.space, [u])[0]


def ray_perp(x: Ray, y: Ray) -> bool:
    if x.space is not y.space:
        raise InputError("rays live in different spaces")
    if x.is_zero or y.is_zero:
        return True
    return not herm_form(x.rep, y.rep)


def perp_closure(rays) -> Subspace:
    """The span of the representatives, which in a finite-dimensional
    anisotropic space equals the double orthocomplement of the ray set: the
    exact echelon span of the distinct proper rays.  When the rays hold
    every standard basis ray, as a probe set does, the span is the full
    space, read off n lookups of the basis rays' rows with no span taken."""
    rays = list(rays)
    if not rays:
        raise InputError("perp_closure needs at least one ray to fix the space")
    space = rays[0].space
    if any(r.space is not space for r in rays):
        raise InputError("rays live in different spaces")
    proper = {r.row: r for r in rays if not r.is_zero}
    width = _row_width(space)
    if all(tuple(int(j == i) for j in range(width)) in proper
           for i in range(space.dim)):
        return Subspace.full(space)
    return Subspace.from_vectors(space, [r.rep for r in proper.values()])


@dataclass(frozen=True)
class RayMap:
    """A total map on rays: either induced by a semilinear map or supplied
    as an opaque oracle.  An oracle is a batch function from a list of
    rays to the list of their images; it must send zero to zero and be
    pure, since images are memoized.  `apply_many` is the one evaluation
    path: the new rays of a batch go through the batched kernel of
    `perpgrid` or through one oracle call."""

    domain: HermitianSpace
    codomain: HermitianSpace
    mapping: SemilinearMap | None = None
    oracle: Callable[[list[Ray]], list[Ray]] | None = None

    def __post_init__(self):
        if (self.mapping is None) == (self.oracle is None):
            raise InputError("provide exactly one of mapping and oracle")
        if self.mapping is not None and (
                self.mapping.domain is not self.domain
                or self.mapping.codomain is not self.codomain):
            raise InputError("underlying map does not match the stated spaces")
        # verification pipelines hit the same probe rays repeatedly
        object.__setattr__(self, "_memo", {})

    @property
    def is_induced(self) -> bool:
        return self.mapping is not None

    def __call__(self, x: Ray) -> Ray:
        return self.apply_many([x])[0]

    def apply_many(self, rays) -> list[Ray]:
        """The images of rays, in order.  The rays not yet memoized, each
        once, are mapped in one batch."""
        rays = list(rays)
        memo = self._memo
        todo = list(dict.fromkeys(x for x in rays if x not in memo))
        if todo:
            if any(x.space is not self.domain for x in todo):
                raise InputError("ray is not in the map's domain")
            images = list((self.oracle or self._induced)(todo))
            if len(images) != len(todo):
                raise InputError("oracle returned the wrong number of rays")
            if any(y.space is not self.codomain for y in images):
                raise InputError("oracle returned a ray of the wrong space")
            memo.update(zip(todo, images))
        return [memo[x] for x in rays]

    def grid_rows(self, xs, ys):
        """The rows of rays xs of the domain and ys of the codomain, each
        family loaded once as one integer array (`perpgrid._int_rows`), and
        once in all when ys is xs: the rows `image_grid` reads, for every
        grid of the same rays."""
        if any(x.space is not self.domain for x in xs):
            raise InputError("ray is not in the map's domain")
        if any(y.space is not self.codomain for y in ys):
            raise InputError("ray is not in the grid's space")
        x_rows = _int_rows([x.row for x in xs], _row_width(self.domain))
        if ys is xs:
            return x_rows, x_rows
        return x_rows, _int_rows([y.row for y in ys],
                                 _row_width(self.codomain))

    def image_grid(self, xs, ys, rows):
        """The exact grid of f(x_i) perp y_j for rays xs of the domain and
        ys of the codomain, whose rows are rows = `grid_rows(xs, ys)`.  An
        induced map grids both through its matrix (`perpgrid.row_grid`),
        building no image ray and filling no memo; an oracle grids the
        rows of its images `apply_many(xs)` against those of ys."""
        x_rows, y_rows = rows
        if not self.is_induced:
            return row_grid(self.codomain,
                            [y.row for y in self.apply_many(xs)], y_rows)
        return row_grid(self.codomain, x_rows, y_rows, self._int_matrix,
                        self._residues)

    def kills(self, rays) -> list[bool]:
        """Whether f(x) is the zero ray, for each ray x of the domain, in
        order.  An induced map P(phi) reads every ray off x K, its row
        times the map's matrix (`perpgrid.zero_images`), building no
        image ray and filling no memo: a row whose image is nonzero mod p
        is alive, and only the other nonzero rows take the exact limb
        product, so an injective map multiplies no row exactly; an oracle
        reads `apply_many`.  This is exact: x K is a positive rational
        multiple of phi(x) (`perpgrid.map_matrix`), and the row x is c u
        for the canonical representative u and a positive integer c, so
        phi(x) = sigma(c) phi(u) is zero exactly when phi(u) is, sigma
        being bijective."""
        rays = list(rays)
        if any(x.space is not self.domain for x in rays):
            raise InputError("ray is not in the map's domain")
        if not self.is_induced:
            return [y.is_zero for y in self.apply_many(rays)]
        return zero_images(self._int_matrix, [x.row for x in rays],
                           residues=self._residues)

    def disagreements(self, other: "RayMap", rays) -> list[int]:
        """The indices i with self(rays[i]) != other(rays[i]), in order,
        for rays of the maps' common domain.

        For two induced maps P(phi) and P(psi), with `map_matrix`es K and
        K', every ray's row x is first read off x D, D = K - K'
        (`perpgrid.zero_images`, which decides x D = 0 exactly).  A row
        with x D = 0 has x K = x K'.  x K is a positive rational multiple
        of phi(x) and x K' one of psi(x), so the two images are the same
        ray, or both are zero, and x is no disagreement.  Only the other
        rays go through both maps' `apply_many` and are compared as
        canonical rays, since their images may still agree: a
        non-central left multiple over HQ has another matrix.  With an
        oracle on either side every ray takes that path."""
        if (other.domain is not self.domain
                or other.codomain is not self.codomain):
            raise InputError("ray maps have different domains or codomains")
        rays = list(rays)
        if any(x.space is not self.domain for x in rays):
            raise InputError("ray is not in the map's domain")
        todo = range(len(rays))
        if self.is_induced and other.is_induced:
            same = zero_images(matrix_limbs(self._matrix - other._matrix),
                               [x.row for x in rays])
            todo = [i for i, s in enumerate(same) if not s]
        xs = [rays[i] for i in todo]
        return [i for i, y, z in zip(todo, self.apply_many(xs),
                                     other.apply_many(xs)) if y != z]

    def image_closure(self, rays) -> Subspace:
        """The closure of the images f(x) of rays x of the domain, the
        subspace `perp_closure(apply_many(rays))`.  An induced map P(phi)
        closes the rays themselves, S = perp_closure(rays), and returns
        the span of phi's images of S's basis, building no image ray and
        filling no memo: a probe set holds every basis ray, so S is the
        full space, read off the basis rays.  This is
        exact: span phi(X) = phi(span X) for the representatives X of the
        rays, since phi(sum a_i u_i) = sum sigma(a_i) phi(u_i) and sigma
        is bijective, so phi(span X) is a subspace holding phi(X) and held
        in its span.  An oracle closes `apply_many(rays)`."""
        rays = list(rays)
        if any(x.space is not self.domain for x in rays):
            raise InputError("ray is not in the map's domain")
        if not self.is_induced:
            return perp_closure(self.apply_many(rays))
        phi = self.mapping
        return Subspace.from_vectors(
            self.codomain, [phi.apply(b) for b in perp_closure(rays).basis])

    def is_induced_by(self, phi: SemilinearMap) -> bool:
        """Whether this map is P(psi) for psi = kappa phi with kappa != 0
        (`hermspace.scalar_ratio`), which makes P(phi) equal to it on every
        ray, not only on probes: psi(x) = kappa phi(x) for every x, and a
        nonzero left factor changes no ray.  False for an oracle, and for
        phi of rank below 2, where the factor is not unique; a caller then
        compares rays."""
        if not self.is_induced or phi.rank < 2:
            return False
        return scalar_ratio(self.mapping, phi) is not None

    # the map's matrix K, its limbs and K mod PRIME, each built once per
    # map and freed with it
    @cached_property
    def _matrix(self):
        return map_matrix(self.mapping)

    @cached_property
    def _int_matrix(self):
        return matrix_limbs(self._matrix)

    @cached_property
    def _residues(self):
        return _limb_residues(self._int_matrix, PRIME)

    def _induced(self, rays) -> list[Ray]:
        """The images of rays under the induced map, by one batch."""
        cod = self.codomain
        rows = image_rows(cod.sfield, self._int_matrix, [x.row for x in rays])
        return [Ray(cod, row) for row in rows]


def compose_ray_maps(outer: RayMap, inner: RayMap) -> RayMap:
    """outer after inner, as one ray map.

    When both maps are induced, P(psi) o P(pi) = P(psi o pi), and the
    composite is induced by compose_maps(psi, pi): one batch through one
    matrix in place of a batch per map, with the same rays.  Let u span
    a ray x.  P(pi) holds the image ray by a vector r = c pi(u), c a
    nonzero scalar (the canonical representative), or r = 0 when
    pi(u) = 0.  Then psi(r) = sigma(c) psi(pi(u)) with sigma(c) nonzero,
    so P(psi) sends it to the ray of psi(pi(u)), which is
    P(psi o pi)(x); a zero stays zero.  The composite's matrix is that
    of psi o pi, which `RayMap.disagreements` compares with another map's
    matrix row by row.  An oracle is evaluated only on rays, so a
    composite with an oracle is the oracle that chains the two
    batches."""
    if inner.codomain is not outer.domain:
        raise InputError("ray maps do not compose")
    if outer.is_induced and inner.is_induced:
        return RayMap(inner.domain, outer.codomain,
                      mapping=compose_maps(outer.mapping, inner.mapping))
    return RayMap(inner.domain, outer.codomain,
                  oracle=lambda rays: outer.apply_many(inner.apply_many(rays)))


@dataclass(frozen=True)
class ProbeSet:
    """A reproducible finite family of rays: the zero ray, every standard
    basis ray, then pseudo-random proper rays drawn from the seed."""

    space: HermitianSpace
    seed: int
    count: int
    rays: tuple = field(compare=False)

    @classmethod
    def generate(cls, space: HermitianSpace, seed: int = 0,
                 count: int = 256) -> "ProbeSet":
        return _generate_probes(space, seed, count)

    def __iter__(self):
        return iter(self.rays)

    def __len__(self):
        return len(self.rays)


@lru_cache(maxsize=256)
def _generate_probes(space: HermitianSpace, seed: int, count: int) -> ProbeSet:
    """The zero ray, then the rows of `_probe_rows` on the standard basis,
    which are coordinate rows already: canonicalized in one batch."""
    rays = [Ray.zero(space)]
    if space.dim:
        sf = space.sfield
        rng = random.Random(f"probes:{sf.value}:{space.dim}:{seed}")
        rays += [Ray(space, row) for row in
                 _primitive_rows(sf, _probe_rows(sf, space.dim, rng, count))]
    return ProbeSet(space, seed, count, tuple(rays))


def _probe_rows(sfield, s: int, rng, count: int):
    """The coefficient rows of a probe family on s basis vectors, as
    (rows, k, s) integer planes: the s unit rows, then random rows until
    the family, with the zero ray, holds count rays.

    Each coefficient takes the draws of `StarSfield.random_scalar`, a
    numerator and a denominator per component, in the basis's order, but
    as integers: a draw is one integer row, its components scaled by the
    lcm of its denominators, a positive integer that changes no ray.  The
    basis is independent, so a combination is zero exactly when all its
    numerators are, and such a draw is drawn again."""
    k = len(sfield.basis())
    # the unit rows first, real component only
    rows = [[[int(i == j and c == 0) for j in range(s)] for c in range(k)]
            for i in range(s)]
    while len(rows) + 1 < count:
        nums = [0]
        while not any(nums):  # random_scalar's draws at its bound 10
            draws = [(rng.randint(-10, 10), rng.randint(1, 10))
                     for _ in range(s * k)]
            nums = [a for a, _ in draws]
        lcm = math.lcm(*[d for _, d in draws])
        # draws run coefficient by coefficient, component by component
        rows.append([[draws[i * k + c][0] * (lcm // draws[i * k + c][1])
                      for i in range(s)] for c in range(k)])
    return np.array(rows, dtype=object)


def probe_rays_in(subspace: Subspace, seed: int = 0, count: int = 32) -> list[Ray]:
    """Probe rays inside a subspace: the zero ray, its basis rays, then
    random left combinations sum_i c_i b_i of its basis b, reproducible
    from the seed: count rays in all, but never fewer than the zero and
    basis rays, and the zero ray alone in the zero subspace.

    The coefficient rows are `_probe_rows`' draws, and all of them are
    canonicalized in one batch through the integer matrix of the
    embedding e_i -> b_i (`perpgrid.combination_rows`), with no scalar
    arithmetic."""
    space, s = subspace.space, subspace.dim
    if not s:
        return [Ray.zero(space)]
    sf = space.sfield
    x = _probe_rows(sf, s, random.Random(f"subprobes:{sf.value}:{s}:{seed}"),
                    count).transpose(1, 0, 2)
    basis = [v.coords for v in subspace.basis]
    return [Ray.zero(space)] + [Ray(space, row) for row in
                                combination_rows(sf, x, basis, space.dim)]


def ray_grid(space: HermitianSpace, rays_a, rays_b):
    """Exact orthogonality grid over two ray families of space."""
    rays_a, rays_b = list(rays_a), list(rays_b)
    if any(r.space is not space for r in rays_a + rays_b):
        raise InputError("ray is not in the grid's space")
    return row_grid(space, [r.row for r in rays_a], [r.row for r in rays_b])


def check_axioms(space: HermitianSpace, probes: ProbeSet) -> list[ReportRecord]:
    """Verify the orthoset axioms on all probe pairs: symmetry, x perp x
    only for the zero element, and zero orthogonal to everything."""
    rays = list(probes)
    grid = ray_grid(space, rays, rays)
    is_zero = np.array([r.is_zero for r in rays], dtype=bool)

    # the first witness in row-major order, as a scan of the cells finds it
    asymmetric = np.argwhere(np.triu(grid != grid.T, 1))
    witness = None
    if len(asymmetric):
        i, j = asymmetric[0]
        witness = {"x": ray_payload(rays[i]), "y": ray_payload(rays[j])}
    records = [law("axioms/symmetry", witness)]

    for check, bad in (
            ("axioms/self-orthogonal-iff-zero", np.diag(grid) != is_zero),
            ("axioms/zero-orthogonal-to-all",
             is_zero & ~(grid.all(axis=1) & grid.all(axis=0)))):
        hits = np.flatnonzero(bad)
        witness = {"x": ray_payload(rays[hits[0]])} if len(hits) else None
        records.append(law(check, witness))
    return records


def linearity_witness(x: Ray, y: Ray) -> Ray:
    """For distinct proper rays x, y: a proper z spanning the same plane
    with x such that exactly one of y, z is orthogonal to x.  If x perp y,
    z is the sum of representatives; otherwise z is the component of y
    orthogonal to x."""
    if x.is_zero or y.is_zero:
        raise InputError("witness construction needs proper rays")
    if x.space is not y.space:
        raise InputError("rays live in different spaces")
    if x == y:
        raise InputError("witness construction needs distinct rays")
    if ray_perp(x, y):
        return ray_of(x.rep + y.rep)
    return separating_ray(x, y)


def dacey_witness(s: Subspace, x: Ray) -> tuple[Ray, Ray]:
    """Rays y in P(S) and z in P(S-perp) with x in the closure of {y, z};
    either may be zero when the corresponding projection vanishes."""
    if x.is_zero:
        raise InputError("dacey witness needs a proper ray")
    u_s, u_perp = s.project(x.rep)
    return ray_of(u_s), ray_of(u_perp)


def separating_ray(x: Ray, y: Ray) -> Ray:
    """A ray orthogonal to exactly one of the distinct proper rays x, y: the
    ray of y - <y, x> <x, x>^-1 x, y's projection onto x's complement."""
    if x.is_zero or y.is_zero or x == y:
        raise InputError("separation needs distinct proper rays")
    # distinct canonical rays span distinct lines, so the part is nonzero
    u, v = x.rep, y.rep
    return ray_of(v - (herm_form(v, u) * inv_scalar(herm_form(u, u))) * u)


def verify_adjoint_pair(f: RayMap, g: RayMap, probes1,
                        probes2) -> list[ReportRecord]:
    """Check f(x) perp y iff x perp g(y) over all probe pairs; a failure
    shows the first MAX_WITNESSES violating pairs in row-major order.

    Both sides are `RayMap.image_grid`s, so an induced map is read
    through its matrix and no image ray of it is built.  The right side
    is g's grid of g(y) perp x, transposed: <u, v> = 0 exactly when
    <v, u> = star(<u, v>) = 0.  Each probe family is loaded once and read
    by both grids, and once in all when probes2 is probes1."""
    if g.domain is not f.codomain or g.codomain is not f.domain:
        raise InputError("g does not map f's codomain to f's domain")
    xs = list(probes1)
    ys = xs if probes2 is probes1 else list(probes2)
    rows = f.grid_rows(xs, ys)
    left = f.image_grid(xs, ys, rows)
    right = g.image_grid(ys, xs, rows[::-1]).T
    differ = left != right
    violations = int(differ.sum())
    shown = np.argwhere(differ)[:MAX_WITNESSES] if violations else ()
    failures = [{"x": ray_payload(xs[i]), "y": ray_payload(ys[j]),
                 "f(x) perp y": bool(left[i, j]),
                 "x perp g(y)": bool(right[i, j])} for i, j in shown]
    rec = law("adjoint-pair/biconditional",
              {"first": failures[0], "shown": failures} if failures else None)
    rec.detail = {"pairs": len(xs) * len(ys), "violations": violations}
    return [rec]


def _row_width(space: HermitianSpace) -> int:
    """The length of a ray's row: k integer component planes of n
    entries."""
    return len(space.sfield.basis()) * space.dim


def ray_payload(r: Ray):
    if r.is_zero:
        return "zero"
    return [str(c) for c in r.rep.coords]
