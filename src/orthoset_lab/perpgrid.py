"""Batched exact orthogonality tests.

The property suites decide `<u, v> = 0` for hundreds of thousands of vector
pairs.  Doing that with exact scalar arithmetic pair by pair is the hot loop
of the whole package, so grids are computed in two exact stages:

1. a residue screen: component 0 of every pairwise form (its real part,
   up to a positive factor) is evaluated mod a fixed prime with numpy
   int64 matrix products.  If that component is nonzero mod p it is a
   nonzero integer, so the form is nonzero, full stop; no pair can be
   wrongly declared orthogonal here.  A form with real part 0, such as
   <(1, 1), (1, -1 - i)> = i, passes as a candidate and costs one exact
   check, never a wrong answer.
2. exact confirmation of the candidates in all k components, so no pair
   can be wrongly declared orthogonal either.  A row whose exact integer
   planes are all zero is orthogonal to every row, since <0, v> = <u, 0>
   = 0, and its pairs skip this stage; it is read off the exact planes,
   not the residues, because a nonzero row can vanish mod p.  Every probe
   set holds the zero ray, so this spares 2 * 256 - 1 confirmations per
   probe x probe grid.

Confirmation (`_confirm`) is a multi-modular zero test where candidates
are dense.  On the R distinct rows and C distinct columns of the N
candidates every form component is an integer below 2**h in magnitude,
h = bits(U) + bits(G) + bits(V) + bitlen(k**2 n**2) (`_moduli`).  The
form is evaluated on the whole R x C block in int64, in all k components,
mod each of the fewest leading `PRIMES` whose product P exceeds 2**h; a
component that vanishes mod all of these distinct primes is a multiple of
P smaller than P in magnitude, hence 0 (von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 5; no CRT reconstruction is needed).  The
reduction costs about r (R + C) k n Python-int remainders for r primes
and the pairs on Python ints about N k**2 n multiply-adds, so the
residues are taken when r (R + C) < k N and the table holds r primes,
and Python ints otherwise (`_exact_zero`, which applies G to the side
with fewer distinct rows).  Dense S x S-perp blocks take the residues;
a closure's rays against one to three S-perp rows, with heights of
hundreds of bits, take Python ints.  Per seed-613 benchmark round
(2-core host, Python 3.11, `BENCH_19.json`), 28 227 of `grid`'s 28 439
candidates took the residues and confirmation fell from about 0.105 s to
0.016 s; all 13 260 of `partial`'s took Python ints, 0.094 s before and
0.059 s after.  Over ten alternating pairs the median `grid` round went
from 0.306 s to 0.161 s and the `partial` round from 1.77 s to 1.71 s.

Both stages run one form kernel.  A scalar is a vector of k rational
components over the sfield's basis (`StarSfield.basis()`: 1; 1, i; or
1, i, j, k), and the kernel reads the sfield's product off the scalar
classes once, as a table of basis products e_a * e_b = sign * e_c.
<u, v> = sum_ij u_i g_ij star(v_j) is then W = U G followed by
F = W star(V)^T, each a signed sum of k component matrix products per
output component; the screen needs W in all k components but only
component 0 of F, k matrix products in place of k * k.  Rows are
integerised by the lcm of their denominators and the Gram matrix by one
common lcm; positive rational factors never change whether a form
vanishes.

Residues lie in [0, p), so one output component of a chunk of `step`
contracted columns sums k * step products of magnitude at most (p - 1)**2.
`step` is the largest length that keeps this inside int64 (128 for Q, 64
for Qi, 32 for HQ, for every prime of `PRIMES`); longer contractions are
reduced mod p after every chunk (delayed reduction, as in Dumas, Giorgi
and Pernet, FFLAS-FFPACK, 2008), so every dimension takes the screen and
the multi-modular confirmation.  Setting ORTHOSET_LAB_EXACT_GRID=1 skips
the screen and confirms every pair on Python ints, zero rows included;
`benchmarks/grid_bench.py` compares the two paths.

The same planes carry rays and induced ray maps.  A ray is held as its
primitive integer row (`orthoset.Ray`): an integer row y of the ray with
pivot P, its first nonzero coordinate, becomes star(P) y, which is N(P)
times the canonical row P^-1 y, divided by the gcd of its entries.  One
canonicalizer, `_primitive_rows`, serves coordinate rows (`ray_rows`)
and map images (`image_rows`), one gcd per row and no scalar object.  A
semilinear map sends the row x to sigma(x) M.  On a scalar's components
the twist sigma is a k x k integer matrix: the identity for id, a negated
i-plane for conjugation, and a -> q a star(q) on q's integer components
for inner(q), which is q a q^-1 times the positive rational N(q).  With
the product table it folds into one (k n) x (k m) integer matrix per map
(`map_matrix`), so a batch of rays' rows is mapped by one matrix product
and canonicalized in one call.  Grids of rays (`row_grid`) take the same
rows as planes without re-integerizing them.

That product is exact on int64 limbs.  A map's matrix shares the lcm of
all its denominators and easily passes 2**63, and so can rows fed back
from images, so neither fits a machine word in general.  Each entry x, of
the matrix and of the rows, is written as signed s-bit limbs,
x = sum_l x_l 2**(s l) with |x_l| < 2**s (`_limbs`).  The int64 products
x_i @ M_j of equal level i + j are summed, and the levels are recombined
on Python ints by Horner's rule in 2**s.  A limb product contracts
K = k n terms, so its entries are at most K (2**s - 1)**2; s is the
largest width with c K (2**s - 1)**2 <= 2**63 - 1 (`_limb_bits`), and c = 2
products of a level sum in int64 (s = 31 for K = 1, 30 up to K = 4, 29 up
to 16 and 28 up to 40, HQ at n = 10).  Further products of a level are
added as Python ints.  A map's matrix is split once (`matrix_limbs`,
cached on its `RayMap` and freed with it); rows that fit in int64 are
loaded in C, and rows past it, or at -2**63, whose abs wraps, are split
from Python ints.  The canonicalizer stays on Python ints, since
star(P) y in limbs would need about five recombined levels per entry.
On one seed-401 `wigner` round, timed by a spy (2-core host, Python
3.11, `BENCH_18.json`), `image_rows` took 0.79 s before and 0.46 s after,
0.33 s of it in the canonicalizer; over ten alternating benchmark pairs
the median `wigner` round went from 1.82 s to 1.49 s and the `partial`
round from 1.85 s to 1.81 s.

Closures of ray sets (`orthoset.perp_closure`) follow the grid's pattern:
mod p chooses, exact arithmetic decides.  `pivot_rows` reduces the rays'
real left-multiplication rows mod PRIME in int64 and picks the rays that
hold a pivot, at most k * n of them.  A vanishing minor mod p can only
hide a ray from the pick, never invent independence, and the picked rays
are exact rays, so their exact echelon span S lies inside the closure.
Every space is positive definite, so S = S-perp-perp: one exact grid of
all the rays against a basis of S-perp shows whether each ray lies in S,
and a ray outside it joins the pick.  No equality is decided mod p.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

from .starfields import StarSfield

PRIME = 268435399  # largest prime below 2**28
# the 64 largest primes below 2**28, PRIME first: the moduli of exact
# confirmation, whose product passes 2**1791
PRIMES = (
    268435399, 268435367, 268435361, 268435337, 268435331, 268435313,
    268435291, 268435273, 268435243, 268435183, 268435171, 268435157,
    268435147, 268435133, 268435129, 268435121, 268435109, 268435091,
    268435067, 268435043, 268435039, 268435033, 268435019, 268435009,
    268435007, 268434997, 268434979, 268434977, 268434961, 268434949,
    268434941, 268434937, 268434857, 268434841, 268434827, 268434821,
    268434787, 268434781, 268434779, 268434773, 268434731, 268434721,
    268434713, 268434707, 268434703, 268434697, 268434659, 268434623,
    268434619, 268434581, 268434577, 268434563, 268434557, 268434547,
    268434511, 268434499, 268434479, 268434461, 268434401, 268434391,
    268434389, 268434373, 268434289, 268434281,
)
_INT64_MAX = 2 ** 63 - 1
_LIMB_SUMS = 2  # c, the limb products of one level summed in int64


def _use_exact_path() -> bool:
    return os.environ.get("ORTHOSET_LAB_EXACT_GRID", "") not in ("", "0")


@lru_cache(maxsize=None)
def _tables(sfield: StarSfield):
    """The products e_a * e_b and e_a * star(e_b) of basis scalars, each
    listing per output component c the (a, b, sign) with
    e_a * e_b (or e_a * star(e_b)) = sign * e_c."""
    basis = sfield.basis()

    def table(twist):
        terms = [[] for _ in basis]
        for a, ea in enumerate(basis):
            for b, eb in enumerate(basis):
                prod = ea * twist(eb)
                for c, ec in enumerate(basis):
                    if prod in (ec, -ec):
                        terms[c].append((a, b, 1 if prod == ec else -1))
        return tuple(map(tuple, terms))
    return table(lambda e: e), table(sfield.star)


def _planes(sfield: StarSfield, rows, n: int):
    """A (k, len(rows), n) object array of the rows' integer component
    planes, each row scaled by the lcm of its denominators."""
    flat = [x for row in rows for x in row]
    if sfield is StarSfield.Q:
        comps = [[x.numerator for x in flat]]
        dens = [x.denominator for x in flat]
    else:
        comps = list(zip(*[x.component_ints() for x in flat]))
        dens = [x.denominator_int() for x in flat]
    den = np.array(dens, dtype=object).reshape(len(rows), n)
    scale = np.lcm.reduce(den, axis=1)[:, None] // den
    return np.array(comps, dtype=object).reshape(-1, len(rows), n) * scale


def _matrix_planes(sfield: StarSfield, matrix, n: int, m: int):
    """An n x m matrix as (k, n, m) integer planes under one common scale."""
    flat = [[x for row in matrix for x in row]]
    return _planes(sfield, flat, n * m).reshape(-1, n, m)


@lru_cache(maxsize=None)
def _int_gram(space):
    """The full Gram matrix as (k, n, n) integer planes under one common
    scale."""
    n = space.dim
    gram = _matrix_planes(space.sfield, space.gram, n, n)
    gram.flags.writeable = False  # shared
    return gram


def _combine(terms, x, y, dot):
    """sum of sign * dot(x[a], y[b]) over one output component's terms."""
    acc = None
    for a, b, sign in terms:
        t = dot(x[a], y[b])
        if acc is None:
            acc = t if sign > 0 else -t
        elif sign > 0:
            acc += t
        else:
            acc -= t
    return acc


def _residues(terms, x, y, p: int):
    """_combine with matrix products on int64 residues, mod the prime p <
    2**28.  A chunk of `step` contracted columns sums len(terms) * step
    products below p**2, which int64 holds; each chunk is reduced before
    the next."""
    step = _INT64_MAX // (len(terms) * (p - 1) ** 2)
    acc = None
    for lo in range(0, x.shape[-1], step):
        part = _combine(terms, x[..., lo:lo + step], y[:, lo:lo + step],
                        np.matmul)
        part %= p
        acc = part if acc is None else (acc + part) % p
    return acc


def _reduce(x, p: int):
    """An integer array's residues mod p, in [0, p), as int64."""
    return (x % p).astype(np.int64)


def _form_residues(tables, u, gram, v, p: int, components):
    """The listed components of the form on every pair of rows, mod the
    prime p on int64 residues: W = U G in all k components, then each
    listed component of W star(V)^T."""
    mul, mul_star = tables
    u, gram, v = _reduce(u, p), _reduce(gram, p), _reduce(v, p)
    w = np.stack([_residues(terms, u, gram, p) for terms in mul])
    vt = v.transpose(0, 2, 1)
    return [_residues(mul_star[c], w, vt, p) for c in components]


def _screen(tables, u, gram, v):
    """True where component 0 of the form vanishes mod PRIME."""
    return _form_residues(tables, u, gram, v, PRIME, [0])[0] == 0


def _bits(x) -> int:
    """The bit length of the largest magnitude in an integer array."""
    return int(abs(x).max()).bit_length()


def _moduli(u, gram, v):
    """The fewest leading PRIMES whose product P exceeds 2**h, with h the
    height bound of every form component of the rows u against the rows v,
    or None when the table's product does not.

    A component of W = U G sums k * n signed products, each at most
    max|U| max|G|, and a component of F = W star(V)^T sums k * n products
    of a W entry and a V entry, so |F_c| <= k**2 n**2 max|U| max|G| max|V|
    < 2**h for h = bits(U) + bits(G) + bits(V) + bitlen(k**2 n**2)."""
    k, _, n = u.shape
    h = _bits(u) + _bits(gram) + _bits(v) + (k * k * n * n).bit_length()
    bound, prod = 1 << h, 1
    for r, p in enumerate(PRIMES, 1):
        prod *= p
        if prod > bound:
            return PRIMES[:r]
    return None


def _residue_zero(tables, u, gram, v, ii, jj, primes):
    """Exact vanishing of the form on the pairs (u[:, ii[t]], v[:, jj[t]]),
    where `primes` are `_moduli(u, gram, v)`: all k components of the form
    on the whole block of rows, mod each prime in int64.

    The primes are distinct, so a component divisible by all of them is
    divisible by their product P.  By `_moduli` every component is an
    integer with |F_c| < 2**h < P, and the only multiple of P in that
    range is 0: a pair whose k components vanish mod every prime has the
    form 0, and no CRT reconstruction is needed."""
    zero = np.ones(len(ii), dtype=bool)
    for p in primes:
        for f in _form_residues(tables, u, gram, v, p, range(len(u))):
            zero &= f[ii, jj] == 0
    return zero


def _pair_dot(x, y):
    return (x * y).sum(axis=-1)


def _exact_zero(tables, u, gram, v, ii, jj):
    """Exact vanishing of the form on the pairs (u[:, ii[t]], v[:, jj[t]]),
    on Python ints.  G is applied to the side with fewer rows: the Gram
    matrix is Hermitian, so <v, u> = star(<u, v>), and one vanishes
    exactly when the other does."""
    mul, mul_star = tables
    if v.shape[1] < u.shape[1]:
        u, v, ii, jj = v, u, jj, ii
    w = np.stack([_combine(terms, u, gram, np.matmul) for terms in mul])
    w, v = w[:, ii], v[:, jj]
    zero = np.ones(len(ii), dtype=bool)
    for terms in mul_star:
        zero &= _combine(terms, w, v, _pair_dot) == 0
    return zero


def _confirm(tables, u, gram, v, ii, jj):
    """Exact vanishing of the form on the pairs (u[:, ii[t]], v[:, jj[t]]),
    on the block of the R rows and C columns that the N pairs use: mod the
    r primes of `_moduli` when r (R + C) < k N, the residues' cost against
    that of Python ints (see the module docstring), and on Python ints
    otherwise, as always under ORTHOSET_LAB_EXACT_GRID=1."""
    k = u.shape[0]
    rows, ii = np.unique(ii, return_inverse=True)
    cols, jj = np.unique(jj, return_inverse=True)
    u, v = u[:, rows], v[:, cols]
    primes = None if _use_exact_path() else _moduli(u, gram, v)
    if primes is not None and \
            len(primes) * (len(rows) + len(cols)) < k * len(ii):
        return _residue_zero(tables, u, gram, v, ii, jj, primes)
    return _exact_zero(tables, u, gram, v, ii, jj)


def map_matrix(phi):
    """The semilinear map phi as one integer matrix K on flattened planes:
    a row x, as its (k, n) component planes read row by row, goes to the
    (k, m) planes of a positive rational multiple of phi(x), as x K."""
    sf, n, m = phi.domain.sfield, phi.domain.dim, phi.codomain.dim
    basis = sf.basis()
    if n == 0 or m == 0:
        return np.zeros((len(basis) * n, len(basis) * m), dtype=object)
    mat = _matrix_planes(sf, phi.matrix, n, m)
    # twist[a, b] is component a of sigma(e_b) times a positive integer:
    # the identity for id, a negated i-plane for conj, q e_b star(q) up to
    # scale for inner(q)
    twist = _planes(sf, [[phi.sigma(e) for e in basis]], len(basis))[:, 0]
    # y_c = sum over the table's (a, b, sign) of sign * sigma(x)_a M_b
    blocks = [_combine(terms, twist, mat, np.multiply.outer)
              for terms in _tables(sf)[0]]
    return np.stack(blocks, axis=2).reshape(len(basis) * n, -1)


@lru_cache(maxsize=None)
def _star_left(sfield: StarSfield):
    """(index, sign) such that star(p) y = (p[index] * sign) y on component
    vectors: the matrix of left multiplication by star(p), read off the
    product table, since e_a e_b = sign * e_c fixes a from (c, b)."""
    basis = sfield.basis()
    index = np.zeros((len(basis),) * 2, dtype=np.intp)
    sign = np.zeros((len(basis),) * 2, dtype=np.int64)
    for c, terms in enumerate(_tables(sfield)[0]):
        for a, b, s in terms:
            index[c, b] = a
            sign[c, b] = s if sfield.star(basis[a]) == basis[a] else -s
    return index, sign


def _width(sfield: StarSfield) -> int:
    """k, the number of rational components of a scalar."""
    return len(_tables(sfield)[0])


def _primitive_rows(sfield: StarSfield, y):
    """The rays of integer rows, given as (count, k, n) planes, each as its
    primitive row (`orthoset.Ray.row`): star(P) y for the row's pivot P, its
    first nonzero coordinate, divided by the gcd of its entries.  star(P) y
    is N(P) times the canonical row P^-1 y, so this is the canonical row
    times the lcm of its denominators, one gcd per row.  A zero row stays
    zero."""
    count, k, n = y.shape
    if not n:
        return [()] * count
    nonzero = (y != 0).any(axis=1)
    pivot = y[np.arange(count), :, nonzero.argmax(axis=1)]
    index, sign = _star_left(sfield)
    z = ((pivot[:, index] * sign) @ y).reshape(count, k * n)
    g = np.array([math.gcd(*row) or 1 for row in z.tolist()], dtype=object)
    return list(map(tuple, (z // g[:, None]).tolist()))


def ray_rows(sfield: StarSfield, rows, n: int):
    """The primitive rows of the rays spanned by coordinate rows, in one
    batch."""
    if not rows or not n:
        return [()] * len(rows)
    return _primitive_rows(sfield, _planes(sfield, rows, n).transpose(1, 0, 2))


def _limb_bits(length: int) -> int:
    """s, the limb width for a contraction of `length` terms: the largest s
    with _LIMB_SUMS * length * (2**s - 1)**2 <= 2**63 - 1.  A limb product
    sums `length` terms of magnitude at most (2**s - 1)**2, and every
    partial sum of _LIMB_SUMS such products is bounded by the sum of their
    magnitudes, so int64 holds them exactly."""
    r = math.isqrt(_INT64_MAX // (_LIMB_SUMS * max(length, 1)))
    return (r + 1).bit_length() - 1  # the largest s with 2**s - 1 <= r


def _limbs(a, s: int):
    """The signed s-bit limbs of an integer array, int64 or object: an
    (L, *a.shape) int64 array x, L >= 1, with a = sum_l x[l] * 2**(s*l)
    and |x[l]| < 2**s, each limb carrying the sign of its entry.  On int64
    input every entry must lie above -2**63, whose abs wraps."""
    sign, mag = np.sign(a), abs(a)
    mask = (1 << s) - 1
    limbs = []
    while not limbs or mag.any():
        limbs.append(((mag & mask) * sign).astype(np.int64))
        mag = mag >> s
    return np.stack(limbs)


def matrix_limbs(matrix):
    """A `map_matrix` split once into its signed limbs for `image_rows`:
    an (L, k n, k m) int64 array, with s = _limb_bits(k n)."""
    return _limbs(matrix, _limb_bits(matrix.shape[0]))


def _limb_product(rows, matrix):
    """The product of the rows and M, exact, as an object array of Python
    ints, where matrix is `matrix_limbs(M)`: the int64 products of the
    rows' limbs and the matrix's limbs, recombined."""
    s = _limb_bits(matrix.shape[1])
    # rows that fit convert in C; past int64, or at -2**63, whose abs
    # wraps, they are split from Python ints instead
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        a = None
    if a is None or (a == -_INT64_MAX - 1).any():
        a = np.array(rows, dtype=object)
    x = _limbs(a.reshape(len(rows), matrix.shape[1]), s)
    # level t sums x[i] @ matrix[j] over i + j = t; by _limb_bits,
    # _LIMB_SUMS of those products at a time sum in int64, and the chunks
    # of a level sum in Python ints
    levels = [[] for _ in range(len(x) + len(matrix) - 1)]
    for i, xi in enumerate(x):
        for j, mj in enumerate(matrix):
            levels[i + j].append(xi @ mj)
    y = None
    for level in reversed(levels):  # Horner's rule in 2**s
        chunks = [sum(level[lo:lo + _LIMB_SUMS]).astype(object)
                  for lo in range(0, len(level), _LIMB_SUMS)]
        total = sum(chunks[1:], chunks[0])
        y = total if y is None else (y << s) + total
    return y


def image_rows(sfield: StarSfield, matrix, rows):
    """The primitive rows of the images of rays under the map whose
    `matrix_limbs` is matrix, given the rays' primitive rows.  The images
    are one exact integer matrix product, taken on int64 limbs; every
    factor dropped along the way is a positive rational, which changes no
    ray."""
    if not rows:
        return []
    k = _width(sfield)
    y = _limb_product(rows, matrix)
    return _primitive_rows(sfield,
                           y.reshape(len(rows), k, matrix.shape[2] // k))


def pivot_rows(sfield: StarSfield, rows) -> list[int]:
    """The indices of the rays, given as primitive rows, whose real rows
    hold a pivot when all of them are reduced mod PRIME in order.

    A row r stands for the k rows e_a r of its real left-multiplication
    form, whose real span is the left line of r.  Reducing all those rows
    mod PRIME, column by column with the topmost free row as pivot, gives
    pivot rows that span every row mod p, so the returned rays (at most
    k * n of them, and n in practice) are a candidate basis of the left
    span.  Residues lie in [0, p) and p**2 < 2**63, so every step is exact
    in int64.  The pick only chooses: a minor that vanishes mod p but not
    over Q makes it miss a ray, never add a wrong one, and
    `orthoset.perp_closure` decides the span exactly."""
    k = _width(sfield)
    n = len(rows[0]) // k if rows else 0
    if not n:
        return []
    r = _reduce(np.array(rows, dtype=object), PRIME)
    r = r.reshape(len(rows), k, n)
    # component c of e_a r sums sign * r_b over the table's (a, b, sign)
    left = np.zeros((len(rows), k, k, n), dtype=np.int64)
    for c, terms in enumerate(_tables(sfield)[0]):
        for a, b, sign in terms:
            left[:, a, c] += sign * r[:, b]
    m = (left % PRIME).reshape(len(rows) * k, k * n)
    free = np.ones(len(m), dtype=bool)
    for col in range(k * n):
        hits = np.flatnonzero(free & (m[:, col] != 0))
        if not len(hits):
            continue
        p = hits[0]
        free[p] = False
        pivot = m[p] * pow(int(m[p, col]), -1, PRIME) % PRIME
        m = (m - np.outer(m[:, col], pivot)) % PRIME
    return sorted({int(i) // k for i in np.flatnonzero(~free)})


def perp_grid(space, rows_a, rows_b):
    """Boolean matrix of exact orthogonality for all pairs of coordinate
    rows; entry [i][j] is True iff <rows_a[i], rows_b[j]> = 0."""
    return _grid(space, rows_a, rows_b,
                 lambda rows: _planes(space.sfield, rows, space.dim))


def row_grid(space, rows_a, rows_b):
    """perp_grid on integer rows as `orthoset.Ray.row` holds them: the k
    component planes of a row, each of length n, one after the other."""
    k, n = _width(space.sfield), space.dim
    return _grid(space, rows_a, rows_b, lambda rows: np.array(
        rows, dtype=object).reshape(len(rows), k, n).transpose(1, 0, 2))


def _grid(space, rows_a, rows_b, planes):
    """The grid kernel on the rows' (k, rows, n) integer planes."""
    na, nb = len(rows_a), len(rows_b)
    if space.dim == 0:
        return np.ones((na, nb), dtype=bool)
    if na == 0 or nb == 0:
        return np.zeros((na, nb), dtype=bool)
    tables = _tables(space.sfield)
    gram = _int_gram(space)
    u, v = planes(rows_a), planes(rows_b)
    if _use_exact_path():
        grid = candidates = np.ones((na, nb), dtype=bool)
    else:
        grid = _screen(tables, u, gram, v)
        # <0, v> = <u, 0> = 0, and the screen passes those pairs; zero rows
        # are read off the exact planes, as a nonzero row can vanish mod p
        nonzero_u, nonzero_v = ((x != 0).any(axis=(0, 2)) for x in (u, v))
        candidates = grid & nonzero_u[:, None] & nonzero_v
    # a zero residue is only a candidate; confirm with exact integers
    ii, jj = np.nonzero(candidates)
    if len(ii):
        grid[ii, jj] = _confirm(tables, u, gram, v, ii, jj)
    return grid
