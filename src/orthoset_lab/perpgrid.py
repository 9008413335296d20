"""Batched exact orthogonality tests.

The property suites decide `<u, v> = 0` for hundreds of thousands of vector
pairs.  Doing that with exact scalar arithmetic pair by pair is the hot loop
of the whole package, so grids are computed in two exact stages:

1. a residue screen: the weighted sum sum_c w_c F_c of the k integer
   components of every pairwise form, with fixed weights w_c that are
   nonzero mod p (`_WEIGHTS`), is evaluated mod a fixed prime with
   float64 BLAS products, exact by the bound below.  If the sum is
   nonzero mod p, some F_c is nonzero mod p, so it is a nonzero integer
   and the form is nonzero, full stop; no pair can be wrongly declared
   orthogonal here.  A nonzero form whose weighted sum vanishes mod p,
   such as (p - w_1) + i over Qi, passes as a candidate and costs one
   exact check, never a wrong answer.
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
form is evaluated on the whole R x C block with the screen's kernel, in
all k components, mod each of the fewest leading `PRIMES` whose product
P exceeds 2**h; a component that vanishes mod all of these distinct
primes is a multiple of P smaller than P in magnitude, hence 0 (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 5; no CRT
reconstruction is needed).  The residues cost about r (R + C) k n
remainders of the planes for r primes, Python-int ones where the planes
are object arrays, and the pairs on Python ints (`_exact_zero`, which
applies G to the side with fewer distinct rows) about N k**2 n
multiply-adds.  On 102 distinct confirmations captured from one seed-5
round of each benchmark workload, from the dense-block tests and from
S x S-perp blocks of 8 to 64 rows a side, each timed both ways (2-core
host, Python 3.11, `BENCH_20.json` `confirmation_rule`), Python ints
were faster in 56 of the 57 calls with 3 r (R + C) >= 4 k N, and the
residues in 33 of the 45 below it, the 12 others by at most 0.25 ms
each; the tests' 200-500-bit HQ blocks, at r (R + C) = 1.15 k N, took
6.5-8.1 ms on residues and 10.2 ms on Python ints.  So the residues are
taken when 3 r (R + C) < 4 k N and the table holds r primes, and Python
ints otherwise: 136 ms over those calls, against 142 ms under the former
rule r (R + C) < k N and 134 ms for the faster path every time.  Dense
S x S-perp blocks take the residues; a few rows against one to three
others, with heights of hundreds of bits, take Python ints.

Both stages run one form kernel.  A scalar is a vector of k rational
components over the sfield's basis (`StarSfield.basis()`: 1; 1, i; or
1, i, j, k), and the kernel reads the sfield's product off the scalar
classes once, as a table of basis products e_a * e_b = sign * e_c.
<u, v> = sum_ij u_i g_ij star(v_j) is then W = U G followed by
F = W star(V)^T.  With the table each is one matrix product on the
rows' flattened (rows, k n) planes (`_fold`): G folds into a (k n) x
(k n) matrix that gives all k components of W, and star(V)^T into a
(k n) x (k C) matrix that gives all k components of F, as confirmation
takes them.  The screen folds its weights into the Gram side instead
(`_screen_gram`): the weighted sum is z V^T with z = U G R, where R is
the constant weighted star table, and V's flattened rows are its own
rows, so no fold of V is built per call.  G R mod p is cached per space
beside the integer Gram matrix, and the screen costs two products per
grid.  Rows are integerised by the lcm of their denominators and the
Gram matrix by one common lcm; positive rational factors never change
whether a form vanishes.

The products run in float64 on BLAS, which is exact on integers while
every partial sum stays below 2**53 (Dumas, Giorgi and Pernet,
FFLAS-FFPACK, 2008).  The planes' residues mod p < 2**23 lie below p in
magnitude, so a chunk of `_STEP` = 64 contracted columns sums at most
64 (p - 1)**2 <= 2**52 in any order (`_mul_mod`), and each chunk's
result is reduced in place as x - p rint(x / p), exact below 2**52
(`_reduce`), to a signed residue that can feed the next product.  Every
benchmark dimension, k n <= 24, takes one chunk, and longer contractions
take more, so every dimension takes the screen and the multi-modular
confirmation.  The products are float64 because numpy's int64 matmul
does not call BLAS: one 448 x 24 by 24 x 448 product of the screen took
3.17 ms in int64 and 0.24 ms in float64, and reducing its result took
1.8 ms as x - p rint(x / p), 2.6 ms by np.remainder and 29 ms by np.fmod
(best of 20, one thread, 2-core host, `BENCH_20.json` `kernel_micro_ms`).
Per seed-829 `grid` round (in-process spies, three processes per tree)
the screen took 0.030-0.037 s against 0.061-0.074 s before, and over ten
alternating benchmark pairs the median `grid` round went from 0.163 s to
0.110 s, `wigner` from 1.465 s to 1.345 s and `partial` from 1.695 s to
1.651 s.  The screen's second product is decided in blocks of at most
`_BLOCK` = 8192 cells, each block's zero test written into one boolean
grid (`_screen`).  Whole, a 256 x 256 grid's float64 product and
`_reduce`'s quotient of it were two live 512 KB arrays, past glibc's
default 128 KB mmap threshold, and their pages were faulted in afresh
for every grid: 25 536 minor faults per seed-5 `wigner` round, all in
the screen, 224 per grid.  A block's two arrays take 64 KB each and
reuse freed heap; the round faults none in the screen, whose time fell
from 0.063-0.068 s to 0.032-0.034 s a round (in-process spies, three
processes per tree, 2-core host, Python 3.11, `BENCH_29.json`).
Setting ORTHOSET_LAB_EXACT_GRID=1 skips the screen and confirms every
pair on Python ints, zero rows included; `benchmarks/grid_bench.py`
compares the two paths.

Every grid loads its rows through one gate, `_int_rows` in `row_grid`:
int64, converted in C, where every entry fits, and Python ints where the
conversion raises OverflowError or an entry is -2**63, whose abs wraps
in int64 (`_bits`).  A caller that grids the same rows twice loads them
once and passes the array, which `_int_rows` copies as it is.  The
conversion is exact, so no height bound guards an int64 plane; the
kernel reads planes only through their residues mod p, and
`_exact_zero` casts them to Python ints, so no int64 product decides a
pair.  `perp_grid` is an adapter: `_row_planes` integerises its
coordinate rows, and `row_grid` takes them as rays' rows.  Map matrices,
`ray_rows` and the canonicalizer build object planes only, since their
products pass int64.

The same planes carry rays and semilinear maps.  A ray is held as its
primitive integer row (`orthoset.Ray`): an integer row y of the ray with
pivot P, its first nonzero coordinate, becomes star(P) y, which is N(P)
times the canonical row P^-1 y, divided by the gcd of its entries.  One
canonicalizer, `_primitive_rows`, serves coordinate rows (`ray_rows`),
map images (`image_rows`) and subspace probes, one gcd per row and no
scalar object.  A semilinear map sends the row x to sigma(x) M.  On a
scalar's components the twist sigma is a k x k integer matrix: the
identity for id, a negated i-plane for conjugation, and a -> q a star(q)
on q's integer components for inner(q), which is q a q^-1 times the
positive rational N(q).  `map_block` folds it and M's planes, laid out
by the product table (`_fold`), into one content-free (k n) x (k m)
integer matrix K and a positive rational s with sigma(x) M = s (x K),
built once per map and cached on it (`hermspace.SemilinearMap.block`).
Every product with a map reads that K, and every one is a product on
Python ints: `compose_rows` maps coordinate rows exactly, for
`SemilinearMap.apply`, `apply_all` and `hermspace.compose_maps`, with
one scalar per output coordinate over its row's denominator; the ray
kernel (`image_rows`) maps a batch of rays' rows in one product
(`_images`) and canonicalizes them in one call; and
`orthoset.probe_rays_in` multiplies coefficient rows by the K of the
embedding e_i -> b_i of a subspace basis.  On a seed-5 `partial` round
the height bound of the compositions, bits(rows) + bits(matrix) +
bitlen(k n), ran from 79 to 1542 bits, so none would fit an int64
product.  Grids, kernel checks and comparisons screen mod p first, so
only the rays a batch canonicalizes and a few candidate rows take an
exact product, and one product on Python ints serves them all
(`BENCH_35.json`).

K is content-free: the gcd of its entries is divided out into s.  The
common lcm of M's denominators and the twist's scale leave such a
factor: on one seed-613 round (in-process spies, 2-core host, Python
3.11, `BENCH_21.json`) it reached 102 bits on `wigner`, whose largest
matrix fell from 206 to 105 bits, and 234 bits on `partial`, whose
largest fell from 475 to 241 bits; there the probe check of a rebuilt
map took 0.11-0.17 s a round, not 0.19-0.26 s.

A grid can also be taken through a map: given a map's K, `row_grid`
reads its first side as rows of the map's domain, each standing for its
image x K, so the rays of the images are never built.  The screen
multiplies K mod p, taken once per map and cached beside K
(`hermspace.SemilinearMap.block_residues`), into the cached G R, one
product of two small matrices per call, so the images' weighted forms
are (x mod p) ((K mod p) G R) and then one product with the other side:
two products of the rows, as for rays.  Only the distinct candidate
rows are mapped exactly, by `_images`, for `_confirm`; `row_grid` holds
the soundness argument.  A screen of component 0 alone passed every
image whose forms have real part 0, as raw images x K often do: one seed-5
`wigner` round sent 1 542 HQ pairs to confirmation for 10 orthogonal
ones, and the weighted screen sends those 10 (627 pairs in all, 603 of
them over Q, against 2 174; in-process spy, 2-core host, Python 3.11,
`BENCH_28.json`).  `orthoset.verify_adjoint_pair` grids both sides of
an induced pair this way, and loads each probe family once for both
grids (`orthoset.RayMap.grid_rows`).

Which rays a map kills (`zero_images`, behind `orthoset.RayMap.kills`)
takes the same screen: (x mod p) (K mod p), one product, is x K mod p,
so a nonzero residue proves a nonzero image, and only the nonzero rows
whose images vanish mod p take the exact product.  A zero row is
read off the exact row.  The kernel check of a seed-5 `wigner` round
multiplied 13 807 probe rows exactly only to find that no proper probe
dies; it now multiplies none (`BENCH_30.json`).  Where two maps agree
(`orthoset.RayMap.disagreements`) is the same call on the difference of
their matrices: a row with x (K - K') = 0 has one image ray under both.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .starfields import StarSfield

PRIME = 8388593  # largest prime below 2**23
# the 78 largest primes below 2**23, PRIME first: the moduli of exact
# confirmation, whose product passes 2**1791
PRIMES = (
    8388593, 8388587, 8388581, 8388571, 8388547, 8388539, 8388473, 8388461,
    8388451, 8388449, 8388439, 8388427, 8388421, 8388409, 8388377, 8388371,
    8388319, 8388301, 8388287, 8388283, 8388277, 8388239, 8388209, 8388187,
    8388113, 8388109, 8388091, 8388071, 8388059, 8388019, 8388013, 8387999,
    8387993, 8387959, 8387957, 8387947, 8387933, 8387921, 8387917, 8387891,
    8387879, 8387867, 8387861, 8387857, 8387839, 8387831, 8387809, 8387807,
    8387741, 8387737, 8387723, 8387707, 8387671, 8387611, 8387609, 8387591,
    8387581, 8387563, 8387557, 8387543, 8387539, 8387513, 8387507, 8387501,
    8387473, 8387471, 8387447, 8387437, 8387413, 8387377, 8387371, 8387369,
    8387339, 8387311, 8387297, 8387251, 8387243, 8387231,
)
# contracted columns per chunk of a residue product, 64: the longest whose
# products of residues below PRIME sum to at most 2**52 (`_mul_mod`)
_STEP = 2 ** 52 // (PRIME - 1) ** 2
# cells per block of the screen's last product, 8192: a block's float64
# product and `_reduce`'s quotient of it take 64 KB each, 128 KB together,
# within glibc's default 128 KB mmap and trim thresholds, so they reuse
# freed heap instead of pages faulted in afresh for every grid (`_screen`)
_BLOCK = 8192
_INT64_MIN = -2 ** 63
# w_c, the screen's weight on form component c (`_screen_gram`), nonzero
# mod PRIME.  The 22-bit weights were drawn so that sum_c w_c F_c = 0 mod
# PRIME has no small nonzero integer solution F: every one has some
# |F_c| >= 2880 over Qi (w_0, w_1) and >= 44 over HQ, against the bounds
# sqrt(PRIME) = 2896 and PRIME**(1/4) = 53 that some solution always meets
_WEIGHTS = (1, 3812735, 3314018, 2513437)


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


def _int_rows(rows, width: int):
    """Integer rows as a (len(rows), width) array, an exact copy: int64,
    loaded in C, when every entry fits, and object where the conversion
    raises OverflowError.  An entry at -2**63 fits but goes to object too,
    since its abs wraps in int64."""
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        a = None
    if a is None or (a == _INT64_MIN).any():
        a = np.array(rows, dtype=object)
    return a.reshape(len(rows), width)


def _row_planes(sfield: StarSfield, rows, n: int):
    """A (k, len(rows), n) object array of the rows' integer component
    planes, each row scaled by the lcm of its denominators, and the list
    of those lcms: row i is exactly its planes divided by lcm[i]."""
    flat = [x for row in rows for x in row]
    if sfield is StarSfield.Q:
        comps = [[x.numerator for x in flat]]
        dens = [x.denominator for x in flat]
    else:
        comps = list(zip(*[x.component_ints() for x in flat]))
        dens = [x.denominator_int() for x in flat]
    lcm = [math.lcm(*dens[i * n:i * n + n]) for i in range(len(rows))]
    den = np.array(dens, dtype=object).reshape(len(rows), n)
    scale = np.array(lcm, dtype=object)[:, None] // den
    planes = np.array(comps, dtype=object)
    return planes.reshape(_width(sfield), len(rows), n) * scale, lcm


@lru_cache(maxsize=None)
def _int_gram(space):
    """The full Gram matrix as (k, n, n) integer planes under one common
    scale."""
    n = space.dim
    gram, _ = _row_planes(space.sfield, [[x for row in space.gram for x in row]],
                          n * n)
    gram = gram.reshape(len(gram), n, n)
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


def _residues(x, p: int):
    """An integer array, int64 or object, mod p as float64 in [0, p)."""
    return (x % p).astype(np.float64)


def _reduce(x, p: int):
    """x mod p in place, for a float64 array of integers of magnitude at
    most 2**52 and a prime p < 2**23: x - p rint(x / p), a signed residue.

    x / p is rounded once, with relative error at most 2**-53, so it lies
    within 2**-53 * 2**52 / p = 1 / (2 p) of the exact quotient; q = rint(x
    / p) is then an integer within 1/2 + 1 / (2 p) of it.  So |p q| <= |x|
    + (p + 1) / 2 < 2**53 is exact, and x - p q is an exact integer
    congruent to x with magnitude at most (p + 1) / 2 < p: it is 0 exactly
    when p divides x."""
    q = np.divide(x, p)
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _mul_mod(x, y, p: int):
    """x @ y mod p, as signed residues, for float64 matrices of integers
    of magnitude below p, one BLAS product per chunk of _STEP contracted
    columns.  A chunk sums at most _STEP (p - 1)**2 <= 2**52 in magnitude,
    and every partial sum the BLAS forms, in whatever order and with or
    without fused multiply-adds, is an integer bounded by that sum of
    magnitudes, so it is exact in float64; each chunk is reduced before it
    joins the others.  Every benchmark dimension, k n <= 24, takes one
    chunk."""
    out = None
    for lo in range(0, x.shape[1], _STEP):
        part = _reduce(x[:, lo:lo + _STEP] @ y[lo:lo + _STEP], p)
        if out is None:
            out = part
        else:
            out += part
            _reduce(out, p)
    return out


def _fold(terms, y):
    """The (k m, k q) matrix that sends flattened planes x, (rows, k m)
    with x[:, a m + i] = X_a[:, i], to the k components of sum sign
    X_a @ y[b] over each output component's terms, for (k, m, q) planes y:
    one product in place of k.  It is built by slice assignment, with no
    multiplication, in y's dtype: float64 residues or Python ints."""
    k, m, q = y.shape
    out = np.zeros((k, m, k, q), dtype=y.dtype)
    for c, component in enumerate(terms):
        for a, b, sign in component:
            out[a, :, c] = y[b] if sign > 0 else -y[b]
    return out.reshape(k * m, k * q)


def _form_residues(tables, u, gram, v, p: int):
    """All k components of the form on every pair of rows, mod the prime
    p, as an (R, k, C) float64 array of signed residues: W = U G as one
    product of the flattened planes, then W star(V)^T as another."""
    mul, mul_star = tables
    k, count, n = u.shape
    flat = _residues(u, p).transpose(1, 0, 2).reshape(count, k * n)
    w = _mul_mod(flat, _fold(mul, _residues(gram, p)), p)
    vt = _fold(mul_star, _residues(v, p).transpose(0, 2, 1))
    return _mul_mod(w, vt, p).reshape(count, k, -1)


@lru_cache(maxsize=None)
def _screen_gram(space):
    """G R mod PRIME, as a read-only (k n) x (k n) float64 matrix of signed
    residues: the flattened rows u go to z = u G R, whose product with the
    flattened rows v is the screen's weighted form sum_c w_c F_c(u, v).

    G is the folded Gram matrix, so u G holds the k planes W_a of W = U G.
    F_c sums sign W_a V_b^T over the pairs (a, b) with e_a star(e_b) =
    sign e_c, and each pair (a, b) names one c, so sum_c w_c F_c =
    sum_b (sum_a r_ab W_a) V_b^T with r_ab = sign w_c.  R is the weighted
    star table, r_ab times the n x n identity in block (a, b), and V's
    planes V_b lie side by side in the flattened rows, so no fold of V is
    needed.  Block b of G R sums k terms r_ab G_a, each below p**2 in
    magnitude, so it is exact in float64 before it is reduced."""
    mul, mul_star = _tables(space.sfield)
    gram = _fold(mul, _residues(_int_gram(space), PRIME))
    planes = gram.reshape(len(gram), len(mul), -1)  # column block a: G_a
    out = np.zeros_like(planes)
    for c, terms in enumerate(mul_star):
        for a, b, sign in terms:
            r_ab = sign * _WEIGHTS[c] % PRIME
            out[:, b] += r_ab * planes[:, a]
    out = _reduce(out.reshape(gram.shape), PRIME)
    out.flags.writeable = False  # shared
    return out


def _screen(space, a, b, matrix=None, residues=None):
    """True where the weighted form sum_c w_c F_c vanishes mod PRIME, for
    the flattened integer rows a and b: z = (a mod p) (G R) and then
    z (b mod p)^T, two `_mul_mod`s.  Given a map's matrix K, a are domain
    rows and the form is taken of their images a K: (K mod p) (G R), one
    product of two small matrices, takes the place of G R, so the images
    cost no product of their own.  K mod p is residues when given, and
    otherwise taken here.

    The second product is decided in blocks of at most _BLOCK cells, rows
    of z against a slice of the columns, and each block's zero test is
    written into the one boolean grid, so no float64 array of the whole
    grid is built.  A cell of a block is the same contraction of a row of
    z with a row of b as in the whole product, so `_mul_mod`'s chunk bound
    and `_reduce`'s argument hold cell by cell, and the blocks' cells are
    exactly the grid's."""
    fold = _screen_gram(space)
    if matrix is not None:
        if residues is None:
            residues = _residues(matrix, PRIME)
        fold = _mul_mod(residues, fold, PRIME)
    z = _mul_mod(_residues(a, PRIME), fold, PRIME)
    bt = _residues(b, PRIME).T
    grid = np.empty((len(z), bt.shape[1]), dtype=bool)
    cols = max(1, min(bt.shape[1], _BLOCK))
    rows = _BLOCK // cols
    for j in range(0, bt.shape[1], cols):
        for i in range(0, len(z), rows):
            np.equal(_mul_mod(z[i:i + rows], bt[:, j:j + cols], PRIME), 0,
                     out=grid[i:i + rows, j:j + cols])
    return grid


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
    on the whole block of rows, mod each prime by `_form_residues`.

    The primes are distinct, so a component divisible by all of them is
    divisible by their product P.  By `_moduli` every component is an
    integer with |F_c| < 2**h < P, and the only multiple of P in that
    range is 0: a pair whose k components vanish mod every prime has the
    form 0, and no CRT reconstruction is needed."""
    zero = np.ones(len(ii), dtype=bool)
    for p in primes:
        f = _form_residues(tables, u, gram, v, p)
        zero &= (f == 0).all(axis=1)[ii, jj]
    return zero


def _pair_dot(x, y):
    return (x * y).sum(axis=-1)


def _exact_zero(tables, u, gram, v, ii, jj):
    """Exact vanishing of the form on the pairs (u[:, ii[t]], v[:, jj[t]]),
    on Python ints: int64 planes are cast to object first, so that no
    int64 product decides a pair.  G is applied to the side with fewer
    rows: the Gram matrix is Hermitian, so <v, u> = star(<u, v>), and one
    vanishes exactly when the other does."""
    mul, mul_star = tables
    u, gram, v = (x.astype(object) for x in (u, gram, v))
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
    r primes of `_moduli` when 3 r (R + C) < 4 k N, the residues' measured
    cost against that of Python ints (see the module docstring), and on
    Python ints otherwise, as always under ORTHOSET_LAB_EXACT_GRID=1."""
    k = u.shape[0]
    rows, ii = np.unique(ii, return_inverse=True)
    cols, jj = np.unique(jj, return_inverse=True)
    u, v = u[:, rows], v[:, cols]
    primes = None if _use_exact_path() else _moduli(u, gram, v)
    if primes is not None and \
            3 * len(primes) * (len(rows) + len(cols)) < 4 * k * len(ii):
        return _residue_zero(tables, u, gram, v, ii, jj, primes)
    return _exact_zero(tables, u, gram, v, ii, jj)


def map_block(sfield: StarSfield, images, m: int, sigma):
    """The map with twist sigma and the n x m matrix M of image rows as
    one content-free integer (k n) x (k m) matrix K and a positive
    rational s: a row x, as its (k, n) integer planes read row by row,
    goes to the planes of sigma(x) M = s (x K).

    M is P / c under the common lcm c of its denominators, and `_fold`
    lays P out so that flattened planes z go to z M = z fold(P) / c.
    sigma(x) has the components T x / t (`_twist`), so row block a of K
    sums T[b, a] times row block b of fold(P), one `tensordot`.  The gcd
    g of K's entries would only add height to every product, so K is
    divided by it and s = g / (t c); an all-zero K has gcd 0, and s =
    1 / (t c).  K is read-only, since its map caches it."""
    k, n = _width(sfield), len(images)
    planes, (common,) = _row_planes(sfield, [[v for row in images for v in row]],
                                    n * m)
    twist, scale = _twist(sfield, sigma)
    fold = _fold(_tables(sfield)[0], planes.reshape(k, n, m))
    matrix = np.tensordot(twist.T, fold.reshape(k, n, k * m), axes=1)
    matrix = matrix.reshape(k * n, k * m)
    content = math.gcd(*matrix.flat)
    if content > 1:
        matrix //= content
    matrix.flags.writeable = False
    return matrix, Fraction(max(content, 1), scale * common)


def _twist(sfield: StarSfield, sigma):
    """sigma on a scalar's k rational components as a k x k integer matrix
    T and a positive integer t: component a of sigma(e_b) is T[a, b] / t.
    T is the identity for id, a negated i-plane for conj, and q e_b
    star(q) up to scale for inner(q).  Every sigma fixes the rationals, so
    sigma(x) has the components T x / t."""
    planes, (scale,) = _row_planes(sfield, [[sigma(e) for e in sfield.basis()]],
                                   _width(sfield))
    return planes[:, 0], scale


def compose_rows(sfield: StarSfield, rows, block):
    """The rows sigma(x_j) M, exactly, for coordinate rows x_j and the
    `map_block` (K, s) of a map with twist sigma and matrix M: (count, k, m)
    integer planes y and a positive integer d_j per row, with
    sigma(x_j) M = y_j / d_j.

    Row j is X_j / l_j for its integer planes X_j and the lcm l_j of its
    denominators (`_row_planes`), and sigma fixes the rationals, so
    sigma(x_j) M = s (X_j K) / l_j: y = num(s) X K, one product of Python
    ints, and d_j = l_j den(s)."""
    matrix, scale = block
    k = _width(sfield)
    x, dens = _row_planes(sfield, rows, len(matrix) // k)
    y = x.transpose(1, 0, 2).reshape(len(dens), len(matrix)) @ matrix
    if scale.numerator != 1:
        y *= scale.numerator
    return (y.reshape(len(dens), k, matrix.shape[1] // k),
            [d * scale.denominator for d in dens])


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
    planes, _ = _row_planes(sfield, rows, n)
    return _primitive_rows(sfield, planes.transpose(1, 0, 2))


def _images(rows, matrix):
    """x K for integer rows x and a map's matrix K, exact: the rows loaded
    by `_int_rows` and multiplied on Python ints, the product
    `compose_rows` takes."""
    return _int_rows(rows, len(matrix)).astype(object) @ matrix


def image_rows(sfield: StarSfield, matrix, rows):
    """The primitive rows of the images of rays under the map whose matrix
    K is matrix, given the rays' primitive rows.  The images are one exact
    product (`_images`); every factor dropped along the way is a positive
    rational, which changes no ray."""
    if not rows:
        return []
    k = _width(sfield)
    y = _images(rows, matrix)
    return _primitive_rows(sfield,
                           y.reshape(len(rows), k, matrix.shape[1] // k))


def zero_images(matrix, rows, residues=None) -> list[bool]:
    """Whether the image x K of each row under the map whose matrix is K
    is zero; no image row is canonicalized.

    The images are screened mod PRIME first, as (x mod p) (K mod p) with
    K mod p given as residues, or else taken here.  That product is
    x K mod p, exact by `_mul_mod`'s
    chunk bound, so a row whose residue is nonzero has a nonzero entry in
    x K, and its image is nonzero, full stop.  A zero row maps to zero,
    read off the exact row, since a nonzero row can vanish mod p.  Only
    the other rows whose residue is zero, such as p e_0, are candidates,
    and their images are decided on the exact product (`_images`).
    ORTHOSET_LAB_EXACT_GRID=1 skips the screen and takes the exact
    product of every row."""
    if not rows:
        return []
    a = _int_rows(rows, len(matrix))
    if _use_exact_path():
        return (_images(a, matrix) == 0).all(axis=1).tolist()
    dead = ~(a != 0).any(axis=1)
    live = np.flatnonzero(~dead)
    if len(live):
        if residues is None:
            residues = _residues(matrix, PRIME)
        image = _mul_mod(_residues(a[live], PRIME), residues, PRIME)
        cand = live[~(image != 0).any(axis=1)]
        if len(cand):
            dead[cand] = (_images(a[cand], matrix) == 0).all(axis=1)
    return dead.tolist()


def perp_grid(space, rows_a, rows_b):
    """Boolean matrix of exact orthogonality for all pairs of coordinate
    rows: `row_grid` on the rows integerised by `_row_planes`, laid out as
    `orthoset.Ray.row`."""
    a, b = (np.hstack(_row_planes(space.sfield, rows, space.dim)[0])
            for rows in (rows_a, rows_b))
    return row_grid(space, a, b)


def row_grid(space, rows_a, rows_b, matrix=None, residues=None):
    """Boolean matrix of exact orthogonality for all pairs of integer rows
    as `orthoset.Ray.row` holds them (the k component planes of a row, one
    after the other), or an array `_int_rows` loaded them into; each side
    goes through `_int_rows`.

    Given matrix, the K of a map phi into space (`map_block`), rows_a
    are rows of phi's domain and each stands for its image x K: cell
    (i, j) says whether P(phi)(x_i) is orthogonal to y_j, and no image
    ray is built.  This is exact.  x K is a positive rational multiple of
    phi(x) (`map_block`), and a positive rational
    factor never changes whether a form vanishes.  The screen reads the
    images' weighted forms mod p as (x mod p) ((K mod p) G R), which is
    x K G R mod p, exact by `_mul_mod`'s chunk bound, so a nonzero
    residue still proves a nonzero form.  A zero domain row maps to zero
    and is excluded as before; a nonzero row that phi kills has residue 0
    and is only a candidate.  The distinct candidate rows are then mapped
    exactly by `_images` and go to `_confirm` as any rows do, where a
    zero image has form 0 and so is orthogonal.  residues is K mod PRIME,
    for a caller that keeps it beside K, as
    `hermspace.SemilinearMap.block_residues` does; it is taken here when
    not given."""
    na, nb = len(rows_a), len(rows_b)
    if space.dim == 0 or (matrix is not None and not len(matrix)):
        # every form is taken in, or of the images of, a zero space
        return np.ones((na, nb), dtype=bool)
    if na == 0 or nb == 0:
        return np.zeros((na, nb), dtype=bool)
    tables = _tables(space.sfield)
    k, n = len(tables[0]), space.dim
    a = _int_rows(rows_a, k * n if matrix is None else len(matrix))
    b = _int_rows(rows_b, k * n)
    if _use_exact_path():
        grid = candidates = np.ones((na, nb), dtype=bool)
    else:
        grid = _screen(space, a, b, matrix, residues)
        # <0, v> = <u, 0> = 0, and the screen passes those pairs; zero rows
        # are read off the exact rows, as a nonzero row can vanish mod p
        candidates = (a != 0).any(axis=1)[:, None] & (b != 0).any(axis=1)
        candidates &= grid
    # a zero residue is only a candidate; confirm with exact integers.  Most
    # grids of a map and a probe set hold none, and any() costs less than
    # nonzero()
    if candidates.any():
        ii, jj = np.nonzero(candidates)
        iu = ii
        if matrix is not None:  # the distinct candidate rows' exact images
            rows, iu = np.unique(ii, return_inverse=True)
            a = _int_rows(_images(a[rows], matrix), k * n)
        u, v = (x.reshape(len(x), k, n).transpose(1, 0, 2) for x in (a, b))
        grid[ii, jj] = _confirm(tables, u, _int_gram(space), v, iu, jj)
    return grid
