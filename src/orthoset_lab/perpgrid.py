"""Batched exact orthogonality tests.

The property suites decide `<u, v> = 0` for hundreds of thousands of vector
pairs.  Doing that with exact scalar arithmetic pair by pair is the hot loop
of the whole package, so grids are computed in two exact stages:

1. a residue screen: all pairwise forms are evaluated mod a fixed prime
   with numpy int64 matrix products.  A form that is nonzero mod p is
   nonzero, full stop; no pair can be wrongly declared orthogonal here.
2. exact confirmation: the pairs whose residue vanishes are recomputed on
   Python ints, so no pair can be wrongly declared orthogonal either.

Both stages run one form kernel.  A scalar is a vector of k rational
components over the sfield's basis (`StarSfield.basis()`: 1; 1, i; or
1, i, j, k), and the kernel reads the sfield's product off the scalar
classes once, as a table of basis products e_a * e_b = sign * e_c.
<u, v> = sum_ij u_i g_ij star(v_j) is then W = U G followed by
F = W star(V)^T, each a signed sum of k component matrix products per
output component.  Rows are integerised by the lcm of their denominators
and the Gram matrix by one common lcm; positive rational factors never
change whether a form vanishes.

Residues lie in [0, p), so one output component of a chunk of `step`
contracted columns sums k * step products of magnitude at most (p - 1)**2.
`step` is the largest length that keeps this inside int64 (128 for Q, 64
for Qi, 32 for HQ); longer contractions are reduced mod p after every chunk
(delayed reduction, as in Dumas, Giorgi and Pernet, FFLAS-FFPACK, 2008), so
every dimension takes the screen.  Setting ORTHOSET_LAB_EXACT_GRID=1 skips
the screen and confirms every pair; `benchmarks/grid_bench.py` compares the
two paths.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from .starfields import StarSfield

PRIME = 268435399  # largest prime below 2**28
_INT64_MAX = 2 ** 63 - 1


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


@lru_cache(maxsize=None)
def _int_gram(space):
    """The full Gram matrix as (k, n, n) integer planes under one common
    scale, exact and mod PRIME."""
    n = space.dim
    flat = [[x for row in space.gram for x in row]]
    gram = _planes(space.sfield, flat, n * n).reshape(-1, n, n)
    residues = (gram % PRIME).astype(np.int64)
    gram.flags.writeable = residues.flags.writeable = False  # shared
    return gram, residues


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


def _residues(terms, x, y):
    """_combine with matrix products on int64 residues, mod PRIME.  A chunk
    of `step` contracted columns sums len(terms) * step products below
    PRIME**2, which int64 holds; each chunk is reduced before the next."""
    step = _INT64_MAX // (len(terms) * (PRIME - 1) ** 2)
    acc = None
    for lo in range(0, x.shape[-1], step):
        part = _combine(terms, x[..., lo:lo + step], y[:, lo:lo + step],
                        np.matmul)
        part %= PRIME
        acc = part if acc is None else (acc + part) % PRIME
    return acc


def _screen(tables, u, gram, v):
    """True where every component of the form vanishes mod PRIME."""
    mul, mul_star = tables
    u, v = ((x % PRIME).astype(np.int64) for x in (u, v))
    w = np.stack([_residues(terms, u, gram) for terms in mul])
    vt = v.transpose(0, 2, 1)
    grid = np.ones((u.shape[1], v.shape[1]), dtype=bool)
    for terms in mul_star:
        grid &= _residues(terms, w, vt) == 0
    return grid


def _pair_dot(x, y):
    return (x * y).sum(axis=-1)


def _exact_zero(tables, u, gram, v, ii, jj):
    """Exact vanishing of the form on the row pairs (ii[t], jj[t])."""
    mul, mul_star = tables
    rows, inv = np.unique(ii, return_inverse=True)
    w = np.stack([_combine(terms, u[:, rows], gram, np.matmul)
                  for terms in mul])[:, inv]
    zero = np.ones(len(ii), dtype=bool)
    for terms in mul_star:
        zero &= _combine(terms, w, v[:, jj], _pair_dot) == 0
    return zero


def perp_grid(space, rows_a, rows_b):
    """Boolean matrix of exact orthogonality for all pairs of coordinate
    rows; entry [i][j] is True iff <rows_a[i], rows_b[j]> = 0."""
    na, nb = len(rows_a), len(rows_b)
    if space.dim == 0:
        return np.ones((na, nb), dtype=bool)
    if na == 0 or nb == 0:
        return np.zeros((na, nb), dtype=bool)
    tables = _tables(space.sfield)
    gram, gram_residues = _int_gram(space)
    u = _planes(space.sfield, rows_a, space.dim)
    v = _planes(space.sfield, rows_b, space.dim)
    if _use_exact_path():
        grid = np.ones((na, nb), dtype=bool)
    else:
        grid = _screen(tables, u, gram_residues, v)
    # a zero residue is only a candidate; confirm with exact integers
    ii, jj = np.nonzero(grid)
    if len(ii):
        grid[ii, jj] = _exact_zero(tables, u, gram, v, ii, jj)
    return grid
