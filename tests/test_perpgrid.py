"""The residue-screened orthogonality grids must agree with plain exact
evaluation pair by pair, on every sfield, whatever the path taken; the
batched kernel of induced ray maps must give exactly the rays of the
scalar path, ray_of(_scalar_apply(phi, x.rep)), on every sfield and
twist."""

import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from conftest import (
    _scalar_apply,
    nonzero_scalar,
    oracle_map,
    short_id,
    spaces_under_test,
    twists,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoset_lab.correspondence import induce
from orthoset_lab.errors import InputError
from orthoset_lab.hermspace import (
    HermitianSpace,
    SemilinearMap,
    Subspace,
    Vector,
    compose_maps,
    herm_form,
    random_nonzero_vector,
    random_subspace,
    random_vector,
    standard_space,
    vectors_from_planes,
)
from orthoset_lab import orthoset, perpgrid
from orthoset_lab import serialize as sz
from orthoset_lab.orthoset import (
    ProbeSet,
    Ray,
    RayMap,
    perp_closure,
    probe_rays_in,
    ray_grid,
    ray_of,
    ray_payload,
    rays_of,
)
from orthoset_lab.perpgrid import PRIME, PRIMES, perp_grid
from orthoset_lab.sampling import (
    conjugation_map,
    left_scalar_map,
    random_linear_map,
    random_partial_isometry,
    random_quasiunitary,
)
from orthoset_lab.scalars import GaussianRational as GR
from orthoset_lab.scalars import HQ_I, HQ_J
from orthoset_lab.scalars import RationalQuaternion as RQ
from orthoset_lab.scalars import _Components, inv_scalar
from orthoset_lab.starfields import SfieldMorphism, StarSfield

Q, QI, HQ = StarSfield.Q, StarSfield.QI, StarSfield.HQ


def test_prime_is_prime_and_sized():
    """PRIME and the confirmation table: distinct primes below 2**23,
    PRIME the largest, whose product passes 2**1791; and _STEP is the
    longest chunk whose products of residues below p sum to at most
    2**52 for every one of them."""
    assert PRIMES[0] == max(PRIMES) == PRIME
    assert len(set(PRIMES)) == len(PRIMES) == 78
    assert math.prod(PRIMES) > 2 ** 1791
    odd = np.arange(3, 1 << 12, 2)  # every odd d <= sqrt(2**23)
    for p in PRIMES:
        assert 2 ** 22 < p < 2 ** 23 and p % 2 and (p % odd).all()
        assert perpgrid._STEP * (p - 1) ** 2 <= 2 ** 52
    assert (perpgrid._STEP + 1) * (PRIME - 1) ** 2 > 2 ** 52
    assert perpgrid._STEP == 64


def spy_confirm(monkeypatch):
    """Record the (row, column) pairs that reach exact confirmation."""
    seen = []
    real = perpgrid._confirm

    def spy(tables, u, gram, v, ii, jj):
        seen.extend(zip(ii.tolist(), jj.tolist()))
        return real(tables, u, gram, v, ii, jj)
    monkeypatch.setattr(perpgrid, "_confirm", spy)
    return seen


@pytest.mark.parametrize("space", spaces_under_test(), ids=short_id)
def test_grid_matches_pairwise_forms(space, monkeypatch):
    rng = random.Random(f"grid:{space.sfield.value}:{space.dim}")
    rows = [random_vector(space, rng) for _ in range(18)]
    rows.append(space.zero_vector())
    rows.append(space.basis_vector(0))
    coords = [v.coords for v in rows]
    seen = spy_confirm(monkeypatch)
    grid = perp_grid(space, coords, coords)
    # zero rows are orthogonal to every row without exact confirmation
    assert not any(rows[a].is_zero or rows[b].is_zero for a, b in seen)
    for a, u in enumerate(rows):
        for b, v in enumerate(rows):
            assert bool(grid[a, b]) == (not herm_form(u, v))


PLANTED = {QI: GR(0, 1), HQ: HQ_J}


def planted_rows(space):
    """u = (1, 1) and v = (1, -1 - t), padded with zeros, for t = i over Qi
    and t = j over HQ; none over Q.  In a standard space <u, v> = t, which
    is nonzero with real part 0.  A screen of component 0 alone would pass
    the pair; the weighted screen reads w_c t_c != 0 and rejects it."""
    t = PLANTED.get(space.sfield)
    if t is None or space.dim < 2:
        return []
    pad = (0,) * (space.dim - 2)
    return [space.vector((1, 1) + pad).coords,
            space.vector((1, -1 - t) + pad).coords]


@pytest.mark.parametrize("sf", [QI, HQ])
def test_real_part_zero_forms_stay_non_orthogonal(sf, monkeypatch):
    space = standard_space(sf, 2)
    u, v = planted_rows(space)
    assert herm_form(space.vector(u), space.vector(v)) == PLANTED[sf]
    seen = spy_confirm(monkeypatch)
    grid = perp_grid(space, [u, v], [v, u])
    assert seen == []  # the weighted screen rejects both pairs itself
    assert not grid.any()


@pytest.mark.parametrize("n", [1, 3])
def test_weighted_false_zero_reaches_confirmation(n, monkeypatch):
    """F = (PRIME - w_1) + i over Qi is a nonzero form whose weighted sum
    w_0 F_0 + w_1 F_1 = PRIME - w_1 + w_1 vanishes mod PRIME: the screen
    passes it, and exact confirmation keeps it non-orthogonal."""
    space = standard_space(QI, n)
    w0, w1 = perpgrid._WEIGHTS[:2]
    assert w0 == 1 and 0 < w1 < PRIME
    pad = (0,) * (n - 1)
    # rows in Ray.row layout: the real plane, then the i plane
    u = (PRIME - w1,) + pad + (1,) + pad
    v = (1,) + pad + (0,) + pad
    assert herm_form(row_vector(space, u), row_vector(space, v)) == \
        GR(PRIME - w1, 1)
    seen = spy_confirm(monkeypatch)
    grid = orthoset.row_grid(space, [u], [v])
    assert seen == [(0, 0)]
    assert grid.tolist() == [[False]]


def test_screen_weights_admit_no_small_relation():
    """Every nonzero integer F with sum_c w_c F_c = 0 mod PRIME has some
    |F_c| >= 2880 over Qi and >= 44 over HQ, as `_WEIGHTS` states: a
    nonzero form with smaller components never passes the screen."""
    w = perpgrid._WEIGHTS
    assert w[0] == 1 and all(0 < x < PRIME for x in w)

    def least_f0(*fs):  # the smallest |F_0| that completes each tuple
        f0 = -sum(x * f for x, f in zip(w[1:], fs)) % PRIME
        return np.minimum(f0, PRIME - f0)
    b = np.arange(1, 2880, dtype=np.int64)  # F_1 = -b gives the same |F_0|
    assert (least_f0(b) >= 2880).all()
    r = np.arange(-43, 44, dtype=np.int64)
    fs = np.meshgrid(r, r, r, indexing="ij")
    nonzero = (fs[0] != 0) | (fs[1] != 0) | (fs[2] != 0)
    assert (least_f0(*fs)[nonzero] >= 44).all()


def weighted_form_mod(space, a, b):
    """sum_c w_c F_c of the form of the flattened integer rows a and b,
    mod PRIME, on Python ints: (R, C), in [0, PRIME)."""
    tables = perpgrid._tables(space.sfield)
    k, n = len(tables[0]), space.dim
    u, v = (np.array(x, dtype=object).reshape(len(x), k, n).transpose(1, 0, 2)
            for x in (a, b))
    f = exact_form_mod(tables, u, perpgrid._int_gram(space), v, PRIME)
    weights = np.array(perpgrid._WEIGHTS[:k], dtype=object)
    return (f * weights[None, :, None]).sum(axis=1) % PRIME


EDGES = (0, 1, PRIME - 1, PRIME, -1, -PRIME + 1, -PRIME)


def edge_rows(rng, count, width):
    """Integer rows whose entries are 0, +-1, +-(p - 1) and +-p with
    probability 0.3, and 30- to 200-bit integers of either sign
    otherwise."""
    def entry():
        if rng.random() < 0.3:
            return rng.choice(EDGES)
        return rng.choice((1, -1)) * rng.getrandbits(rng.randint(30, 200))
    return [tuple(entry() for _ in range(width)) for _ in range(count)]


@pytest.mark.parametrize("space", spaces_under_test(), ids=short_id)
def test_screen_reads_the_weighted_form(space):
    """The screen, plain and through a map's matrix, against sum_c w_c F_c
    mod PRIME on Python ints, on rows with entries 0, +-1, +-(p - 1), +-p
    and 30- to 200-bit integers, and on rows planted to vanish."""
    rng = random.Random(f"weighted:{short_id(space)}")
    k, n = len(space.sfield.basis()), space.dim
    a, b = edge_rows(rng, 7, k * n), edge_rows(rng, 5, k * n)
    a.append(tuple(x * PRIME for x in a[0]))  # every component a multiple
    got = perpgrid._screen(space, perpgrid._int_rows(a, k * n),
                           perpgrid._int_rows(b, k * n))
    assert (got == (weighted_form_mod(space, a, b) == 0)).all()
    assert got[-1].all()
    dom = standard_space(space.sfield, 2)
    phi = random_linear_map(dom, space, rng)
    x = edge_rows(rng, 6, 2 * k)
    images = np.array(x, dtype=object) @ phi.block[0]
    got = perpgrid._screen(space, perpgrid._int_rows(x, 2 * k),
                           perpgrid._int_rows(b, k * n), phi.block[0])
    assert (got == (weighted_form_mod(space, images.tolist(), b) == 0)).all()


def unblocked_screen(space, a, b, matrix=None):
    """The screen's two products taken whole, the reference for the
    blocked screen: z = (a mod p) (G R), or (a mod p) ((K mod p) (G R))
    through a map, and then z (b mod p)^T == 0."""
    fold = perpgrid._screen_gram(space)
    if matrix is not None:
        fold = perpgrid._mul_mod(perpgrid._residues(matrix, PRIME), fold,
                                 PRIME)
    z = perpgrid._mul_mod(perpgrid._residues(a, PRIME), fold, PRIME)
    return perpgrid._mul_mod(z, perpgrid._residues(b, PRIME).T, PRIME) == 0


def blocked_agrees(space, a, b, matrix=None):
    """The blocked screen of the integer rows a, b equals the unblocked one
    cell for cell; its zero cells are returned."""
    width = k_n = len(space.sfield.basis()) * space.dim
    if matrix is not None:
        width = len(matrix)
    a, b = perpgrid._int_rows(a, width), perpgrid._int_rows(b, k_n)
    got = perpgrid._screen(space, a, b, matrix)
    assert got.shape == (len(a), len(b))
    assert (got == unblocked_screen(space, a, b, matrix)).all()
    return got


BLOCK_COLS = 100  # so a block holds _BLOCK // 100 = 81 rows
BLOCK_ROWS = perpgrid._BLOCK // BLOCK_COLS


@pytest.mark.parametrize("count", [1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
@pytest.mark.parametrize("space", spaces_under_test(), ids=short_id)
def test_blocked_screen_at_the_block_boundaries(space, count):
    """Grids of 1, step - 1, step, step + 1 and 3 step + 5 rows against
    100 columns, step = _BLOCK // 100 rows a block, plain and through a
    map's matrix, on the edge entries of the weighted-form test; every
    row at and beside a block boundary is a multiple of p, so the screen
    passes it whole."""
    assert BLOCK_ROWS == 81
    rng = random.Random(f"blocks:{short_id(space)}:{count}")
    k, n = len(space.sfield.basis()), space.dim
    a = edge_rows(rng, count, k * n)
    planted = {i for i in range(count)
               if i % BLOCK_ROWS in (0, BLOCK_ROWS - 1)}
    for i in planted:
        a[i] = tuple(PRIME * x for x in a[i])
    b = edge_rows(rng, BLOCK_COLS, k * n)
    got = blocked_agrees(space, a, b)
    assert all(got[i].all() for i in planted)
    phi = random_linear_map(standard_space(space.sfield, 2), space, rng)
    blocked_agrees(space, edge_rows(rng, count, 2 * k), b, phi.block[0])


def test_blocked_screen_on_a_grid_wider_than_a_block():
    """_BLOCK + 3 columns: each block is part of one row, _BLOCK columns
    and then 3, and the columns at the cut are multiples of p."""
    rng = random.Random("blocks:wide")
    space = spaces_under_test()[3]  # Qi2-gram
    b = edge_rows(rng, perpgrid._BLOCK + 3, 4)
    for j in (perpgrid._BLOCK - 1, perpgrid._BLOCK):
        b[j] = tuple(PRIME * x for x in b[j])
    got = blocked_agrees(space, edge_rows(rng, 3, 4), b)
    assert got[:, perpgrid._BLOCK - 1:perpgrid._BLOCK + 1].all()


def test_blocked_screen_contracts_past_one_chunk():
    """HQ in dimension 17, k n = 68 > _STEP: every block's product, plain
    and through a map's matrix, takes two chunks."""
    rng = random.Random("blocks:chunks")
    space = standard_space(HQ, 17)
    assert 4 * space.dim > perpgrid._STEP
    b = edge_rows(rng, BLOCK_COLS, 68)
    blocked_agrees(space, edge_rows(rng, BLOCK_ROWS + 1, 68), b)
    phi = random_linear_map(standard_space(HQ, 17), space, rng)
    blocked_agrees(space, edge_rows(rng, BLOCK_ROWS + 1, 68), b,
                   phi.block[0])


def test_screen_builds_no_float64_grid():
    """The peak memory tracemalloc sees in one 256 x 256 screen, after a
    warm call, stays below one float64 array of the whole grid: the
    second product lives only in blocks."""
    space = standard_space(HQ, 6)
    rng = np.random.default_rng(29)
    a, b = (rng.integers(-2 ** 62, 2 ** 62, size=(256, 24)) for _ in "ab")
    perpgrid._screen(space, a, b)
    tracemalloc.start()
    try:
        perpgrid._screen(space, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 256 * 8


@pytest.mark.parametrize("space", spaces_under_test(), ids=short_id)
def test_exact_path_agrees_with_screened_path(space, monkeypatch):
    rng = random.Random("paths")
    rows = [random_vector(space, rng).coords for _ in range(12)]
    rows += [space.zero_vector().coords] + planted_rows(space)
    screened = perp_grid(space, rows, rows)
    monkeypatch.setenv("ORTHOSET_LAB_EXACT_GRID", "1")
    pure = perp_grid(space, rows, rows)
    assert (screened == pure).all()


def test_screen_false_zero_is_corrected():
    # a form value that is a nonzero multiple of the screening prime
    # vanishes mod p; the exact confirmation stage has to catch it
    q1 = standard_space(StarSfield.Q, 1)
    u = (F(1),)
    v = (F(PRIME),)
    grid = perp_grid(q1, [u], [v])
    assert not grid[0, 0]
    assert herm_form(q1.vector(u), q1.vector(v)) == F(PRIME)


def test_zero_rows_and_empty_grids():
    q2 = standard_space(StarSfield.Q, 2)
    z = q2.zero_vector().coords
    e = q2.basis_vector(0).coords
    grid = perp_grid(q2, [z, e], [z, e])
    assert grid[0, 0] and grid[0, 1] and grid[1, 0] and not grid[1, 1]
    assert perp_grid(q2, [], [e]).shape == (0, 1)
    zero_dim = standard_space(StarSfield.Q, 0)
    g0 = perp_grid(zero_dim, [()], [()])
    assert g0.shape == (1, 1) and g0[0, 0]


@pytest.mark.parametrize("space", spaces_under_test(), ids=short_id)
def test_candidates_are_the_screen_on_nonzero_rows(space, monkeypatch):
    """row_grid confirms exactly the pairs the screen passes whose rows
    are both nonzero, zero rows on either side included, and its grid
    equals the exact path's."""
    rng = random.Random(f"candidates:{short_id(space)}")
    zero = Ray.zero(space).row
    u = random_nonzero_vector(space, rng)
    partner = Subspace.from_vectors(space, [u]).orthocomplement().basis[0]
    rays = rays_of(space, [random_vector(space, rng) for _ in range(6)]
                   + [u, partner])
    rows_a = [zero] + [r.row for r in rays] + [zero]
    rows_b = [r.row for r in rays[::-1]] + [zero]
    width = len(zero)
    a, b = (perpgrid._int_rows(rows, width) for rows in (rows_a, rows_b))
    screen = perpgrid._screen(space, a, b)
    want = sorted((i, j) for i, j in zip(*np.nonzero(screen))
                  if any(rows_a[i]) and any(rows_b[j]))
    assert want and screen[0].all() and screen[:, -1].all()
    seen = spy_confirm(monkeypatch)
    grid = orthoset.row_grid(space, rows_a, rows_b)
    assert sorted(seen) == want
    monkeypatch.setenv("ORTHOSET_LAB_EXACT_GRID", "1")
    assert (grid == orthoset.row_grid(space, rows_a, rows_b)).all()


def tridiagonal_space(sf, n):
    """The Gram space with a + 2 on the diagonal and 1, i or j next to it
    (its conjugate below): strictly diagonally dominant, hence positive
    definite."""
    up = {Q: F(1), QI: GR(0, 1), HQ: HQ_J}[sf]
    gram = [[F(a + 2) if a == b else up if b == a + 1 else
             sf.star(up) if a == b + 1 else 0 for b in range(n)]
            for a in range(n)]
    return HermitianSpace.create(sf, n, gram)


def larger_spaces():
    """Dimensions 7 and 8 with the identity Gram and with a tridiagonal
    one."""
    return [space for n in (7, 8) for sf in StarSfield
            for space in (standard_space(sf, n), tridiagonal_space(sf, n))]


def space_id(space):
    plain = space == standard_space(space.sfield, space.dim)
    return f"{space.sfield.value}{space.dim}-{'id' if plain else 'gram'}"


@pytest.mark.parametrize("space", larger_spaces(), ids=space_id)
def test_larger_dimensions_match_pairwise_forms(space):
    rng = random.Random(f"large:{space.sfield.value}:{space.dim}")
    half = random_subspace(space, space.dim // 2, rng)
    rows = [random_vector(space, rng) for _ in range(8)]
    rows += list(half.basis) + list(half.orthocomplement().basis)
    coords = [v.coords for v in rows]
    grid = perp_grid(space, coords, coords)
    for a, u in enumerate(rows):
        for b, v in enumerate(rows):
            assert bool(grid[a, b]) == (not herm_form(u, v))
    s = 8 + len(half.basis)
    assert grid[8:s, s:].all()  # S x S-perp


# the number of coordinates whose folded contraction, k n columns, is the
# longest that one chunk of the float64 residue kernel takes
ONE_CHUNK = {sf: perpgrid._STEP // len(sf.basis()) for sf in StarSfield}


@pytest.mark.parametrize("past", [0, 2])
@pytest.mark.parametrize("sfield", list(StarSfield), ids=lambda s: s.value)
def test_contraction_past_the_int64_bound_stays_exact(sfield, past):
    """The longest folded contraction of one chunk of the residue
    kernel, k n = _STEP columns, and two coordinates past it, which take a
    second chunk in both products."""
    # q is the sum of the basis scalars, so every component of -q has the
    # residue PRIME - 1; u = (-q, ..., -q) and v = (-q, ..., -q, (n-1) q)
    # are orthogonal, with star(q) q = k
    n = ONE_CHUNK[sfield] + past
    k = len(sfield.basis())
    assert (k * n > perpgrid._STEP) == (past > 0)
    space = standard_space(sfield, n)
    q = sum(sfield.basis()[1:], sfield.one())
    u = (-q,) * n
    v = (-q,) * (n - 1) + ((n - 1) * q,)
    assert not herm_form(space.vector(u), space.vector(v))
    grid = perp_grid(space, [u, space.basis_vector(0).coords], [v])
    assert grid[0, 0] and not grid[1, 0]


def exact_product_mod(x, y, p):
    """(x @ y) mod p on Python ints, in [0, p)."""
    return (x.astype(object) @ y.astype(object)) % p


@pytest.mark.parametrize("p", [PRIME, min(PRIMES)])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("extra", [0, 2, perpgrid._STEP + 2])
def test_residue_products_at_the_chunk_bound(p, sign, extra):
    """Every product is sign * (p - 1) * (p - 1), and in one row of mixed
    signs: one chunk of _STEP columns sums exactly _STEP (p - 1)**2 <=
    2**52, the bound of _reduce.  Two columns past it take a second chunk,
    and _STEP + 2 past it a third."""
    length = perpgrid._STEP + extra
    x = np.full((3, length), sign * (p - 1), dtype=np.float64)
    y = np.full((length, 2), p - 1, dtype=np.float64)
    x[1, ::3] = -x[1, ::3]  # a row of mixed signs
    got = perpgrid._mul_mod(x, y, p)
    assert (abs(got) <= (p + 1) // 2).all()
    want = exact_product_mod(x.astype(np.int64), y.astype(np.int64), p)
    assert ((got.astype(np.int64) - want) % p == 0).all()


@pytest.mark.parametrize("p", [PRIME, min(PRIMES)])
def test_residue_products_past_2_to_the_53_take_chunks(p):
    """2 _STEP + 2 columns of odd products (p - 2)**2 and one even one:
    their sum is an odd integer past 2**53, which float64 cannot hold, so
    the product is exact only in chunks."""
    length = 2 * perpgrid._STEP + 2
    x = np.full((2, length), p - 2, dtype=np.float64)
    y = np.full((length, 1), p - 2, dtype=np.float64)
    y[0, 0] = p - 3
    exact = (length - 1) * (p - 2) ** 2 + (p - 2) * (p - 3)
    assert exact > 2 ** 53 and exact % 2
    got = perpgrid._mul_mod(x, y, p)
    assert ((got.astype(np.int64) - exact) % p == 0).all()


@pytest.mark.parametrize("p", [PRIME, min(PRIMES), 3])
def test_in_place_reduction_against_python_remainders(p):
    """x - p rint(x / p) at +-2**52, the bound, and next to it, at
    multiples of p and at random values: a signed residue of magnitude at
    most (p + 1) / 2, congruent to x, written into x itself."""
    rng = random.Random(f"reduce:{p}")
    bound = 2 ** 52
    near = [bound - d for d in range(8)] + [bound // p * p, p, p - 1, 1, 0]
    near += [rng.randint(0, bound) for _ in range(200)]
    values = sorted(set(near + [-v for v in near]))
    x = np.array(values, dtype=np.float64)
    assert x.astype(object).tolist() == values  # exact in float64
    out = perpgrid._reduce(x, p)
    assert out is x
    for v, r in zip(values, x.tolist()):
        assert r == int(r) and abs(r) <= (p + 1) // 2
        assert (v - int(r)) % p == 0 and (r == 0) == (v % p == 0)


def exact_form_mod(tables, u, gram, v, p):
    """All k components of the form on every pair of rows, mod p, on
    Python ints: (R, k, C), in [0, p)."""
    mul, mul_star = tables
    u, gram, v = (x.astype(object) for x in (u, gram, v))
    w = np.stack([perpgrid._combine(t, u, gram, np.matmul) for t in mul])
    vt = v.transpose(0, 2, 1)
    f = np.stack([perpgrid._combine(t, w, vt, np.matmul) for t in mul_star])
    return f.transpose(1, 0, 2) % p


@pytest.mark.parametrize("sf,n", [(Q, 3), (Q, 66), (QI, 5), (QI, 33),
                                  (HQ, 4), (HQ, 16), (HQ, 17)],
                         ids=lambda x: getattr(x, "value", x))
def test_form_residues_match_python_ints(sf, n):
    """The folded float64 kernel against the form on Python ints, mod the
    screen's prime and the table's smallest, on planes whose entries are
    0, +-1, +-(p - 1), +-p, +-(p + 1) and 40- to 300-bit integers, with
    folded contractions of one, two and more chunks."""
    rng = random.Random(f"form-residues:{sf.value}:{n}")
    k = len(sf.basis())
    tables = perpgrid._tables(sf)
    for p in (PRIME, min(PRIMES)):
        edges = [0, 1, p - 1, p, p + 1]
        edges += [-e for e in edges] + [
            rng.choice((1, -1)) * rng.getrandbits(rng.randint(40, 300))
            for _ in range(5)]

        def planes(*shape):
            return np.array([rng.choice(edges) for _ in range(math.prod(
                shape))], dtype=object).reshape(shape)
        u, gram, v = planes(k, 5, n), planes(k, n, n), planes(k, 4, n)
        got = perpgrid._form_residues(tables, u, gram, v, p)
        assert got.shape == (5, k, 4)
        want = exact_form_mod(tables, u, gram, v, p)
        assert ((got.astype(np.int64) - want.astype(np.int64)) % p
                == 0).all()


def test_huge_entries_stay_exact():
    # entries overflow int64 by far; reduction mod p plus exact confirm
    # must still decide orthogonality correctly
    q2 = standard_space(StarSfield.Q, 2)
    big = F(10 ** 40 + 1)
    u = (big, F(1))
    v = (F(1), -big)   # <u, v> = big - big = 0
    w = (F(1), big)    # <u, w> = big + big != 0
    grid = perp_grid(q2, [u], [v, w])
    assert grid[0, 0] and not grid[0, 1]


# Grid planes in int64: the height check, -2**63 and the object cast.

def orthogonal_partner(space, u):
    """v = (-star(x^-1 y), 1) for u = (x, y), x != 0: <u, v> = -y + y = 0
    in a standard space."""
    sf = space.sfield
    x, y = u
    return (-sf.star(inv_scalar(x) * y), sf.one())


def spy_loads(monkeypatch):
    """Record every array that `_int_rows` loads, in order."""
    seen = []
    real = perpgrid._int_rows

    def spy(rows, width):
        seen.append(real(rows, width))
        return seen[-1]
    monkeypatch.setattr(perpgrid, "_int_rows", spy)
    return seen


@pytest.mark.parametrize("height", [57, 58, 60, 61])
@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_height_check_picks_the_plane_dtype(sf, height, monkeypatch):
    """u = (a/3 q, 5/7) with a the largest integer of the given bit length
    prime to 3 and q the sum of the basis scalars: its row lcm is 21 and
    its largest scaled entry 7 a.  `row_grid` loads u's side in int64
    while 7 a < 2**63, at heights 57, 58 and 60, and on Python ints at 61,
    where 7 a passes 2**63; either load is an exact copy of the `_row_planes`
    rows.  The grids against an orthogonal partner, a nearby row and e_1
    match the scalar form."""
    space = standard_space(sf, 2)
    q = sum(sf.basis()[1:], sf.one())
    a = next(a for a in range(2 ** height - 1, 0, -2) if a % 3)
    u = (F(a, 3) * q, F(5, 7) * sf.one())
    assert (7 * a > 2 ** 63) == (height == 61)
    v = orthogonal_partner(space, u)
    rows_a = [u, (u[0], u[1] + 1)]
    rows_b = [v, space.basis_vector(0).coords, (v[0], 2 * v[1])]
    loads = spy_loads(monkeypatch)
    grid = perp_grid(space, rows_a, rows_b)
    assert loads[0].dtype == (np.int64 if height < 61 else object)
    exact = np.hstack(perpgrid._row_planes(sf, rows_a, 2)[0])
    assert loads[0].tolist() == exact.tolist()
    for i, x in enumerate(rows_a):
        for j, y in enumerate(rows_b):
            assert bool(grid[i, j]) == (not herm_form(space.vector(x),
                                                      space.vector(y)))
    assert grid[0, 0]


@pytest.mark.parametrize("bits", [62, 63, 64])
def test_scaled_entries_load_as_int64_whatever_the_row_lcm(bits,
                                                          monkeypatch):
    """u = (1/d, 1/e) with coprime d, e whose product, the row lcm, has
    the given bit length: the scaled entries are e and d, each below
    2**34, so `row_grid` loads both sides in int64 however long the lcm
    is."""
    d = _primes_from(2 ** 31, 1)[0]
    e = _primes_from(2 ** (bits - 1) // d + 1, 1)[0]
    assert (d * e).bit_length() == bits
    space = standard_space(Q, 2)
    u = (F(1, d), F(1, e))
    loads = spy_loads(monkeypatch)
    grid = perp_grid(space, [u], [(F(1, e), F(-1, d)), (F(1), F(0))])
    assert grid.tolist() == [[True, False]]
    assert [x.dtype for x in loads] == [np.int64, np.int64]
    assert loads[0].tolist() == [[e, d]]


def test_int_rows_at_the_int64_edges():
    """Rows load in int64 up to +-(2**63 - 1); -2**63, whose abs wraps,
    and anything past int64 load as Python ints."""
    top = 2 ** 63 - 1
    for rows, dtype in [([(top, -top), (0, 1)], np.int64),
                        ([(top, -top - 1)], object),
                        ([(top + 1, 0)], object),
                        ([(0, -top - 2)], object),
                        ([], np.int64)]:
        got = perpgrid._int_rows(rows, 2)
        assert got.dtype == dtype and got.shape == (len(rows), 2)
        assert got.tolist() == [list(r) for r in rows]


def row_vector(space, row):
    """The vector of an integer row in `Ray.row` layout."""
    sf, n = space.sfield, space.dim
    if sf is Q:
        return space.vector(row)
    planes = [row[c:c + n] for c in range(0, len(row), n)]
    return space.vector([sf.scalar_type(*comps) for comps in zip(*planes)])


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_row_grid_with_an_entry_at_minus_2_to_the_63(sf):
    """A row holding -2**63 and rows near it, against rows that make some
    forms vanish exactly: the planes are Python ints, and every cell
    matches the scalar form."""
    space = standard_space(sf, 2)
    k = len(sf.basis())
    low = -2 ** 63

    def row(x, y):  # real parts x, y; the other components 1
        return (x, y) + (1, 1) * (k - 1)
    rows_a = [row(low, 1), row(low + 1, 1), row(1, low)]
    rows_b = [row(1, 2 ** 63), row(2 ** 63 - 1, 0), row(0, 1), row(1, 0)]
    assert perpgrid._int_rows(rows_a, 2 * k).dtype == object
    grid = orthoset.row_grid(space, rows_a, rows_b)
    for i, x in enumerate(rows_a):
        for j, y in enumerate(rows_b):
            assert bool(grid[i, j]) == (not herm_form(row_vector(space, x),
                                                      row_vector(space, y)))


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_exact_path_on_int64_planes_past_2_to_the_63(sf, monkeypatch):
    """u = (2**40 q, 5) against v = (2**24, 0), with q the sum of the
    basis scalars: every component of <u, v> is 2**64, which wraps to 0 in
    int64, so an int64 pair product would call the pair orthogonal.
    `row_grid` loads both sides in int64, and ORTHOSET_LAB_EXACT_GRID=1
    sends every pair to `_exact_zero`, which must cast them to Python
    ints; so must a direct call with int64 planes."""
    space = standard_space(sf, 2)
    q = sum(sf.basis()[1:], sf.one())
    u = (2 ** 40 * q, 5 * sf.one())
    rows_a = [u, (2 ** 40 * q, 7 * sf.one())]
    rows_b = [(2 ** 24 * sf.one(), sf.zero()), orthogonal_partner(space, u),
              (5 * sf.one(), -(2 ** 40) * q)]
    want = np.array([[not herm_form(space.vector(x), space.vector(y))
                      for y in rows_b] for x in rows_a])
    assert not want[0, 0] and want[0, 1]
    monkeypatch.setenv("ORTHOSET_LAB_EXACT_GRID", "1")
    seen = spy_paths(monkeypatch)
    loads = spy_loads(monkeypatch)
    assert (perp_grid(space, rows_a, rows_b) == want).all()
    assert seen == [("ints", 6)]
    assert [x.dtype for x in loads] == [np.int64, np.int64]
    a = perpgrid._row_planes(sf, rows_a, 2)[0].astype(np.int64)
    b = perpgrid._row_planes(sf, rows_b[:1], 2)[0].astype(np.int64)
    gram = perpgrid._int_gram(space).astype(np.int64)
    ii, jj = np.array([0, 1]), np.array([0, 0])
    zero = perpgrid._exact_zero(perpgrid._tables(sf), a, gram, b, ii, jj)
    assert not zero.any()


def grids_agree(space, vectors_a, vectors_b, monkeypatch):
    """perp_grid on the vectors' coordinate rows against row_grid on the
    rows of their rays, screened and under ORTHOSET_LAB_EXACT_GRID=1,
    cell for cell; returns the grid."""
    rows_a, rows_b = ([v.coords for v in vs] for vs in (vectors_a,
                                                        vectors_b))
    rays_a, rays_b = ([r.row for r in rays_of(space, vs)]
                      for vs in (vectors_a, vectors_b))
    grids = []
    for exact in ("", "1"):
        monkeypatch.setenv("ORTHOSET_LAB_EXACT_GRID", exact)
        grids.append(perp_grid(space, rows_a, rows_b))
        grids.append(perpgrid.row_grid(space, rays_a, rays_b))
    monkeypatch.delenv("ORTHOSET_LAB_EXACT_GRID")
    oracle = grids[-2]
    for grid in grids:
        assert grid.shape == (len(rows_a), len(rows_b))
        assert (grid == oracle).all()
    return oracle


def grid_spaces():
    return [space for sf in StarSfield for n in range(2, 9)
            for space in (standard_space(sf, n), tridiagonal_space(sf, n))]


@pytest.mark.parametrize("space", grid_spaces(), ids=space_id)
def test_perp_grid_matches_row_grid_on_rays(space, monkeypatch):
    """Rows of a random S and random rows, against rows of S-perp, random
    rows and the zero row, at every dimension 2 to 8 and on Gram spaces:
    the S x S-perp block is orthogonal, and so is every zero-row cell."""
    rng = random.Random(f"adapter:{space_id(space)}")
    s = random_subspace(space, space.dim // 2, rng)
    rows_a = combinations(s, 6, rng) + [random_vector(space, rng)
                                        for _ in range(4)]
    rows_b = combinations(s.orthocomplement(), 6, rng) + [
        random_vector(space, rng) for _ in range(3)] + [space.zero_vector()]
    grid = grids_agree(space, rows_a, rows_b, monkeypatch)
    assert grid[:6, :6].all() and grid[:, -1].all()


def small_partner_of_minus_2_to_the_63():
    """(x, y) with |x|, |y| < 2**13 and -2**63 x + y a nonzero multiple of
    PRIME, which exists by Dirichlet's approximation theorem."""
    r = pow(2, 63, PRIME)
    return next((x, y) for x in range(1, 2 ** 13)
                for y in ((r * x) % PRIME, (r * x) % PRIME - PRIME)
                if abs(y) < 2 ** 13)


def edge_cases():
    """(id, space, rows_a, rows_b) with integer entries at the int64
    edges, over every sfield, with the identity Gram and a tridiagonal
    one.  The first side, non-negative with entries just under and just
    past 2**63 and up to 2**64 - 1, fits in uint64 but not in int64; the
    second holds their standard partners and -2**63.  The last block, 4
    rows (-2**63, 1) against 4 rows (x, y) whose forms are nonzero
    multiples of PRIME, asks for enough primes only when the height of
    -2**63 is counted in full."""
    top = 2 ** 63
    ends = (top - 1, top + 1, 2 * top - 1)
    x, y = small_partner_of_minus_2_to_the_63()
    for sf in StarSfield:
        for space in (standard_space(sf, 2), tridiagonal_space(sf, 2)):
            def vectors(pairs):
                return [space.vector(tuple(map(sf.coerce, p))) for p in pairs]
            yield (space_id(space), space, vectors((e, 1) for e in ends),
                   vectors([(1, -e) for e in ends] + [(-top, 1), (1, top)]))
        space = standard_space(sf, 2)
        yield (f"{sf.value}-minus", space,
               [space.vector((sf.coerce(-top), sf.one()))] * 4,
               [space.vector((sf.coerce(x), sf.coerce(y)))] * 4)


@pytest.mark.parametrize("case", edge_cases(), ids=lambda c: c[0])
def test_perp_grid_matches_row_grid_at_the_int64_edges(case, monkeypatch):
    name, space, rows_a, rows_b = case
    grid = grids_agree(space, rows_a, rows_b, monkeypatch)
    if name.endswith("minus"):
        assert not grid.any()
    elif space == standard_space(space.sfield, 2):
        assert grid[:, :3].tolist() == np.eye(3, dtype=bool).tolist()


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_perp_grid_matches_row_grid_on_empty_sides(sf, monkeypatch):
    space = standard_space(sf, 3)
    e = [space.basis_vector(0), space.zero_vector()]
    assert grids_agree(space, [], e, monkeypatch).shape == (0, 2)
    assert grids_agree(space, e, [], monkeypatch).shape == (2, 0)
    point = standard_space(sf, 0)
    z = [point.zero_vector()] * 2
    assert grids_agree(point, z, z[:1], monkeypatch).tolist() == [[True]] * 2


def test_perp_grid_reaches_the_kernel_only_through_row_grid(monkeypatch):
    """perp_grid calls row_grid once, and every row load, screen and
    confirmation of the grid runs inside that call."""
    space = standard_space(HQ, 2)
    rows = planted_rows(space) + [space.basis_vector(0).coords,
                                  space.basis_vector(1).coords]
    depth, calls = [0], []
    row_grid = perpgrid.row_grid

    def outer(*args):
        calls.append(("row_grid", depth[0]))
        depth[0] += 1
        try:
            return row_grid(*args)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(perpgrid, "row_grid", outer)
    for name in ("_int_rows", "_screen", "_confirm"):
        def spy(*args, _name=name, _real=getattr(perpgrid, name)):
            calls.append((_name, depth[0]))
            return _real(*args)
        monkeypatch.setattr(perpgrid, name, spy)
    grid = perp_grid(space, rows, rows)
    assert calls == [("row_grid", 0), ("_int_rows", 1), ("_int_rows", 1),
                     ("_screen", 1), ("_confirm", 1)]
    assert grid[2, 3] and grid[3, 2] and not grid[0, 1]


def spy_paths(monkeypatch):
    """Record each confirmation's path: ("residues", pairs, primes) or
    ("ints", pairs)."""
    seen = []
    residue_zero, exact_zero = perpgrid._residue_zero, perpgrid._exact_zero

    def residues(tables, u, gram, v, ii, jj, primes):
        seen.append(("residues", len(ii), len(primes)))
        return residue_zero(tables, u, gram, v, ii, jj, primes)

    def ints(tables, u, gram, v, ii, jj):
        seen.append(("ints", len(ii)))
        return exact_zero(tables, u, gram, v, ii, jj)
    monkeypatch.setattr(perpgrid, "_residue_zero", residues)
    monkeypatch.setattr(perpgrid, "_exact_zero", ints)
    return seen


def multiple_rows(sf, m):
    """u_i = (1, i - 8) and v_j = m t (j - 8, -1) over the sfield sf, with t
    from PLANTED over Qi and HQ and t = 1 over Q, so that
    <u_i, v_j> = m (j - i) star(t): a dense 16 x 16 block whose every cell
    is a multiple of m, orthogonal on the diagonal alone.  Over Qi and HQ
    the real part of every cell is 0, so all of them pass the screen."""
    t = PLANTED.get(sf, F(1))
    return ([(sf.one(), sf.coerce(i - 8)) for i in range(16)],
            [(m * (j - 8) * t, -m * t) for j in range(16)])


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_a_product_of_the_moduli_stays_non_orthogonal(sf, m, monkeypatch):
    """With P the product of the first m PRIMES, the cells next to the
    diagonal are +-P star(t): nonzero, yet zero mod each of those primes
    and so past the screen.  The height bound, bits(P) + 11 to 15 here,
    asks for exactly one prime more, which alone tells P from 0; over Qi
    and HQ only a component other than the real part does."""
    rows_u, rows_v = multiple_rows(sf, math.prod(PRIMES[:m]))
    seen = spy_paths(monkeypatch)
    grid = perp_grid(standard_space(sf, 2), rows_u, rows_v)
    assert seen == [("residues", 256, m + 1)]
    assert (grid == np.eye(16, dtype=bool)).all()


@pytest.mark.parametrize("factor", ["u", "gram", "v"])
def test_the_height_bound_counts_every_factor(factor, monkeypatch):
    """B, the product of PRIMES[1:9], scales one factor of the HQ block
    of multiple_rows(HQ, PRIME): the rows u, the Gram matrix or the rows
    v.  Every cell is then a multiple of the first nine primes, and only a
    bound that counts the scaled factor's height asks for a tenth."""
    b = math.prod(PRIMES[1:9])
    rows_u, rows_v = multiple_rows(HQ, PRIME)
    if factor == "u":
        rows_u = [tuple(b * x for x in row) for row in rows_u]
    if factor == "v":
        rows_v = [tuple(b * x for x in row) for row in rows_v]
    g = b if factor == "gram" else 1
    space = HermitianSpace.create(HQ, 2, [[g, 0], [0, g]])
    seen = spy_paths(monkeypatch)
    grid = perp_grid(space, rows_u, rows_v)
    assert seen == [("residues", 256, 10)]
    assert (grid == np.eye(16, dtype=bool)).all()


def test_few_columns_take_python_ints(monkeypatch):
    """A closure's pattern: ten random rows and 20 rows of S against two
    300-bit rows of S-perp, too few pairs for the residues, so the Python
    ints take the pairs with the sides swapped."""
    rng = random.Random("few-columns")
    space = standard_space(HQ, 4)
    s = random_subspace(space, 2, rng)
    rows_a = [random_vector(space, rng) for _ in range(10)]
    rows_a += combinations(s, 20, rng)
    rows_b = [rng.randint(2 ** 299, 2 ** 300) * v
              for v in s.orthocomplement().basis]
    seen = spy_paths(monkeypatch)
    grid = perp_grid(space, [v.coords for v in rows_a],
                     [v.coords for v in rows_b])
    assert seen == [("ints", 40)]
    for i, u in enumerate(rows_a):
        for j, v in enumerate(rows_b):
            assert bool(grid[i, j]) == (not herm_form(u, v))


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_heights_past_the_moduli_fall_back_to_python_ints(sf, monkeypatch):
    """Every cell is a multiple of the product of all PRIMES, so no
    prefix of the table bounds the height and every residue vanishes."""
    rows_u, rows_v = multiple_rows(sf, math.prod(PRIMES))
    seen = spy_paths(monkeypatch)
    grid = perp_grid(standard_space(sf, 2), rows_u, rows_v)
    assert seen == [("ints", 256)]
    assert (grid == np.eye(16, dtype=bool)).all()


def combinations(subspace, count, rng):
    """count vectors of the subspace, each a combination of its basis with
    random nonzero left coefficients."""
    space = subspace.space
    rows = []
    for _ in range(count):
        v = space.zero_vector()
        for b in subspace.basis:
            v = v + nonzero_scalar(space.sfield, rng) * b
        rows.append(v)
    return rows


def subspace_block(space, size, rng, big=False):
    """The shape of the benchmark's S x S-perp grids: rows in a random S
    and then random rows, against rows in S-perp and then random rows, so
    that the leading half x half block is orthogonal.  With big, every
    row is scaled by a random signed integer of 200 to 500 bits."""
    half = size // 2
    s = random_subspace(space, space.dim // 2, rng)

    def scaled(vectors):
        if big:
            heights = [rng.randint(200, 500) for _ in vectors]
            vectors = [rng.choice((1, -1)) * rng.randint(2 ** (h - 1), 2 ** h)
                       * v for h, v in zip(heights, vectors)]
        return [v.coords for v in vectors]

    rest = size - half
    rows_a = combinations(s, half, rng) + [random_nonzero_vector(space, rng)
                                           for _ in range(rest)]
    rows_b = combinations(s.orthocomplement(), half, rng) + [
        random_nonzero_vector(space, rng) for _ in range(rest)]
    return scaled(rows_a), scaled(rows_b)


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_dense_blocks_take_the_residue_path(sf, monkeypatch):
    """The benchmark's S x S-perp grids, 112 rows a side at dimensions 4
    to 6: no candidate reaches a Python-int pair product."""
    rng = random.Random(f"dense:{sf.value}")
    for n in (4, 5, 6):
        space = standard_space(sf, n)
        rows_a, rows_b = subspace_block(space, 112, rng)
        seen = spy_paths(monkeypatch)
        grid = perp_grid(space, rows_a, rows_b)
        assert [path for path, *_ in seen] == ["residues"]
        assert seen[0][1] >= 56 * 56 and grid[:56, :56].all()
        for i, j in np.argwhere(grid):
            assert not herm_form(Vector(space, rows_a[i]),
                                 Vector(space, rows_b[j]))


def gram_space():
    return HermitianSpace.create(HQ, 3, [[2, HQ_I, 0], [-HQ_I, 2, HQ_J],
                                         [0, -HQ_J, 3]])


@pytest.mark.parametrize("space", [
    standard_space(Q, 5), standard_space(QI, 4), standard_space(HQ, 4),
    gram_space()], ids=short_id)
@pytest.mark.parametrize("big", [False, True], ids=["small", "big"])
def test_dense_blocks_match_the_exact_path(space, big, monkeypatch):
    """S x S-perp blocks mixed with random rows, and with 200-500-bit
    rows, cell for cell against ORTHOSET_LAB_EXACT_GRID=1.  The 200-500-bit
    blocks need 44 to 47 primes; over HQ, with k = 4, that still beats
    Python ints, over Q and Qi it does not."""
    rng = random.Random(f"dense-oracle:{short_id(space)}:{big}")
    rows_a, rows_b = subspace_block(space, 40, rng, big)
    seen = spy_paths(monkeypatch)
    screened = perp_grid(space, rows_a, rows_b)
    wide = space.sfield is HQ
    assert [path for path, *_ in seen] == [
        "ints" if big and not wide else "residues"]
    monkeypatch.setenv("ORTHOSET_LAB_EXACT_GRID", "1")
    seen.clear()
    pure = perp_grid(space, rows_a, rows_b)
    assert seen == [("ints", 40 * 40)]  # the oracle: every pair, Python ints
    assert (screened == pure).all() and screened[:20, :20].all()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), sf=st.sampled_from(list(StarSfield)),
       n=st.integers(2, 4), seed=st.integers(0, 2 ** 16))
def test_confirmation_at_random_heights_and_signs(data, sf, n, seed):
    """Rows of S and of S-perp, and two random rows, each scaled by a
    nonzero integer of random height and sign, against the scalar form."""
    space = standard_space(sf, n)
    rng = random.Random(seed)
    s = random_subspace(space, n // 2, rng)
    rows_a = [random_vector(space, rng) for _ in range(2)]
    rows_a += combinations(s, 8, rng)
    rows_b = [random_vector(space, rng) for _ in range(2)]
    rows_b += combinations(s.orthocomplement(), 8, rng)
    scale = signed_heights(600).filter(bool)
    rows_a, rows_b = ([data.draw(scale) * v for v in rows]
                      for rows in (rows_a, rows_b))
    grid = perp_grid(space, [v.coords for v in rows_a],
                     [v.coords for v in rows_b])
    for i, u in enumerate(rows_a):
        for j, v in enumerate(rows_b):
            assert bool(grid[i, j]) == (not herm_form(u, v))


def reference(phi, rays):
    return [Ray.zero(phi.codomain) if x.is_zero
            else ray_of(_scalar_apply(phi, x.rep)) for x in rays]


def batch(space, rng, count=24):
    """Probe rays plus the zero ray and duplicates, in mixed order."""
    rays = list(ProbeSet.generate(space, seed=5, count=count))
    rays += [rays[0], rays[-1], rays[1], Ray.zero(space)]
    rng.shuffle(rays)
    return rays


def assert_same_rays(got, want):
    assert got == want
    # canonical representatives, not just equal rays
    assert [repr(r) for r in got] == [repr(r) for r in want]


def map_cases():
    """Every space under test and every twist its sfield has, into the
    space itself, a larger standard space and a line."""
    for space in spaces_under_test():
        name = short_id(space)
        for t, sigma in enumerate(twists(space.sfield)):
            for m in (space.dim, space.dim + 1, 1):
                yield pytest.param(space, sigma, m,
                                   id=f"{name}-{sigma.kind}{t}-to{m}")


@pytest.mark.parametrize("space,sigma,m", list(map_cases()))
def test_apply_many_matches_scalar_path(space, sigma, m):
    rng = random.Random(f"apply_many:{space.sfield.value}:{space.dim}:{m}")
    codomain = space if m == space.dim else standard_space(space.sfield, m)
    images = tuple(random_vector(codomain, rng) for _ in range(space.dim))
    phi = SemilinearMap(space, codomain, sigma, images)
    rays = batch(space, rng)
    assert_same_rays(induce(phi).apply_many(rays), reference(phi, rays))
    # one ray at a time through __call__ runs the same kernel
    assert_same_rays([induce(phi)(x) for x in rays], reference(phi, rays))


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_apply_many_on_non_injective_maps(sf):
    rng = random.Random(f"apply_many:partial:{sf.value}")
    space = standard_space(sf, 4)
    rays = batch(space, rng, count=32)
    for quasi in (False, True):
        d, _ = random_partial_isometry(space, space, 1, rng, quasi=quasi)
        got = induce(d.map).apply_many(rays)
        assert_same_rays(got, reference(d.map, rays))
        # a core of dimension 1 has a single proper image ray
        assert len({r for r in got if not r.is_zero}) == 1
    for codomain in (standard_space(sf, 2), standard_space(sf, 0)):
        zero = SemilinearMap.zero(space, codomain)
        got = induce(zero).apply_many(rays)
        assert got == [Ray.zero(codomain)] * len(rays)
        assert_same_rays(got, reference(zero, rays))
    empty = standard_space(sf, 0)
    f = induce(random_linear_map(empty, space, rng))
    assert f.apply_many([Ray.zero(empty)]) == [Ray.zero(space)]
    assert f.apply_many([]) == []


def test_apply_many_fills_and_reads_the_memo():
    rng = random.Random("apply_many:memo")
    space = standard_space(HQ, 3)
    phi = SemilinearMap(space, space, SfieldMorphism.inner(RQ(1, 1, 0, 2)),
                        tuple(random_vector(space, rng) for _ in range(3)))
    rays = list(ProbeSet.generate(space, seed=2, count=12))
    f = induce(phi)
    x, y = rays[4], rays[7]
    fx = f(x)
    assert f.apply_many([x])[0] is fx
    out = f.apply_many(rays + [y, x])
    assert out[4] is fx and out[-1] is fx
    assert out[7] is out[-2] is f(y)
    assert all(f(r) is img for r, img in zip(rays, out))


def huge_scalar(sf, rng):
    """A nonzero scalar whose numerators and denominators pass 2**63."""
    def part():
        return F(rng.randint(2 ** 64, 2 ** 70) * rng.choice((1, -1)),
                 rng.randint(2 ** 63, 2 ** 66))
    if sf is Q:
        return part()
    if sf is QI:
        return GR(part(), part())
    return RQ(part(), part(), part(), part())


def oracle_rep(u):
    """The representative as rays were built from scalars: the vector
    divided on the left by its first nonzero coordinate."""
    for alpha in u.coords:
        if alpha:
            return inv_scalar(alpha) * u
    return None


def oracle_row(rep):
    """The representative's component planes times the lcm of its
    denominators, flattened plane by plane."""
    sf = rep.space.sfield
    comps = [[F(c)] if sf is Q else
             [F(x, c.denominator_int()) for x in c.component_ints()]
             for c in rep.coords]
    den = math.lcm(*(x.denominator for cs in comps for x in cs))
    return tuple(int(cs[p] * den) for p in range(len(comps[0]))
                 for cs in comps)


@pytest.mark.parametrize("space", spaces_under_test(), ids=short_id)
def test_ray_rows_match_the_scalar_oracle(space):
    """Rays held as primitive integer rows: u and c u give one ray and one
    hash, and rep, repr, ray_payload and ray_to_json equal those of the
    scalar representative inv(pivot) u, also past 2**63."""
    sf = space.sfield
    rng = random.Random(f"rayrows:{short_id(space)}")
    vectors = [random_vector(space, rng) for _ in range(12)]
    vectors += [space.vector([huge_scalar(sf, rng) if rng.random() < 0.7
                              else 0 for _ in range(space.dim)])
                for _ in range(6)]
    vectors += [space.zero_vector(), space.basis_vector(space.dim - 1)]
    scales = [nonzero_scalar(sf, rng) if t % 2 else huge_scalar(sf, rng)
              for t in range(len(vectors))]
    multiples = [c * u for c, u in zip(scales, vectors)]
    rays = rays_of(space, vectors)
    assert rays_of(space, multiples) == rays
    for u, x, y in zip(vectors, rays, rays_of(space, multiples)):
        assert x == y and hash(x) == hash(y) and x == ray_of(u)
        rep = oracle_rep(u)
        assert x.rep == rep
        if rep is None:
            assert x.is_zero and not any(x.row)
            assert repr(x) == "Ray(ZERO)" and ray_payload(x) == "zero"
            assert sz.ray_to_json(x)["rep"] == "zero"
            continue
        assert x.row == oracle_row(rep)
        assert repr(x) == f"Ray({', '.join(str(c) for c in rep.coords)})"
        assert ray_payload(x) == [str(c) for c in rep.coords]
        assert sz.ray_to_json(x) == {
            "space": sz.space_to_json(space),
            "rep": [sz.scalar_to_json(c) for c in rep.coords]}
    assert any(abs(v) > 2 ** 63 for x in rays for v in x.row)
    with pytest.raises(InputError):
        rays_of(space, vectors[:1] + [standard_space(sf, space.dim + 1)
                                      .basis_vector(0)])


def test_apply_many_builds_no_scalars(monkeypatch):
    """The map kernel reads the rays' integer rows and returns integer rows:
    a batch of Qi and HQ probe rays is mapped, memoized and compared
    without one scalar object."""
    made = []
    raw = _Components.__dict__["_raw"].__func__  # makes every Qi and HQ scalar

    def counted(cls, *args):
        made.append(cls.__name__)
        return raw(cls, *args)

    monkeypatch.setattr(_Components, "_raw", classmethod(counted))
    rng = random.Random("apply_many:no-scalars")
    for space in spaces_under_test():
        if space.sfield is Q:
            continue
        sigma = list(twists(space.sfield))[-1]
        phi = SemilinearMap(space, space, sigma, tuple(
            random_vector(space, rng) for _ in range(space.dim)))
        rays = list(ProbeSet.generate(space, seed=4, count=64))
        f = induce(phi)
        f(rays[0])  # builds the map's integer matrix
        del made[:]
        images = f.apply_many(rays)
        assert f.apply_many(rays) == images
        assert made == []
        assert_same_rays(images, reference(phi, rays))


def per_ray_oracle(space, fn, calls):
    """oracle_map over fn, logging each call as a one-ray batch."""

    def logged(x):
        calls.append([x])
        return fn(x)

    return oracle_map(space, space, logged)


def batch_oracle(space, fn, calls):
    """The same map as a batch oracle, logging each batch it is given."""

    def logged(rays):
        calls.append(list(rays))
        return [fn(x) for x in rays]

    return RayMap(space, space, oracle=logged)


def test_oracle_maps_loop_through_the_memo():
    space = standard_space(QI, 2)
    rays = list(ProbeSet.generate(space, seed=3, count=6))
    for make in (per_ray_oracle, batch_oracle):
        calls = []
        f = make(space, lambda r: r, calls)
        assert f.apply_many(rays + rays) == rays + rays
        assert [x for batch in calls for x in batch] == rays


@pytest.mark.parametrize("space", spaces_under_test(), ids=short_id)
def test_batched_and_per_ray_oracles_agree(space):
    """A map given as a batch oracle and as a per-ray oracle yields the
    same rays, on the zero ray, duplicates, memo hits and the empty batch;
    the batch oracle sees each new ray once, in one call per batch."""
    rng = random.Random(f"oracle:batch:{space.sfield.value}:{space.dim}")
    phi = SemilinearMap(space, space, list(twists(space.sfield))[-1],
                        tuple(random_vector(space, rng)
                              for _ in range(space.dim)))
    fn = induce(phi)
    rays = batch(space, rng)
    first, second = rays[:len(rays) // 2], rays[len(rays) // 3:]
    per_calls, batch_calls = [], []
    per = per_ray_oracle(space, fn, per_calls)
    bat = batch_oracle(space, fn, batch_calls)
    seen = set()
    for rays_in in ([], first, second, [], second, [Ray.zero(space)] * 3):
        new = list(dict.fromkeys(x for x in rays_in if x not in seen))
        seen.update(rays_in)
        calls_before = len(batch_calls)
        got = bat.apply_many(rays_in)
        assert_same_rays(got, [per(x) for x in rays_in])
        assert_same_rays(got, reference(phi, rays_in))
        assert batch_calls[calls_before:] == ([new] if new else [])
    assert all(len(c) == 1 for c in per_calls)
    assert len(per_calls) == len(seen)


def test_oracle_results_are_checked():
    q2, q3 = standard_space(Q, 2), standard_space(Q, 3)
    foreign = ray_of(q3.vector([1, 2, 0]))
    x = ray_of(q2.vector([1, 1]))
    wrong_space = oracle_map(q2, q2, lambda r: foreign)
    with pytest.raises(InputError, match="wrong space"):
        wrong_space(x)
    with pytest.raises(InputError, match="wrong space"):
        wrong_space.apply_many([x, Ray.zero(q2)])
    for short in (lambda rays: rays[1:], lambda rays: rays + rays[:1]):
        wrong_count = RayMap(q2, q2, oracle=short)
        with pytest.raises(InputError, match="number of rays"):
            wrong_count.apply_many([x, Ray.zero(q2)])
        with pytest.raises(InputError, match="number of rays"):
            wrong_count(x)
        # nothing is memoized from a rejected batch
        assert wrong_count._memo == {}


def test_foreign_rays_are_rejected_by_both_entry_points():
    q2, q3 = standard_space(Q, 2), standard_space(Q, 3)
    f = induce(SemilinearMap.identity(q2))
    foreign = ray_of(q3.vector([1, 2, 0]))
    with pytest.raises(InputError):
        f(foreign)
    with pytest.raises(InputError):
        f.apply_many([ray_of(q2.vector([1, 1])), foreign])
    with pytest.raises(InputError):
        f.apply_many([Ray.zero(q3)])


def _primes_from(start, count):
    out, p = [], start
    while len(out) < count:
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            out.append(p)
        p += 1
    return out


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_planes_past_int64_stay_exact(sf):
    """Numerators near 2**40 over coprime denominators near 2**30: the
    common scale of the map's integer matrix alone is far past 2**63, so a
    cast to int64 would overflow or wrap.  The images of the probes are
    rows of the same height, and they are mapped too."""
    rng = random.Random(f"apply_many:height:{sf.value}")
    n = 3
    dens = iter(_primes_from(2 ** 30, n * n * len(sf.basis())))

    def big():
        return F(rng.randint(2 ** 39, 2 ** 40) * rng.choice((1, -1)),
                 next(dens))

    def scalar():
        if sf is Q:
            return big()
        if sf is QI:
            return GR(big(), big())
        return RQ(big(), big(), big(), big())

    space = standard_space(sf, n)
    images = tuple(space.vector([scalar() for _ in range(n)])
                   for _ in range(n))
    for sigma in twists(sf):
        phi = SemilinearMap(space, space, sigma, images)
        assert max(abs(v) for v in phi.block[0].flat) > 2 ** 63
        rays = list(ProbeSet.generate(space, seed=9, count=24))
        rays += reference(phi, rays)
        assert_same_rays(induce(phi).apply_many(rays), reference(phi, rays))


# The exact product of rows with a map's matrix, through image_rows,
# zero_images and row_grid, against the scalar loop on the vectors the
# rows stand for.

def object_product(rows, matrix):
    """The reference: the exact product of rows and matrix on Python ints."""
    return np.array(rows, dtype=object).reshape(
        len(rows), matrix.shape[0]) @ matrix


def vector_of(space, row):
    """The vector of space whose k integer component planes are the row's,
    which need not be a ray's primitive row."""
    k, n = len(space.sfield.basis()), space.dim
    planes = [row[c * n:c * n + n] for c in range(k)]
    return vectors_from_planes(space, [planes], [1])[0]


def assert_map_products(phi, xs, ys, monkeypatch):
    """image_rows, zero_images and row_grid through phi's matrix K on the
    integer rows xs of its domain, and ys of its codomain for the grid,
    against `_scalar_apply` on the vectors the rows stand for: the ray of
    each image, whether it is zero, and whether its form with each y
    vanishes; screened and under ORTHOSET_LAB_EXACT_GRID=1."""
    dom, cod, matrix = phi.domain, phi.codomain, phi.block[0]
    images = [_scalar_apply(phi, vector_of(dom, x)) for x in xs]
    rows = [ray_of(u).row for u in images]
    dead = [u.is_zero for u in images]
    grid = [[not herm_form(u, vector_of(cod, y)) for y in ys]
            for u in images]
    for exact in ("", "1"):
        with monkeypatch.context() as env:
            env.setenv("ORTHOSET_LAB_EXACT_GRID", exact)
            assert perpgrid.image_rows(cod.sfield, matrix, xs) == rows
            assert perpgrid.zero_images(matrix, xs) == dead
            got = perpgrid.row_grid(cod, xs, ys, matrix)
            assert got.shape == (len(xs), len(ys))
            assert got.tolist() == grid


EDGES_64 = (0, 1, -1, 2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63)
SFIELD_OF_WIDTH = {1: Q, 2: QI, 4: HQ}  # k, the components of a scalar


@pytest.mark.parametrize("k,n", [(1, 1), (1, 7), (2, 5), (4, 5), (4, 10)])
def test_map_products_on_edge_entries(k, n, monkeypatch):
    """A map F^n -> F^3 whose K holds 0, +-1, +-(2**63 - 1), -2**63 and
    200-500 bit entries, with contractions up to k n = 40 (HQ, n = 10),
    on domain rows of the same entries: rows that fit in int64, loaded
    in C; then a row at -2**63 and rows past int64.  The grid's other
    side holds edge rows, the zero row and rows orthogonal to an
    image."""
    sf = SFIELD_OF_WIDTH[k]
    rng = random.Random(f"products:edges:{sf.value}:{n}")
    small = EDGES_64[:5]
    edges = EDGES_64 + tuple(rng.getrandbits(rng.randint(200, 500))
                             * rng.choice((1, -1)) for _ in range(6))
    dom, cod = standard_space(sf, n), standard_space(sf, 3)
    entries = iter(edges * (3 * k * n) + edges)  # every edge, in order

    def scalar():
        parts = [next(entries) for _ in range(k)]
        return (parts[0] if sf is Q else GR(*parts) if sf is QI
                else RQ(*parts))

    phi = SemilinearMap(dom, cod, SfieldMorphism.identity(sf), tuple(
        cod.vector([scalar() for _ in range(3)]) for _ in range(n)))
    matrix = phi.block[0]
    if matrix.size >= len(edges):  # K holds every edge, up to sign
        assert {abs(v) for v in matrix.flat} == {abs(v) for v in edges}
    fitting = [tuple(rng.choice(small) for _ in range(k * n))
               for _ in range(6)]
    wide = [tuple(rng.choice(edges) for _ in range(k * n))
            for _ in range(6)]
    ys = [tuple(rng.choice(edges) for _ in range(3 * k)) for _ in range(4)]
    ys += [(0,) * (3 * k)] + partner_rows(phi, vector_of(dom, wide[0]))
    assert_map_products(phi, fitting, ys, monkeypatch)
    assert_map_products(phi, fitting + [(-2 ** 63,) * (k * n)] + wide, ys,
                        monkeypatch)


def partner_rows(phi, u):
    """The rows of rays of phi's codomain orthogonal to phi(u)."""
    image = _scalar_apply(phi, u)
    perp = Subspace.from_vectors(phi.codomain, [image]).orthocomplement()
    return [r.row for r in rays_of(phi.codomain, perp.basis)]


@pytest.mark.parametrize("k", [1, 2, 4])
def test_map_products_on_empty_and_zero_shapes(k, monkeypatch):
    """Empty row lists, the zero map, and maps to and from
    zero-dimensional spaces, whose K is (k n x 0) or (0 x k m)."""
    sf = SFIELD_OF_WIDTH[k]
    rng = random.Random(f"products:shapes:{sf.value}")
    for n, m in [(0, 3), (3, 0), (0, 0), (3, 2)]:
        dom, cod = standard_space(sf, n), standard_space(sf, m)
        xs = [tuple(rng.getrandbits(300) - 2 ** 299 for _ in range(k * n))
              for _ in range(4)]
        ys = [tuple(rng.getrandbits(300) - 2 ** 299 for _ in range(k * m))
              for _ in range(3)]
        for phi in (SemilinearMap.zero(dom, cod),
                    random_linear_map(dom, cod, rng)):
            assert phi.block[0].shape == (k * n, k * m)
            for count in (0, 1, 4):
                for rows in (xs[:count], [(0,) * (k * n)] * count):
                    assert_map_products(phi, rows, ys, monkeypatch)
                    assert_map_products(phi, rows, [], monkeypatch)


def signed_heights(cap=300):
    """Integers of random height up to cap bits and random sign."""
    return st.integers(0, cap).flatmap(
        lambda b: st.integers(-2 ** b, 2 ** b))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_hq_ray_images_past_int64(n):
    """HQ maps whose integer matrix passes 2**63, on probe rays and on
    their images fed back in, whose rows pass 2**63 too."""
    rng = random.Random(f"limbs:hq:{n}")
    space = standard_space(HQ, n)

    def part():
        return F(rng.randint(2 ** 39, 2 ** 40) * rng.choice((1, -1)),
                 rng.randint(2 ** 30, 2 ** 31))

    images = tuple(space.vector([RQ(part(), part(), part(), part())
                                 for _ in range(n)]) for _ in range(n))
    sigma = list(twists(HQ))[n % 3]
    phi = SemilinearMap(space, space, sigma, images)
    assert max(abs(v) for v in phi.block[0].flat) > 2 ** 63
    rays = list(ProbeSet.generate(space, seed=n, count=8))
    rays += reference(phi, rays)
    assert max(abs(v) for x in rays for v in x.row) > 2 ** 63
    assert_same_rays(induce(phi).apply_many(rays), reference(phi, rays))


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_frame_maps_of_a_zero_subspace(sf):
    """The frame of the zero subspace maps to and from a zero-dimensional
    space: every ray goes to the zero ray."""
    space = standard_space(sf, 3)
    frame = Subspace.zero(space).frame
    assert frame.space.dim == 0
    rays = batch(space, random.Random(f"limbs:zero-frame:{sf.value}"))
    got = induce(frame.projection).apply_many(rays)
    assert got == [Ray.zero(frame.space)] * len(rays)
    assert_same_rays(got, reference(frame.projection, rays))
    zero = [Ray.zero(frame.space)]
    assert_same_rays(induce(frame.inclusion).apply_many(zero),
                     [Ray.zero(space)])


def content_cases():
    """Maps whose integer matrix before division has a content (the gcd
    of its entries) of 81, 122 and 72 bits, and the plain Qi conjugation
    map, whose matrix has content 1.  The Q map's first row holds a
    further factor of 42 that other rows lack, so the content is not the
    gcd of one row.  Each comes with the unscaled map when it is a
    positive rational multiple of one."""
    q3, qi3, hq3 = (standard_space(sf, 3) for sf in (Q, QI, HQ))
    plain = SemilinearMap(q3, q3, SfieldMorphism.identity(Q), (
        q3.vector([2, 4, -6]), q3.vector([1, F(3, 7), 5]),
        q3.vector([F(1, 3), 2, 0])))
    yield pytest.param(plain.scale(2 ** 80), plain, id="Q-scaled")
    # a quaternion of 41-bit components: an inner twist by it
    q = RQ(2 ** 40 + 15, -(2 ** 40 + 77), 2 ** 40 + 3, 2 ** 39 + 1)
    yield pytest.param(left_scalar_map(hq3, q), None, id="HQ-left-scalar")
    conj = conjugation_map(qi3)
    yield pytest.param(conj, conj, id="Qi-conjugation")
    yield pytest.param(conj.scale(F(3 * 2 ** 70, 7)), conj,
                       id="Qi-conjugation-scaled")


@pytest.mark.parametrize("phi,unscaled", list(content_cases()))
def test_map_matrices_are_content_free(phi, unscaled):
    """map_block divides out its content; the result is still a positive
    multiple of the map, so the ray images are those of the scalar path.
    Two content-free positive multiples of one map are equal, so a
    positive rescaling of the map leaves its matrix as it is."""
    matrix = phi.block[0]
    assert math.gcd(*matrix.flat) == 1
    if unscaled is not None:
        assert matrix.tolist() == unscaled.block[0].tolist()
    rays = batch(phi.domain, random.Random(f"content:{phi.sigma.kind}"))
    assert_same_rays(induce(phi).apply_many(rays), reference(phi, rays))


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_matrix_of_the_zero_map_stays_zero(sf):
    """An all-zero matrix has gcd 0 and is not divided; its rays all go
    to the zero ray."""
    space = standard_space(sf, 3)
    zero = SemilinearMap.zero(space, space)
    matrix = zero.block[0]
    assert matrix.shape == (3 * len(sf.basis()),) * 2
    assert not any(matrix.flat)
    rays = batch(space, random.Random(f"content:zero:{sf.value}"))
    got = induce(zero).apply_many(rays)
    assert got == [Ray.zero(space)] * len(rays)
    assert_same_rays(got, reference(zero, rays))


# Grids through a map's matrix: RayMap.image_grid, which reads an induced
# map's images as its domain rows times its matrix, against ray_grid on
# the map's image rays.

def partners(phi, xs):
    """Rays of phi's codomain orthogonal to the image of the first ray of
    xs that phi does not kill, so that a grid holds orthogonal cells
    besides those of zero rays and killed rays."""
    for x in xs:
        u = None if x.is_zero else _scalar_apply(phi, x.rep)
        if u is not None and not u.is_zero:
            perp = Subspace.from_vectors(phi.codomain, [u]).orthocomplement()
            return rays_of(phi.codomain, perp.basis)
    return []


def image_grid(f, xs, ys):
    """f's grid of xs against ys, on their rows as f loads them."""
    return f.image_grid(xs, ys, f.grid_rows(xs, ys))


def image_grids_agree(phi, xs, ys, monkeypatch):
    """P(phi).image_grid(xs, ys) against ray_grid on P(phi)'s image rays,
    screened and under ORTHOSET_LAB_EXACT_GRID=1, cell for cell, each on a
    new map; the image grid fills no memo.  Returns the grid."""
    grids = []
    for exact in ("", "1"):
        monkeypatch.setenv("ORTHOSET_LAB_EXACT_GRID", exact)
        want = ray_grid(phi.codomain, induce(phi).apply_many(xs), ys)
        f = induce(phi)
        got = image_grid(f, xs, ys)
        assert f._memo == {}
        assert got.shape == want.shape == (len(xs), len(ys))
        assert got.tolist() == want.tolist()
        grids.append(got)
    monkeypatch.delenv("ORTHOSET_LAB_EXACT_GRID")
    assert grids[0].tolist() == grids[1].tolist()
    return grids[0]


@pytest.mark.parametrize("space,sigma,m", list(map_cases()))
def test_image_grid_matches_the_image_rays(space, sigma, m, monkeypatch):
    """Every space under test, Gram spaces included, and every twist,
    into the space itself, a larger standard space and a line."""
    rng = random.Random(f"image_grid:{short_id(space)}:{sigma.kind}:{m}")
    codomain = space if m == space.dim else standard_space(space.sfield, m)
    phi = SemilinearMap(space, codomain, sigma, tuple(
        random_vector(codomain, rng) for _ in range(space.dim)))
    xs = batch(space, rng)
    perp = partners(phi, xs)
    grid = image_grids_agree(phi, xs, batch(codomain, rng) + perp,
                             monkeypatch)
    assert len(perp) == m - 1
    assert not perp or grid[:, -len(perp):].any()


def killing_maps(space, rng):
    """(phi, ker phi) for maps of space that kill rays: the orthogonal
    projection onto a random plane, a partial quasiisometry of core 1, a
    twisted map into a plane that kills every x with x_0 = 0, and the
    zero maps into a plane and a point."""
    sf = space.sfield
    s = random_subspace(space, 2, rng)
    yield compose_maps(s.frame.inclusion, s.frame.projection), \
        s.orthocomplement()
    d, _ = random_partial_isometry(space, space, 1, rng, quasi=True)
    yield d.map, d.s1.orthocomplement()
    plane = standard_space(sf, 2)
    first = (random_nonzero_vector(plane, rng),)
    yield SemilinearMap(space, plane, list(twists(sf))[-1], first + (
        plane.zero_vector(),) * (space.dim - 1)), \
        Subspace.from_vectors(space, space.basis()[1:])
    for target in (plane, standard_space(sf, 0)):
        yield SemilinearMap.zero(space, target), Subspace.full(space)


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_image_grid_on_maps_that_kill_rays(sf, monkeypatch):
    """A ray the map kills has the zero image, orthogonal to every ray:
    its nonzero row passes the screen as a candidate and is confirmed on
    its exact image, on standard and Gram spaces."""
    rng = random.Random(f"image_grid:kill:{sf.value}")
    for space in (standard_space(sf, 4), tridiagonal_space(sf, 4)):
        for phi, kernel in killing_maps(space, rng):
            killed = rays_of(space, combinations(kernel, 4, rng))
            assert all(_scalar_apply(phi, x.rep).is_zero for x in killed)
            xs = killed + batch(space, rng, count=12)
            cod = phi.codomain
            ys = (batch(cod, rng, count=12) if cod.dim else
                  [Ray.zero(cod)] * 2) + partners(phi, xs)
            grid = image_grids_agree(phi, xs, ys, monkeypatch)
            assert grid[:len(killed)].all()


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_image_grid_on_empty_and_zero_dimensional_sides(sf, monkeypatch):
    """Empty ray lists, maps out of and into a point, and the frame maps
    of the zero subspace."""
    rng = random.Random(f"image_grid:empty:{sf.value}")
    space, point = standard_space(sf, 3), standard_space(sf, 0)
    phi = random_linear_map(space, standard_space(sf, 2), rng)
    xs, ys = batch(space, rng, count=8), batch(phi.codomain, rng, count=8)
    assert image_grids_agree(phi, [], ys, monkeypatch).shape == (0, len(ys))
    assert image_grids_agree(phi, xs, [], monkeypatch).shape == (len(xs), 0)
    z = [Ray.zero(point)] * 2
    out = random_linear_map(point, space, rng)
    assert image_grids_agree(out, z, xs, monkeypatch).all()
    into = random_linear_map(space, point, rng)
    assert image_grids_agree(into, xs, z[:1], monkeypatch).all()
    frame = Subspace.zero(space).frame
    assert image_grids_agree(frame.projection, xs, z, monkeypatch).all()
    assert image_grids_agree(frame.inclusion, z, xs, monkeypatch).all()


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_image_grid_past_2_to_the_63(sf, monkeypatch):
    """A map whose matrix passes 2**63, on rays whose rows pass it too,
    against rays of the same heights and the partners of an image."""
    rng = random.Random(f"image_grid:huge:{sf.value}")
    space = standard_space(sf, 3)

    def huge_vector():
        return space.vector([huge_scalar(sf, rng) for _ in range(3)])

    for sigma in twists(sf):
        phi = SemilinearMap(space, space, sigma, tuple(
            huge_vector() for _ in range(3)))
        assert max(abs(v) for v in phi.block[0].flat) > 2 ** 63
        xs = rays_of(space, [huge_vector() for _ in range(6)]) + batch(
            space, rng, count=8)
        ys = rays_of(space, [huge_vector() for _ in range(4)]) + \
            partners(phi, xs) + reference(phi, xs[:3])
        assert max(abs(v) for x in xs + ys for v in x.row) > 2 ** 63
        grid = image_grids_agree(phi, xs, ys, monkeypatch)
        assert grid[0, 4:len(ys) - 3].all()


def test_image_grid_contracts_past_one_chunk(monkeypatch):
    """An HQ map out of dimension 17: the image residues contract
    k n = 68 > 64 columns, so the screen's map product takes two
    chunks."""
    rng = random.Random("image_grid:chunks")
    space, codomain = standard_space(HQ, 17), standard_space(HQ, 3)
    assert 4 * space.dim > perpgrid._STEP
    phi = SemilinearMap(space, codomain, list(twists(HQ))[1], tuple(
        random_vector(codomain, rng) for _ in range(space.dim)))
    xs = list(ProbeSet.generate(space, seed=4, count=24))
    perp = partners(phi, xs)
    ys = batch(codomain, rng, count=12) + perp
    grid = image_grids_agree(phi, xs, ys, monkeypatch)
    assert grid[1, -len(perp):].all() and grid[0].all()


def test_image_grid_checks_the_spaces():
    q2, q3 = standard_space(Q, 2), standard_space(Q, 3)
    phi = SemilinearMap(q2, q3, SfieldMorphism.identity(Q),
                        (q3.basis_vector(0), q3.basis_vector(1)))
    xs, ys = rays_of(q2, q2.basis()), rays_of(q3, q3.basis())
    for f in (induce(phi), oracle_map(q2, q3, induce(phi))):
        assert image_grid(f, xs, ys).tolist() == [[False, True, True],
                                                  [True, False, True]]
        with pytest.raises(InputError, match="domain"):
            image_grid(f, ys, ys)
        with pytest.raises(InputError, match="grid's space"):
            image_grid(f, xs, xs)


# Which rays a map kills: RayMap.kills, which reads an induced map's zero
# images off the exact product of the rays' rows with its matrix, against
# the zero rays among its canonicalized images.

def kills_agree(phi, xs):
    """P(phi).kills(xs) against the zero rays of apply_many(xs): on a new
    map, which kills fills no memo of, then with half of the rays
    memoized, and as an oracle.  Returns the verdicts."""
    want = [y.is_zero for y in induce(phi).apply_many(xs)]
    f = induce(phi)
    got = f.kills(xs)
    assert got == want and all(type(dead) is bool for dead in got)
    assert f._memo == {}
    f.apply_many(xs[::2])
    assert f.kills(xs) == want
    assert oracle_map(phi.domain, phi.codomain, induce(phi)).kills(xs) == want
    return want


def rank_one_map(space, sigma, scalar):
    """(phi, ker phi) for a map with the twist sigma onto the line of a
    vector v: e_i goes to c_i v for nonzero scalars c_i drawn by scalar(),
    so phi(x) = sum_i sigma(x_i) c_i v, and ker phi is spanned by
    e_i + sigma^-1(-c_i c_0^-1) e_0 for i >= 1."""
    v = space.vector([scalar() for _ in range(space.dim)])
    c = [scalar() for _ in range(space.dim)]
    phi = SemilinearMap(space, space, sigma, tuple(a * v for a in c))
    e = space.basis()
    kernel = Subspace.from_vectors(space, [
        e[i] + sigma.inverse()(-c[i] * inv_scalar(c[0])) * e[0]
        for i in range(1, space.dim)])
    return phi, kernel


@pytest.mark.parametrize("space", spaces_under_test(), ids=short_id)
def test_kills_matches_the_image_rays(space):
    """Quasiunitary maps after the coordinate map of every twist, partial
    isometries and quasiisometries of every core dimension, a rank-1 map
    of every twist and the zero map, on rays of the kernel and probes."""
    rng = random.Random(f"kills:{short_id(space)}")
    sf = space.sfield
    cases = []
    for sigma in twists(sf):
        twist = SemilinearMap(space, space, sigma, tuple(space.basis()))
        cases.append((compose_maps(random_quasiunitary(space, rng), twist),
                      Subspace.zero(space)))
        cases.append(rank_one_map(space, sigma,
                                  lambda: nonzero_scalar(sf, rng)))
    for core in range(1, space.dim):
        for quasi in (False, True):
            d, _ = random_partial_isometry(space, space, core, rng,
                                           quasi=quasi)
            cases.append((d.map, d.s1.orthocomplement()))
    cases.append((SemilinearMap.zero(space, space), Subspace.full(space)))
    for phi, kernel in cases:
        killed = rays_of(space, combinations(kernel, 3, rng)
                         if kernel.dim else [])
        assert all(_scalar_apply(phi, x.rep).is_zero for x in killed)
        xs = killed + batch(space, rng)
        verdicts = kills_agree(phi, xs)
        assert verdicts[:len(killed)] == [True] * len(killed)
        if kernel.dim == 0:
            assert verdicts == [x.is_zero for x in xs]


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_kills_past_2_to_the_63(sf):
    """A rank-1 map whose matrix passes 2**63 kills rays whose rows pass it
    too: their images cancel only in the exact product."""
    rng = random.Random(f"kills:huge:{sf.value}")
    space = standard_space(sf, 3)
    for sigma in twists(sf):
        phi, kernel = rank_one_map(space, sigma, lambda: huge_scalar(sf, rng))
        assert max(abs(x) for x in phi.block[0].flat) > 2 ** 63
        killed = rays_of(space, list(kernel.basis) + [
            huge_scalar(sf, rng) * kernel.basis[0]
            + huge_scalar(sf, rng) * kernel.basis[1] for _ in range(3)])
        assert max(abs(x) for r in killed for x in r.row) > 2 ** 63
        assert all(_scalar_apply(phi, x.rep).is_zero for x in killed)
        alive = rays_of(space, [space.vector([huge_scalar(sf, rng)
                                              for _ in range(3)])
                                for _ in range(4)])
        verdicts = kills_agree(phi, killed + alive + batch(space, rng))
        assert verdicts[:len(killed)] == [True] * len(killed)
        assert not any(verdicts[len(killed):len(killed) + len(alive)])


def test_kills_checks_the_domain():
    q2, q3 = standard_space(Q, 2), standard_space(Q, 3)
    phi = SemilinearMap.zero(q2, q3)
    for f in (induce(phi), oracle_map(q2, q3, induce(phi))):
        assert f.kills([]) == []
        with pytest.raises(InputError, match="domain"):
            f.kills(rays_of(q3, q3.basis()))


def spy_products(monkeypatch):
    """The rows each `_images` call takes, in order."""
    seen = []
    product = perpgrid._images

    def spy(rows, matrix):
        seen.append([tuple(int(x) for x in row) for row in rows])
        return product(rows, matrix)
    monkeypatch.setattr(perpgrid, "_images", spy)
    return seen


@pytest.mark.parametrize("k", [1, 2, 4])
def test_zero_images_screen_at_its_bound(k, monkeypatch):
    """zero_images against the exact product x M == 0 on Python ints.  M
    kills e_0 and 3 e_1 - e_2 and has entries past 2**63.  The rows are
    the zero row, rows the map kills, p e_1 and p**4 e_1 (nonzero images
    that vanish mod p), rows past int64 and at -2**63, and random rows;
    then the same rows into a zero-dimensional codomain, and rows of a
    zero-dimensional domain.  Only the nonzero rows whose images vanish
    mod p reach the exact product, and ORTHOSET_LAB_EXACT_GRID=1 sends
    every row there with the same verdicts."""
    rng = random.Random(f"zero_images:{k}")
    width, m = 4 * k, 3 * k
    top = [rng.getrandbits(100) - 2 ** 99 for _ in range(m)]
    matrix = np.array([[0] * m, top, [3 * x for x in top]]
                      + [[rng.getrandbits(70) - 2 ** 69 for _ in range(m)]
                         for _ in range(width - 3)], dtype=object)

    def padded(*entries):
        return entries + (0,) * (width - len(entries))

    def signed(bits):
        return rng.getrandbits(bits) - 2 ** (bits - 1)
    rows = [padded(), padded(1), padded(2 ** 80), padded(0, 3, -1),
            padded(5, 3 * 2 ** 90, -2 ** 90), padded(0, PRIME),
            padded(2 ** 70, PRIME ** 4), padded(-2 ** 63, 0, 0, 1),
            padded(0, 0, 0, -2 ** 63)]
    rows += [tuple(signed(rng.choice((3, 40, 120))) for _ in range(width))
             for _ in range(8)]
    seen = spy_products(monkeypatch)
    for cols in (m, 0):
        sub = matrix[:, :cols]
        images = object_product(rows, matrix[:, :cols])
        want = (images == 0).all(axis=1).tolist()
        assert want[:7] == [True] * 5 + [False] * 2 or not cols
        residue_zero = [row for row, img in zip(rows, images)
                        if any(row) and all(v % PRIME == 0 for v in img)]
        seen.clear()
        got = perpgrid.zero_images(sub, rows)
        assert got == want and all(type(dead) is bool for dead in got)
        assert seen == [residue_zero]
        seen.clear()
        with monkeypatch.context() as exact:
            exact.setenv("ORTHOSET_LAB_EXACT_GRID", "1")
            assert perpgrid.zero_images(sub, rows) == want
        assert seen == [rows]
    empty = np.zeros((0, m), dtype=object)
    assert perpgrid.zero_images(empty, [()] * 3) == [True] * 3
    assert perpgrid.zero_images(matrix, []) == []


# The closure of a map's images: RayMap.image_closure, which closes an
# induced map's rays in its domain and maps the basis of their span,
# against perp_closure on the map's image rays.

def closures_agree(phi, rays):
    """P(phi).image_closure(rays) against perp_closure(apply_many(rays)):
    on a new map, which the closure fills no memo of, and as an oracle.
    Returns the closure."""
    want = perp_closure(induce(phi).apply_many(rays))
    f = induce(phi)
    got = f.image_closure(rays)
    assert got == want and got.space is phi.codomain
    assert f._memo == {}
    oracle = oracle_map(phi.domain, phi.codomain, induce(phi))
    assert oracle.image_closure(rays) == want
    return got


def closure_families(space, rng):
    """A probe set, a shuffled batch with duplicates, probe rays of a
    hyperplane and of a line, and the zero ray alone."""
    families = {"probes": list(ProbeSet.generate(space, seed=5, count=24)),
                "batch": batch(space, rng)}
    for dim in {space.dim - 1, 1} - {0}:
        families[f"sub{dim}"] = probe_rays_in(
            random_subspace(space, dim, rng), seed=3, count=8)
    families["zero"] = [Ray.zero(space)]
    return families


@pytest.mark.parametrize("space,sigma,m", list(map_cases()))
def test_image_closure_matches_the_closure_of_the_images(space, sigma, m):
    """Every space under test, Gram spaces included, and every twist,
    into the space itself, a larger standard space and a line."""
    rng = random.Random(f"image_closure:{short_id(space)}:{sigma.kind}:{m}")
    codomain = space if m == space.dim else standard_space(space.sfield, m)
    phi = SemilinearMap(space, codomain, sigma, tuple(
        random_vector(codomain, rng) for _ in range(space.dim)))
    for name, rays in closure_families(space, rng).items():
        got = closures_agree(phi, rays)
        assert got.dim <= min(m, perp_closure(rays).dim), name


@pytest.mark.parametrize("space", spaces_under_test(), ids=short_id)
def test_image_closure_on_maps_that_kill_rays(space):
    """Partial isometries and quasiisometries of every core dimension,
    whose probe images close to the image S2, a rank-1 map of every
    twist, and the zero maps into the space and into a plane."""
    rng = random.Random(f"image_closure:kill:{short_id(space)}")
    sf = space.sfield
    cases = []
    for core in range(1, space.dim + 1):
        for quasi in (False, True):
            d, _ = random_partial_isometry(space, space, core, rng,
                                           quasi=quasi)
            cases.append((d.map, d.s2))
    for sigma in twists(sf):
        phi, _ = rank_one_map(space, sigma, lambda: nonzero_scalar(sf, rng))
        cases.append((phi, Subspace.from_vectors(space, phi.images[:1])))
    for target in (space, standard_space(sf, 2)):
        cases.append((SemilinearMap.zero(space, target),
                      Subspace.zero(target)))
    for phi, image in cases:
        for name, rays in closure_families(space, rng).items():
            got = closures_agree(phi, rays)
            if name == "probes":
                assert got == image
            if name == "zero":
                assert got.dim == 0


def test_image_closure_checks_the_rays():
    """An empty list fixes no space, and a ray of another space, a Gram
    space of the same dimension included, raises apply_many's error."""
    q2, q3 = standard_space(Q, 2), standard_space(Q, 3)
    gram = HermitianSpace.create(Q, 2, [[2, 1], [1, 1]])
    phi = SemilinearMap(q2, q3, SfieldMorphism.identity(Q),
                        (q3.basis_vector(0), q3.basis_vector(1)))
    for f in (induce(phi), oracle_map(q2, q3, induce(phi))):
        with pytest.raises(InputError, match="at least one ray"):
            f.image_closure([])
        for foreign in (rays_of(q3, q3.basis()), rays_of(gram, gram.basis())):
            rays = rays_of(q2, q2.basis()[:1]) + foreign
            with pytest.raises(InputError) as closing:
                f.image_closure(rays)
            with pytest.raises(InputError) as applying:
                f.apply_many(rays)
            assert str(closing.value) == str(applying.value) == \
                "ray is not in the map's domain"
        assert f.image_closure(rays_of(q2, q2.basis())) == \
            Subspace.from_vectors(q3, q3.basis()[:2])
