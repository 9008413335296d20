"""The residue-screened orthogonality grids must agree with plain exact
evaluation pair by pair, on every sfield, whatever the path taken."""

import random
from fractions import Fraction as F

import pytest

from orthoset_lab.hermspace import (
    HermitianSpace,
    herm_form,
    random_subspace,
    random_vector,
    standard_space,
)
from orthoset_lab.perpgrid import PRIME, perp_grid
from orthoset_lab.scalars import GaussianRational as GR
from orthoset_lab.starfields import StarSfield


def test_prime_is_prime_and_sized():
    assert 2 ** 27 < PRIME < 2 ** 28
    for d in range(2, 1 << 14):
        assert PRIME % d != 0


def spaces_under_test():
    i = GR(0, 1)
    return [
        standard_space(StarSfield.Q, 3),
        HermitianSpace.create(StarSfield.Q, 2, [[2, 1], [1, 1]]),
        standard_space(StarSfield.QI, 3),
        HermitianSpace.create(StarSfield.QI, 2, [[2, i], [-i, 1]]),
        standard_space(StarSfield.HQ, 3),
        HermitianSpace.create(StarSfield.HQ, 2, [[1, 0], [0, F(5, 2)]]),
    ]


@pytest.mark.parametrize("space", spaces_under_test(),
                         ids=lambda s: f"{s.sfield.value}{s.dim}")
def test_grid_matches_pairwise_forms(space):
    rng = random.Random(f"grid:{space.sfield.value}:{space.dim}")
    rows = [random_vector(space, rng) for _ in range(18)]
    rows.append(space.zero_vector())
    rows.append(space.basis_vector(0))
    coords = [v.coords for v in rows]
    grid = perp_grid(space, coords, coords)
    for a, u in enumerate(rows):
        for b, v in enumerate(rows):
            assert bool(grid[a, b]) == (not herm_form(u, v))


@pytest.mark.parametrize("space", spaces_under_test(),
                         ids=lambda s: f"{s.sfield.value}{s.dim}")
def test_exact_path_agrees_with_screened_path(space, monkeypatch):
    rng = random.Random("paths")
    rows = [random_vector(space, rng).coords for _ in range(12)]
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


def larger_spaces():
    """Dimensions 7 and 8 with the identity Gram and with a non-identity
    one: tridiagonal for Q and Qi, diagonal for HQ."""
    i = GR(0, 1)
    off = {StarSfield.Q: (1, 1), StarSfield.QI: (i, -i),
           StarSfield.HQ: (0, 0)}
    spaces = []
    for n in (7, 8):
        for sf in StarSfield:
            up, down = off[sf]
            gram = [[F(a + 2) if a == b else up if b == a + 1 else
                     down if a == b + 1 else 0 for b in range(n)]
                    for a in range(n)]
            spaces.append(standard_space(sf, n))
            spaces.append(HermitianSpace.create(sf, n, gram))
    return spaces


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


# the longest contraction whose k signed residue products per output
# component stay inside int64: (2**63 - 1) // (k * (PRIME - 1)**2)
CONTRACTION_BOUND = {StarSfield.Q: 128, StarSfield.QI: 64, StarSfield.HQ: 32}


@pytest.mark.parametrize("past", [0, 2])
@pytest.mark.parametrize("sfield", list(StarSfield), ids=lambda s: s.value)
def test_contraction_past_the_int64_bound_stays_exact(sfield, past):
    # q is the sum of the basis scalars, so every component of -q has the
    # residue PRIME - 1; u = (-q, ..., -q) and v = (-q, ..., -q, (n-1) q)
    # are orthogonal, with star(q) q = k
    n = CONTRACTION_BOUND[sfield] + past
    space = standard_space(sfield, n)
    q = sum(sfield.basis()[1:], sfield.one())
    u = (-q,) * n
    v = (-q,) * (n - 1) + ((n - 1) * q,)
    assert not herm_form(space.vector(u), space.vector(v))

    def comps(x):
        return (x.numerator,) if sfield is StarSfield.Q else x.component_ints()
    # the real component of u star(v) sums these products of residues
    total = sum(a % PRIME * (b % PRIME) for x, y in zip(u, v)
                for a, b in zip(comps(x), comps(y)))
    assert (total > 2 ** 63 - 1) == (past > 0)
    grid = perp_grid(space, [u, space.basis_vector(0).coords], [v])
    assert grid[0, 0] and not grid[1, 0]


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
