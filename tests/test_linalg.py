import random
from fractions import Fraction as F

import pytest

from orthoset_lab import linalg
from orthoset_lab.errors import InputError
from orthoset_lab.scalars import (
    RationalQuaternion as RQ, HQ_I, HQ_J, HQ_K, inv_scalar)
from orthoset_lab.starfields import StarSfield


def random_matrix(sf, rows, cols, rng):
    return [[sf.random_scalar(rng) for _ in range(cols)] for _ in range(rows)]


def is_reduced_echelon(rows, pivots):
    for r, pc in enumerate(pivots):
        if rows[r][pc] != 1 and not rows[r][pc] == rows[r][pc] - rows[r][pc] + 1:
            return False
        for j in range(pc):
            if rows[r][j]:
                return False
        for r2 in range(len(rows)):
            if r2 != r and rows[r2][pc]:
                return False
    return True


@pytest.mark.parametrize("sf", list(StarSfield))
def test_rref_is_canonical_and_idempotent(sf):
    rng = random.Random(f"rref:{sf.value}")
    for _ in range(25):
        m = random_matrix(sf, rng.randint(1, 5), rng.randint(1, 5), rng)
        red, pivots = linalg.rref(m)
        assert is_reduced_echelon(red, pivots)
        again, pivots2 = linalg.rref(red)
        assert again == red and pivots2 == pivots


@pytest.mark.parametrize("sf", list(StarSfield))
def test_rref_invariant_under_left_row_mixing(sf):
    rng = random.Random(f"mix:{sf.value}")
    for _ in range(15):
        n = rng.randint(2, 4)
        m = random_matrix(sf, n, n + 1, rng)
        # left-multiply by a random invertible square matrix
        while True:
            t = random_matrix(sf, n, n, rng)
            if len(linalg.rref(t)[1]) == n:
                break
        mixed = linalg.matmul(t, m)
        assert linalg.rref(mixed)[0] == linalg.rref(m)[0]


def test_rref_transform_tracks_combination():
    rng = random.Random("transform")
    for sf in StarSfield:
        m = random_matrix(sf, 4, 3, rng)
        red, t, pivots = linalg.rref_with_transform(m)
        for i, row in enumerate(red):
            combo = [0] * 3
            for j, c in enumerate(t[i]):
                if c:
                    combo = [acc + c * x for acc, x in zip(combo, m[j])]
            assert [sf.coerce(x) for x in combo] == \
                   [sf.coerce(x) for x in row]


@pytest.mark.parametrize("sf", list(StarSfield))
def test_left_kernel_annihilates_and_is_complete(sf):
    rng = random.Random(f"kern:{sf.value}")
    for _ in range(20):
        rows = random_matrix(sf, rng.randint(1, 5), rng.randint(1, 4), rng)
        kernel = linalg.left_kernel(rows)
        for c in kernel:
            combo = [0] * len(rows[0])
            for ci, row in zip(c, rows):
                if ci:
                    combo = [acc + ci * x for acc, x in zip(combo, row)]
            assert not any(sf.coerce(x) for x in combo)
        assert len(kernel) + linalg.rank(rows) == len(rows)


def nonzero_scalar(sf, rng):
    while True:
        c = sf.random_scalar(rng)
        if c:
            return c


def combine(a, u, b, v):
    return [a * x + b * y for x, y in zip(u, v)]


def plane_oracle(u, v, t):
    """(a, b) with t = a u + b v, read off rref_with_transform of [u, v]
    and the reduction of t against it, or None for t off the plane."""
    red, trans, pivots = linalg.rref_with_transform([u, v])
    residue, coeffs = linalg.reduce_against(red[:len(pivots)], pivots, t)
    if any(residue):
        return None
    out = [0, 0]
    for c, trow in zip(coeffs, trans[:len(pivots)]):
        out = [acc + c * tk for acc, tk in zip(out, trow)]
    return tuple(out)


def test_coords_in_rows_round_trip():
    """plane_coords recovers the coefficients of a combination of two
    independent rows over every sfield."""
    rng = random.Random("coords")
    for sf in StarSfield:
        while True:
            u, v = random_matrix(sf, 2, 4, rng)
            if linalg.rank([u, v]) == 2:
                break
        a, b = sf.random_scalar(rng), sf.random_scalar(rng)
        t = combine(a, u, b, v)
        assert linalg.plane_coords(u, v, t) == (a, b)


def test_in_row_span_negative():
    u, v = [F(1), F(0), F(0)], [F(0), F(1), F(0)]
    assert linalg.plane_coords(u, v, [F(1), F(2), F(0)]) == (1, 2)
    assert linalg.plane_coords(u, v, [F(0), F(0), F(1)]) is None
    for w in ([F(2), F(0), F(0)], [F(0)] * 3):
        with pytest.raises(InputError, match="dependent"):
            linalg.plane_coords(u, w, [F(1), F(0), F(0)])


def pivoted_row(sf, n, pivot, rng, canonical):
    """A random row whose first nonzero column is pivot; a canonical row
    (pivot entry 1) is then left-scaled by a random nonzero scalar."""
    row = [sf.coerce(0)] * pivot + [nonzero_scalar(sf, rng)] + \
        [sf.random_scalar(rng) for _ in range(n - pivot - 1)]
    if canonical:
        lead = inv_scalar(row[pivot])
        row = [nonzero_scalar(sf, rng) * (lead * x) for x in row]
    return row


@pytest.mark.parametrize("sf", list(StarSfield), ids=lambda s: s.value)
def test_plane_coords_matches_rref_with_transform(sf):
    """The pivot solve against the transform of a scalar rref: pivot
    orders p < q, p > q and p = q, raw and left-scaled canonical rows,
    targets on the plane (one coefficient zero included) and off it."""
    rng = random.Random(f"plane:{sf.value}")
    n = 4
    seen = {"p<q": 0, "p>q": 0, "p=q": 0, "off": 0}
    for p, q in [(0, 1), (1, 0), (0, 2), (3, 1), (0, 0), (1, 1), (2, 2)]:
        for canonical in (False, True):
            while True:
                u = pivoted_row(sf, n, p, rng, canonical)
                v = pivoted_row(sf, n, q, rng, canonical)
                if linalg.rank([u, v]) == 2:
                    break
            a, b = nonzero_scalar(sf, rng), nonzero_scalar(sf, rng)
            targets = [combine(a, u, b, v), combine(a, u, 0, v),
                       combine(0, u, b, v), [sf.coerce(0)] * n]
            targets += [[sf.random_scalar(rng) for _ in range(n)]
                        for _ in range(3)]
            on = targets[0]
            targets.append(on[:-1] + [on[-1] + 1])
            for t in targets:
                want = plane_oracle(u, v, t)
                got = linalg.plane_coords(u, v, t)
                if want is None:
                    assert got is None
                    seen["off"] += 1
                else:
                    assert got == tuple(sf.coerce(c) for c in want)
                    assert combine(got[0], u, got[1], v) == t
            seen["p<q" if p < q else "p>q" if p > q else "p=q"] += 1
    assert all(seen.values())


def test_matmul_keeps_multiplication_order():
    assert linalg.matmul([[HQ_I]], [[HQ_J]]) == [[HQ_K]]
    assert linalg.matmul([[HQ_J]], [[HQ_I]]) == [[-HQ_K]]


def test_matrix_inverse_two_sided_over_quaternions():
    rng = random.Random("inv")
    for _ in range(10):
        while True:
            m = random_matrix(StarSfield.HQ, 3, 3, rng)
            if len(linalg.rref(m)[1]) == 3:
                break
        m_inv = linalg.matrix_inverse(m)
        ident = [[RQ(1) if i == j else RQ(0) for j in range(3)] for i in range(3)]
        left = [[StarSfield.HQ.coerce(x) for x in row]
                for row in linalg.matmul(m_inv, m)]
        right = [[StarSfield.HQ.coerce(x) for x in row]
                 for row in linalg.matmul(m, m_inv)]
        assert left == ident and right == ident


def test_matrix_inverse_rejects_singular():
    with pytest.raises(InputError):
        linalg.matrix_inverse([[F(1), F(2)], [F(2), F(4)]])
    with pytest.raises(InputError):
        linalg.matrix_inverse([[F(1), F(2)]])


def test_empty_edges():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.left_kernel([]) == []
    assert linalg.matrix_inverse([]) == []
    assert linalg.matmul([], []) == []
