import random
from fractions import Fraction as F

import pytest

from orthoset_lab import linalg
from orthoset_lab.errors import InputError
from orthoset_lab.scalars import RationalQuaternion as RQ, HQ_I, HQ_J, HQ_K
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


def test_coords_in_rows_round_trip():
    rng = random.Random("coords")
    for sf in StarSfield:
        rows = random_matrix(sf, 3, 4, rng)
        coeffs = [sf.random_scalar(rng) for _ in range(3)]
        v = [0, 0, 0, 0]
        for c, row in zip(coeffs, rows):
            v = [acc + c * x for acc, x in zip(v, row)]
        got = linalg.coords_in_rows(rows, v)
        assert got is not None
        rebuilt = [0, 0, 0, 0]
        for c, row in zip(got, rows):
            rebuilt = [acc + c * x for acc, x in zip(rebuilt, row)]
        assert [sf.coerce(a) for a in rebuilt] == [sf.coerce(a) for a in v]


def test_in_row_span_negative():
    rows = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    assert linalg.coords_in_rows(rows, [F(1), F(2), F(0)]) is not None
    assert linalg.coords_in_rows(rows, [F(0), F(0), F(1)]) is None


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
