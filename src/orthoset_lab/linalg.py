"""Row reduction and related machinery over the supported skew fields.

Rows are lists of scalars.  Because the quaternions do not commute, all row
operations multiply from the left only: swap, left-scale by a nonzero
scalar, and add a left multiple of another row.  These preserve the left
row span, and the reduced left-row-echelon form is unique, which gives a
canonical representation of subspaces.  Pivoting picks the first nonzero
column and the topmost nonzero row.

Transform matrices are seeded with plain ints 0 and 1; scalar types promote
them on contact, so callers that persist results should coerce into the
ambient sfield.
"""

from __future__ import annotations

from .errors import InputError
from .scalars import inv_scalar

Row = list
Matrix = list


def copy_matrix(rows) -> Matrix:
    return [list(r) for r in rows]


def _reduce(rows, track: bool) -> tuple[Matrix, Matrix | None, list[int]]:
    """The elimination loop behind rref and rref_with_transform; the
    transform T is kept only when track is set, and is None otherwise."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = copy_matrix(rows)
    t = [[1 if i == j else 0 for j in range(m)] for i in range(m)] \
        if track else None
    pivots: list[int] = []
    pr = 0
    for pc in range(n):
        pivot_row = None
        for i in range(pr, m):
            if r[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            r[pr], r[pivot_row] = r[pivot_row], r[pr]
            if track:
                t[pr], t[pivot_row] = t[pivot_row], t[pr]
        piv_inv = inv_scalar(r[pr][pc])
        r[pr] = [piv_inv * x for x in r[pr]]
        if track:
            t[pr] = [piv_inv * x for x in t[pr]]
        for i in range(m):
            if i != pr and r[i][pc]:
                f = r[i][pc]
                r[i] = [a - f * b for a, b in zip(r[i], r[pr])]
                if track:
                    t[i] = [a - f * b for a, b in zip(t[i], t[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m:
            break
    return r, t, pivots


def rref_with_transform(rows) -> tuple[Matrix, Matrix, list[int]]:
    """Reduce to left-row-echelon form, tracking the transformation.

    Returns (R, T, pivots) where R has the nonzero rows on top in reduced
    echelon form, zero rows at the bottom, and R[i] = sum_j T[i][j] * rows[j].
    """
    return _reduce(rows, True)


def rref(rows) -> tuple[Matrix, list[int]]:
    """Nonzero reduced rows and their pivot columns (no transform
    bookkeeping, which matters when reducing many probe rows)."""
    r, _, pivots = _reduce(rows, False)
    return r[: len(pivots)], pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def left_kernel(rows) -> Matrix:
    """Canonical basis of { c : sum_i c_i * rows[i] = 0 }."""
    if not rows:
        return []
    r, t, pivots = rref_with_transform(rows)
    kernel = [t[i] for i in range(len(pivots), len(rows))]
    if not kernel:
        return []
    return rref(kernel)[0]


def reduce_against(rref_rows, pivots, v) -> tuple[Row, Row]:
    """Eliminate v against reduced rows; returns (residue, coefficients)
    with v = sum_i coeffs[i] * rref_rows[i] + residue."""
    res = list(v)
    coeffs = []
    for row, pc in zip(rref_rows, pivots):
        f = res[pc]
        coeffs.append(f)
        if f:
            res = [a - f * b for a, b in zip(res, row)]
    return res, coeffs


def pivot(row) -> int:
    """The first nonzero column of a row, or -1 for a zero row."""
    return next((j for j, x in enumerate(row) if x), -1)


def plane_coords(u, v, t) -> tuple | None:
    """The unique (a, b) with t = a * u + b * v for left-independent rows u
    and v, or None when t is off their left span.

    The system is solved on the rows' first nonzero columns p of u and q
    of v.  If p < q, column p reads t_p = a u_p, and then column q gives
    b; q < p is the mirror case.  If p = q, w = v - c u with c = v_p u_p^-1
    vanishes at p, and t = (a + b c) u + b w is solved the same way on p
    and the first nonzero column of w.  Each step divides on the right by
    a nonzero pivot, so the pair is the only one that can fit, and it is
    returned only once every coordinate of t checks exactly.  Raises
    InputError for dependent rows."""
    p, q = pivot(u), pivot(v)
    if p < 0 or q < 0:
        raise InputError("plane rows are dependent")
    if p < q:
        a = t[p] * inv_scalar(u[p])
        b = (t[q] - a * u[q]) * inv_scalar(v[q])
    elif q < p:
        b = t[q] * inv_scalar(v[q])
        a = (t[p] - b * v[p]) * inv_scalar(u[p])
    else:
        c = v[p] * inv_scalar(u[p])
        w = [y - c * x for x, y in zip(u, v)]
        r = pivot(w)
        if r < 0:
            raise InputError("plane rows are dependent")
        a = t[p] * inv_scalar(u[p])  # a + b c, as w_p = 0
        b = (t[r] - a * u[r]) * inv_scalar(w[r])
        a = a - b * c
    if any(z != a * x + b * y for x, y, z in zip(u, v, t)):
        return None
    return a, b


def matmul(a, b) -> Matrix:
    """Matrix product preserving multiplication order a[i][k] * b[k][j]."""
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    cols = len(b[0])
    out = []
    for arow in a:
        row = []
        for j in range(cols):
            acc = 0
            for k, aik in enumerate(arow):
                if aik:
                    acc = acc + aik * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def matrix_inverse(m) -> Matrix:
    """Two-sided inverse of a square matrix over a skew field."""
    size = len(m)
    if size == 0:
        return []
    if any(len(row) != size for row in m):
        raise InputError("matrix is not square")
    r, t, pivots = rref_with_transform(m)
    if len(pivots) != size:
        raise InputError("matrix is not invertible")
    return t
