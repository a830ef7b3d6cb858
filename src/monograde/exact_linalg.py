"""Exact integer linear algebra on Python integers.

Rational questions (rank, inverses of unimodular matrices, and the
solves and start cones of ``cone`` and ``divisorial``) all run on one
fraction-free Gauss-Jordan kernel,
``_eliminate``, which never leaves the integers.  Lattice questions
need a unimodular transform.  The Hermite form serves lattice bases,
kernels and integer solves, by back-substitution in
``lattice_coordinates``; the Smith form serves elementary divisors and
the unimodular basis change of ``cone``'s lineality quotient.  Matrices
are ``IntMatrix`` values, immutable tuples of row tuples of Python
ints, so nothing here can overflow; the kernels work on mutable row
lists inside.

All three kernels share one convention: pivots come from the first
columns, and further columns ride along.  ``_eliminate`` carries
right-hand sides or an identity block that way, and ``hnf`` carries its
row transform.  The Smith kernel ``_smith`` reduces the first n columns
of the rows it is handed: ``_smith_left`` hands it the row transform
beside the matrix, and ``elementary_divisors`` the bare matrix, so each
caller pays for the transform it reads and each operation is written
once.

Conventions: matrices act on column vectors.  Lattices are handled as
row-generator matrices; ``row_lattice_basis`` returns the canonical
(Hermite) basis of the row span.
"""

from __future__ import annotations

import math
from operator import mul

Vec = tuple[int, ...]


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def as_tuple(v) -> Vec:
    """The entries of v as a tuple of ints.  Integral values such as 2.0
    are taken; any other value, such as 2.7 or 1/2, raises ValueError
    instead of being truncated."""
    v = tuple(v)
    t = tuple(map(int, v))
    if t != v:
        raise ValueError("not an integer vector: %r" % (v,))
    return t


class IntMatrix(tuple):
    """An immutable integer matrix: a tuple of equal-length row tuples.

    ``m[i]`` is a row and ``m[i, j]`` an entry; ``a @ b`` multiplies
    matrices, ``a @ v`` applies a matrix to a vector and ``v @ a``
    combines its rows, both giving a tuple.  The width is kept, so a
    matrix without rows still has a shape; it is required when ``rows``
    is empty and checked otherwise.
    """

    def __new__(cls, rows, width: int | None = None):
        self = super().__new__(cls, map(as_tuple, rows))
        self._width = len(self[0]) if self and width is None else width
        if self._width is None:
            raise ValueError("width is required for an empty matrix")
        if any(len(row) != self._width for row in self):
            raise ValueError("rows have inconsistent lengths")
        return self

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self._width

    @property
    def T(self) -> IntMatrix:
        return IntMatrix(zip(*self) if self else [()] * self._width, len(self))

    def __getitem__(self, key):
        if isinstance(key, tuple):
            return tuple.__getitem__(self, key[0])[key[1]]
        return tuple.__getitem__(self, key)

    def __matmul__(self, other):
        if len(other) != self._width:
            raise ValueError("matrix shapes do not match")
        if isinstance(other, IntMatrix):
            cols = other.T
            return IntMatrix([[_dot(row, c) for c in cols] for row in self], other._width)
        return tuple(_dot(row, other) for row in self)

    def __rmatmul__(self, v):
        if len(v) != len(self):
            raise ValueError("matrix shapes do not match")
        return tuple(sum(c * row[j] for c, row in zip(v, self)) for j in range(self._width))


def _as_matrix(a, width: int | None = None) -> IntMatrix:
    return a if isinstance(a, IntMatrix) else IntMatrix(a, width)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    g, r = int(a), int(b)
    while r:
        q = g // r
        g, r = r, g - q * r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if g < 0:
        g, x0, y0 = -g, -x0, -y0
    return g, x0, y0


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) on integer rows.

    Pivots are taken in the first ``ncols`` columns, leftmost first;
    further columns ride along as right-hand sides.  Returns
    ``(rows, pivot_cols, d)``: the k-th row has the entry ``d`` in
    column ``pivot_cols[k]`` and zeros in every other pivot column, and
    the rows after the pivot rows are zero in the first ``ncols``
    columns.  Every entry stays a minor of the input, so each division
    is exact; for a nonsingular square block, ``d`` is its determinant
    up to sign.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    d = 1
    for j in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        pv = top[j]
        for i, row in enumerate(rows):
            if i != r:
                f = row[j]
                rows[i] = [(pv * x - f * y) // d for x, y in zip(row, top)]
        d = pv
        pivots.append(j)
    return rows, pivots, d


def _identity(n: int) -> list[list[int]]:
    return [[int(i == k) for k in range(n)] for i in range(n)]


def _with_identity(a) -> list[list[int]]:
    """The rows ``a_i + e_i`` of ``[A | I]``, for a transform to ride along."""
    return [list(row) + e for row, e in zip(a, _identity(len(a)))]


def _combine_rows(m: list[list[int]], r: int, i: int, s: int, t: int, u: int, v: int) -> None:
    # row_r' = s*row_r + t*row_i ; row_i' = -v*row_r + u*row_i ; s*u + t*v = 1
    a, b = m[r], m[i]
    m[r] = [s * x + t * y for x, y in zip(a, b)]
    m[i] = [u * y - v * x for x, y in zip(a, b)]


def _combine_cols(m: list[list[int]], c: int, j: int, s: int, t: int, u: int, v: int) -> None:
    # col_c' = s*col_c + t*col_j ; col_j' = -v*col_c + u*col_j
    for row in m:
        x, y = row[c], row[j]
        row[c], row[j] = s * x + t * y, u * y - v * x


def _sub_row(m: list[list[int]], i: int, q: int, r: int) -> None:
    # row_i' = row_i - q*row_r
    m[i] = [x - q * y for x, y in zip(m[i], m[r])]


def _sub_col(m: list[list[int]], j: int, q: int, c: int) -> None:
    # col_j' = col_j - q*col_c
    for row in m:
        row[j] -= q * row[c]


def _swap_cols(m: list[list[int]], c: int, j: int) -> None:
    for row in m:
        row[c], row[j] = row[j], row[c]


def hnf(a) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with H = U @ A, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows at the bottom.
    The nonzero rows of H are the canonical basis of the row lattice of A.
    The rows ``a_i + e_i`` are reduced with pivots in the first n columns,
    so U rides along in the last m columns.
    """
    a = _as_matrix(a)
    m, n = a.shape
    h = _with_identity(a)
    r = 0
    for j in range(n):
        if r == m:
            break
        for i in range(r + 1, m):
            if h[i][j] == 0:
                continue
            g, s, t = xgcd(h[r][j], h[i][j])
            _combine_rows(h, r, i, s, t, h[r][j] // g, h[i][j] // g)
        if h[r][j] == 0:
            continue
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
        piv = h[r][j]
        for i in range(r):
            q = h[i][j] // piv
            if q:
                _sub_row(h, i, q, r)
        r += 1
    return IntMatrix((row[:n] for row in h), n), IntMatrix((row[n:] for row in h), m)


def row_lattice_basis(a) -> IntMatrix:
    """Canonical basis (nonzero Hermite rows) of the lattice spanned by the rows."""
    h, _ = hnf(a)
    return IntMatrix([row for row in h if any(row)], h.shape[1])


def rank(a) -> int:
    """Rank over Q of a matrix given as an IntMatrix or a sequence of rows."""
    rows = [list(as_tuple(row)) for row in a]
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


def _smith(s: list[list[int]], n: int) -> list[list[int]]:
    """Smith-reduce the first n columns of the rows ``s`` in place, and
    return them.

    Row operations act on whole rows and column operations on the first
    n columns, so columns past n ride along as a row transform.  The
    pivots depend on the first n columns alone, so what rides along
    never changes the diagonal.
    """
    m = len(s)
    k = min(m, n)
    for t in range(k):
        # choose the first remaining entry of least absolute value as
        # pivot, in row-major order; nothing beats a unit, so stop there
        best, least = None, 0
        for i in range(t, m):
            for j in range(t, n):
                x = abs(s[i][j])
                if x and (best is None or x < least):
                    best, least = (i, j), x
            if least == 1:
                break
        if best is None:
            break
        bi, bj = best
        if bi != t:
            s[t], s[bi] = s[bi], s[t]
        if bj != t:
            _swap_cols(s, t, bj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] == 0:
                    continue
                if s[i][t] % s[t][t] == 0:
                    # plain subtraction never disturbs the pivot row
                    _sub_row(s, i, s[i][t] // s[t][t], t)
                    continue
                g, cs, ct = xgcd(s[t][t], s[i][t])
                dirty = True
                _combine_rows(s, t, i, cs, ct, s[t][t] // g, s[i][t] // g)
            for j in range(t + 1, n):
                if s[t][j] == 0:
                    continue
                if s[t][j] % s[t][t] == 0:
                    _sub_col(s, j, s[t][j] // s[t][t], t)
                    continue
                g, cs, ct = xgcd(s[t][t], s[t][j])
                dirty = True
                _combine_cols(s, t, j, cs, ct, s[t][t] // g, s[t][j] // g)
    for i in range(k):
        if s[i][i] < 0:
            s[i] = [-x for x in s[i]]
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a0, b0 = s[i][i], s[i + 1][i + 1]
            if a0 == 0 and b0 != 0:
                s[i], s[i + 1] = s[i + 1], s[i]
                _swap_cols(s, i, i + 1)
                changed = True
            elif a0 and b0 and b0 % a0:
                g, cs, ct = xgcd(a0, b0)
                _combine_rows(s, i, i + 1, cs, ct, a0 // g, b0 // g)
                # paired column transform keeps the product diagonal: diag(g, a*b/g)
                _combine_cols(s, i, i + 1, 1, 1, cs * (a0 // g), ct * (b0 // g))
                changed = True
    return s


def _smith_left(a) -> tuple[list[int], IntMatrix]:
    """The diagonal of the Smith form S = U @ A @ V, min(m, n) entries,
    and U, for callers that never read V: only ``[A | I]`` is reduced."""
    m, n = a.shape
    s = _smith(_with_identity(a), n)
    return [s[i][i] for i in range(min(m, n))], IntMatrix((row[n:] for row in s), m)


def elementary_divisors(a) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order.  Only
    the bare matrix is reduced: no transform rides along."""
    a = _as_matrix(a)
    m, n = a.shape
    s = _smith([list(row) for row in a], n)
    return tuple(s[i][i] for i in range(min(m, n)) if s[i][i] != 0)


def primitive(v) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    w = as_tuple(v)
    g = math.gcd(*w)
    if g == 1:
        return w
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(x // g for x in w)


def kernel_basis(a, width: int | None = None) -> IntMatrix:
    """Canonical row basis of the integer kernel {x : A @ x = 0}.

    The kernel of an integer matrix is saturated, so this basis spans
    every rational kernel vector that happens to be integral.
    """
    a = _as_matrix(a, width)
    h, u = hnf(a.T)
    zero = [row for hrow, row in zip(h, u) if not any(hrow)]
    return row_lattice_basis(zero) if zero else IntMatrix((), a.shape[1])


def lattice_coordinates(basis, v) -> Vec | None:
    """The x with x @ basis = v, or None when v is not in the row lattice.

    ``basis`` must be a row echelon form without zero rows, such as a
    ``row_lattice_basis``.  Later rows vanish at a row's pivot, so each
    coordinate is the quotient there, and v is in the lattice iff
    nothing is left over.
    """
    rest = list(as_tuple(v))
    if len(rest) != basis.shape[1]:
        raise ValueError("vector length does not match the basis")
    x = []
    for row in basis:
        j = next(j for j, c in enumerate(row) if c)
        q = rest[j] // row[j]
        x.append(q)
        if q:
            rest = [a - q * b for a, b in zip(rest, row)]
    return None if any(rest) else tuple(x)


def unimodular_inverse(m) -> IntMatrix:
    """Inverse of a unimodular integer matrix, exactly.

    Elimination of [M | I] leaves [d*I | d*M^-1], and M is unimodular
    exactly when it has full rank and d is +1 or -1.
    """
    m = _as_matrix(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("matrix is not square")
    rows, pivots, d = _eliminate(_with_identity(m), n)
    if len(pivots) < n or abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return IntMatrix([[d * x for x in row[n:]] for row in rows], n)

