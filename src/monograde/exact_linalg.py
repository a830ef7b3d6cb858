"""Exact integer linear algebra on arbitrary-precision object arrays.

Rational questions (rank, determinant, rational solves, inverses of
unimodular matrices) all run on one fraction-free Gauss-Jordan kernel,
``_eliminate``, which never leaves the integers.  Lattice questions
need a unimodular transform and use the Hermite form (lattice bases,
kernels) or the Smith form (cokernels, integer solves); those also give
primitive vectors and finitely generated abelian quotients in
invariant-factor form.  Matrices are numpy arrays with dtype=object
holding Python ints, so nothing here can overflow.

Conventions: matrices act on column vectors, so ``cokernel(A)`` is the
quotient of ``Z^rows(A)`` by the column span of ``A``.  Lattices are
handled as row-generator matrices; ``row_lattice_basis`` returns the
canonical (Hermite) basis of the row span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

Vec = tuple[int, ...]


def int_matrix(rows, width: int | None = None) -> np.ndarray:
    """Build an (m, n) dtype=object integer matrix from an iterable of rows.

    ``width`` is required when ``rows`` is empty and checked otherwise.
    """
    data = [tuple(int(x) for x in row) for row in rows]
    if data:
        if width is None:
            width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("rows have inconsistent lengths")
    elif width is None:
        raise ValueError("width is required for an empty matrix")
    out = np.zeros((len(data), width), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def int_vector(v) -> np.ndarray:
    """1-d dtype=object integer vector."""
    return np.array([int(x) for x in v], dtype=object)


def identity_matrix(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = 1
    return out


def as_tuple(v) -> Vec:
    return tuple(int(x) for x in v)


def as_tuples(m) -> tuple[Vec, ...]:
    return tuple(as_tuple(row) for row in m)


def _as_matrix(a, width: int | None = None) -> np.ndarray:
    if isinstance(a, np.ndarray) and a.dtype == object and a.ndim == 2:
        return a.copy()
    return int_matrix(a, width)


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


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) on integer rows.

    Pivots are taken in the first ``ncols`` columns, leftmost first;
    further columns ride along as right-hand sides.  Returns
    ``(rows, pivot_cols, d, sign)``: the k-th row has the entry ``d`` in
    column ``pivot_cols[k]`` and zeros in every other pivot column, the
    rows after the pivot rows are zero in the first ``ncols`` columns,
    and ``sign`` is the parity of the row swaps.  Every entry stays a
    minor of the input, so each division is exact; for a nonsingular
    square block, ``sign * d`` is its determinant.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    d, sign = 1, 1
    for j in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        pv = top[j]
        for i, row in enumerate(rows):
            if i != r:
                f = row[j]
                rows[i] = [(pv * x - f * y) // d for x, y in zip(row, top)]
        d = pv
        pivots.append(j)
    return rows, pivots, d, sign


def _combine_rows(m: np.ndarray, r: int, i: int, s: int, t: int, u: int, v: int) -> None:
    # row_r' = s*row_r + t*row_i ; row_i' = -v*row_r + u*row_i ; s*u + t*v = 1
    new_r = s * m[r] + t * m[i]
    new_i = -v * m[r] + u * m[i]
    m[r] = new_r
    m[i] = new_i


def _combine_cols(m: np.ndarray, c: int, j: int, s: int, t: int, u: int, v: int) -> None:
    # col_c' = s*col_c + t*col_j ; col_j' = -v*col_c + u*col_j
    new_c = s * m[:, c] + t * m[:, j]
    new_j = -v * m[:, c] + u * m[:, j]
    m[:, c] = new_c
    m[:, j] = new_j


def hnf(a) -> tuple[np.ndarray, np.ndarray]:
    """Row Hermite normal form.

    Returns (H, U) with H = U @ A, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows at the bottom.
    The nonzero rows of H are the canonical basis of the row lattice of A.
    """
    h = _as_matrix(a)
    m, n = h.shape
    u = identity_matrix(m)
    r = 0
    for j in range(n):
        if r == m:
            break
        for i in range(r + 1, m):
            if h[i, j] == 0:
                continue
            g, s, t = xgcd(h[r, j], h[i, j])
            p, q = h[r, j] // g, h[i, j] // g
            _combine_rows(h, r, i, s, t, p, q)
            _combine_rows(u, r, i, s, t, p, q)
        if h[r, j] == 0:
            continue
        if h[r, j] < 0:
            h[r] = -h[r]
            u[r] = -u[r]
        piv = h[r, j]
        for i in range(r):
            q = h[i, j] // piv
            if q:
                h[i] = h[i] - q * h[r]
                u[i] = u[i] - q * u[r]
        r += 1
    return h, u


def row_lattice_basis(a) -> np.ndarray:
    """Canonical basis (nonzero Hermite rows) of the lattice spanned by the rows."""
    h, _ = hnf(a)
    nonzero = [i for i in range(h.shape[0]) if any(x != 0 for x in h[i])]
    return h[nonzero] if nonzero else np.zeros((0, h.shape[1]), dtype=object)


def rank(a) -> int:
    """Rank over Q of a matrix given as an array or a sequence of rows."""
    rows = [[int(x) for x in row] for row in a]
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


def snf(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form.

    Returns (S, U, V) with S = U @ A @ V diagonal, U and V unimodular,
    diagonal entries nonnegative and each dividing the next; zeros sink
    to the end of the diagonal.
    """
    s = _as_matrix(a)
    m, n = s.shape
    u = identity_matrix(m)
    v = identity_matrix(n)
    k = min(m, n)
    for t in range(k):
        # choose the remaining entry of least absolute value as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i, j] != 0 and (best is None or abs(s[i, j]) < abs(s[best[0], best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            s[[t, bi]] = s[[bi, t]]
            u[[t, bi]] = u[[bi, t]]
        if bj != t:
            s[:, [t, bj]] = s[:, [bj, t]]
            v[:, [t, bj]] = v[:, [bj, t]]
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if s[i, t] == 0:
                    continue
                if s[i, t] % s[t, t] == 0:
                    # plain subtraction never disturbs the pivot row
                    q = s[i, t] // s[t, t]
                    s[i] = s[i] - q * s[t]
                    u[i] = u[i] - q * u[t]
                    continue
                g, cs, ct = xgcd(s[t, t], s[i, t])
                dirty = True
                p, q = s[t, t] // g, s[i, t] // g
                _combine_rows(s, t, i, cs, ct, p, q)
                _combine_rows(u, t, i, cs, ct, p, q)
            for j in range(t + 1, n):
                if s[t, j] == 0:
                    continue
                if s[t, j] % s[t, t] == 0:
                    q = s[t, j] // s[t, t]
                    s[:, j] = s[:, j] - q * s[:, t]
                    v[:, j] = v[:, j] - q * v[:, t]
                    continue
                g, cs, ct = xgcd(s[t, t], s[t, j])
                dirty = True
                p, q = s[t, t] // g, s[t, j] // g
                _combine_cols(s, t, j, cs, ct, p, q)
                _combine_cols(v, t, j, cs, ct, p, q)
    for i in range(k):
        if s[i, i] < 0:
            s[i] = -s[i]
            u[i] = -u[i]
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a0, b0 = s[i, i], s[i + 1, i + 1]
            if a0 == 0 and b0 != 0:
                s[[i, i + 1]] = s[[i + 1, i]]
                u[[i, i + 1]] = u[[i + 1, i]]
                s[:, [i, i + 1]] = s[:, [i + 1, i]]
                v[:, [i, i + 1]] = v[:, [i + 1, i]]
                changed = True
            elif a0 and b0 and b0 % a0:
                g, cs, ct = xgcd(a0, b0)
                _combine_rows(s, i, i + 1, cs, ct, a0 // g, b0 // g)
                _combine_rows(u, i, i + 1, cs, ct, a0 // g, b0 // g)
                # paired column transform keeps the product diagonal: diag(g, a*b/g)
                _combine_cols(s, i, i + 1, 1, 1, cs * (a0 // g), ct * (b0 // g))
                _combine_cols(v, i, i + 1, 1, 1, cs * (a0 // g), ct * (b0 // g))
                changed = True
    return s, u, v


def elementary_divisors(a) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    s, _, _ = snf(a)
    k = min(s.shape)
    return tuple(int(s[i, i]) for i in range(k) if s[i, i] != 0)


@dataclass(frozen=True)
class AbelianQuotient:
    """A finitely generated abelian group Z^s / subgroup.

    ``invariant_factors`` lists the cyclic orders in divisibility order
    with trivial (order 1) factors dropped; 0 stands for a free factor.
    ``projection`` holds one integer functional per factor; ``project``
    maps an ambient vector to its coordinates in the quotient.
    """

    invariant_factors: tuple[int, ...]
    projection: tuple[Vec, ...]

    def project(self, v) -> Vec:
        v = [int(x) for x in v]
        out = []
        for d, row in zip(self.invariant_factors, self.projection):
            c = sum(r * x for r, x in zip(row, v))
            out.append(c % d if d else c)
        return tuple(out)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def order(self) -> int | None:
        """Group order, or None when the group is infinite."""
        n = 1
        for d in self.invariant_factors:
            if d == 0:
                return None
            n *= d
        return n


def cokernel(a, width: int | None = None) -> AbelianQuotient:
    """Quotient of Z^rows(A) by the span of the columns of A."""
    a = _as_matrix(a, width)
    m, n = a.shape
    s, u, _ = snf(a)
    k = min(m, n)
    diag = [int(s[i, i]) for i in range(k)]
    nonzero = sum(1 for d in diag if d)
    factors: list[int] = []
    rows: list[Vec] = []
    for i in range(nonzero):
        if diag[i] > 1:
            factors.append(diag[i])
            rows.append(as_tuple(u[i]))
    for i in range(nonzero, m):
        factors.append(0)
        rows.append(as_tuple(u[i]))
    return AbelianQuotient(tuple(factors), tuple(rows))


def primitive(v) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    w = [int(x) for x in v]
    g = 0
    for x in w:
        g = xgcd(g, x)[0]
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(x // g for x in w)


def kernel_basis(a, width: int | None = None) -> np.ndarray:
    """Canonical row basis of the integer kernel {x : A @ x = 0}.

    The kernel of an integer matrix is saturated, so this basis spans
    every rational kernel vector that happens to be integral.
    """
    a = _as_matrix(a, width)
    h, u = hnf(a.T)
    zero = [i for i in range(h.shape[0]) if all(x == 0 for x in h[i])]
    if not zero:
        return np.zeros((0, a.shape[1]), dtype=object)
    return row_lattice_basis(u[zero])


def solve_integer(a, b) -> Vec | None:
    """One integer solution x of A @ x = b, or None when none exists."""
    a = _as_matrix(a)
    m, n = a.shape
    b = [int(x) for x in b]
    if len(b) != m:
        raise ValueError("right hand side length does not match")
    s, u, v = snf(a)
    c = [sum(int(u[i, j]) * b[j] for j in range(m)) for i in range(m)]
    w = [0] * n
    k = min(m, n)
    for i in range(k):
        d = int(s[i, i])
        if d:
            if c[i] % d:
                return None
            w[i] = c[i] // d
        elif c[i]:
            return None
    for i in range(k, m):
        if c[i]:
            return None
    x = [sum(int(v[i, j]) * w[j] for j in range(n)) for i in range(n)]
    return tuple(x)


def solve_rational(a, b) -> tuple[Fraction, ...] | None:
    """One rational solution of A @ x = b, or None when inconsistent.

    Free variables, if any, are set to zero.
    """
    a = _as_matrix(a)
    m, n = a.shape
    aug = [[int(x) for x in a[i]] + [int(b[i])] for i in range(m)]
    rows, pivots, d, _ = _eliminate(aug, n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, j in zip(rows, pivots):
        x[j] = Fraction(row[n], d)
    return tuple(x)


def determinant(a) -> int:
    """Exact determinant, the last pivot of fraction-free elimination."""
    a = _as_matrix(a)
    m, n = a.shape
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d, sign = _eliminate([[int(x) for x in row] for row in a], n)
    return sign * d if len(pivots) == n else 0


def unimodular_inverse(m) -> np.ndarray:
    """Inverse of a unimodular integer matrix, exactly.

    Elimination of [M | I] leaves [d*I | d*M^-1], and M is unimodular
    exactly when it has full rank and d is +1 or -1.
    """
    m = _as_matrix(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("matrix is not square")
    aug = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots, d, _ = _eliminate(aug, n)
    if len(pivots) < n or abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return int_matrix([[d * x for x in row[n:]] for row in rows], width=n)


def lattice_member(basis_rows, v) -> bool:
    """Whether v lies in the lattice spanned by the given rows."""
    basis = _as_matrix(basis_rows, width=len(tuple(v)))
    return solve_integer(basis.T, v) is not None


def lattices_equal(a_rows, b_rows, width: int | None = None) -> bool:
    """Whether two row-generating sets span the same lattice."""
    a = row_lattice_basis(_as_matrix(a_rows, width))
    b = row_lattice_basis(_as_matrix(b_rows, width))
    return a.shape == b.shape and np.array_equal(a, b)
