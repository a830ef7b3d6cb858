"""Exact integer linear algebra on Python integers.

Rational questions (rank, inverses of unimodular matrices, and the
solves and start cones of ``cone`` and ``divisorial``) all run on one
fraction-free Gauss-Jordan kernel,
``_eliminate``, which never leaves the integers.  Lattice questions
need a unimodular transform, and the Hermite form serves them all:
lattice bases, kernels and quotients (``_quotient``), and integer
solves by back-substitution (``_divmod``), whose remainder is the one
representative modulo a lattice that every answer up to units takes.
The Smith form serves only elementary divisors.  Matrices
are ``IntMatrix`` values, immutable tuples of row tuples of Python
ints, so nothing here can overflow; the kernels work on mutable row
lists inside.  The package reads integer input where the value is built,
with one reader per kind: ``_as_count``, ``_as_vector`` (of a required
length) and ``_as_vectors`` (of one length), each on ``as_tuple``,
which refuses non-integral values.  Kernel-built matrices are taken as
built (``IntMatrix._of``), and ``v @ M`` reads the columns of M,
transposed once and kept on the immutable matrix.

Each kernel carries only what its callers read.  ``_eliminate`` takes
vectors in Z^d as the columns of a matrix and carries only the d x d
row transform T: a vector's column is formed as T @ v when the loop
reaches it, and the loop stops at the d-th pivot.  Its callers read T:
the start cone is its rows, an inverse is T itself up to sign, and a
vertex is T applied to the right-hand side.  The Hermite and Smith
kernels reduce by one step, Euclid's: ``_clear_column`` subtracts
multiples of the least nonzero entry of a column from the rows below
until one row alone is left nonzero there.  ``hnf`` runs it on the rows
of ``[A | I]``, pivots in the first columns, so its row transform rides
along.  The Smith kernel ``_smith`` carries no transform: it reduces
the rows it is handed to a diagonal and stops there, and
``elementary_divisors``, its one caller, hands it the bare matrix, or
its transpose when that has fewer rows, and chains the diagonal by gcd
and lcm.  Once the step has cleared a pivot's column, a column step
changes one entry of the pivot row, not a column.

The job's limits live here, below every layer that spends them: the
budget ``_Budget`` (read by ``_as_budget``) and the one family of limit
errors, ``BudgetExceededError`` and its ``EnumerationLimitError``.

Conventions: matrices act on column vectors.  Lattices are handled as
row-generator matrices; ``row_lattice_basis`` returns the canonical
(Hermite) basis of the row span.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul

Vec = tuple[int, ...]


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def as_tuple(v) -> Vec:
    """The entries of v as a tuple of ints.  Integral values such as 2.0
    are taken; any other value, such as 2.7, 1/2 or an infinite float,
    raises ValueError instead of being truncated."""
    v = tuple(v)
    try:
        t = tuple(map(int, v))
    except OverflowError:  # int() of an infinite float
        t = None
    if t != v:
        raise ValueError("not an integer vector: %r" % (v,))
    return t


def _as_count(x, floor: int, message: str) -> int:
    """A count read like every integer input: an integral value such as
    2.0 is taken as an int, any other value raises ValueError, and so does
    a count below ``floor``, with ``message``."""
    if type(x) is not int:
        (x,) = as_tuple((x,))
    if x < floor:
        raise ValueError(message)
    return x


DEFAULT_BUDGET = 500_000


class BudgetExceededError(RuntimeError):
    """A computation hit one of the job's limits: it ran out of its budget
    of reduction steps and dimension-search branches, or an enumeration
    outgrew its frame (``EnumerationLimitError``).  The message names the
    limit that was hit."""


class EnumerationLimitError(BudgetExceededError):
    """A bounded enumeration grew beyond the supported desk scale."""


class _Budget:
    """The reduction-step budget of one computation, and its meter.

    ``remaining`` counts down from the int limit one unit per reduction
    step or dimension search branch, so the steps spent are the limit
    minus ``remaining``.  ``spairs`` counts the S-pairs Buchberger's
    algorithm reduced and ``zero_reductions`` those that reduced to zero.
    """

    __slots__ = ("remaining", "spairs", "zero_reductions")

    def __init__(self, limit: int):
        self.remaining = limit
        self.spairs = 0
        self.zero_reductions = 0

    def spend(self, what: str = "reduction step") -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError("%s budget exceeded" % what)


def _as_budget(budget) -> _Budget:
    """The budget to spend: a ``_Budget`` as it is, None as the default
    budget, and a number read like every integer input, so 2.0 is taken
    as 2, while 2.5 or a budget below 1 raises ValueError."""
    if isinstance(budget, _Budget):
        return budget
    if budget is None:
        return _Budget(DEFAULT_BUDGET)
    return _Budget(_as_count(budget, 1, "budget must be positive"))


def _as_vector(v, n: int, message: str) -> Vec:
    """A vector read with ``as_tuple``; one without exactly n entries
    raises ValueError with ``message``."""
    v = as_tuple(v)
    if len(v) != n:
        raise ValueError(message)
    return v


def _as_vectors(vectors, what: str) -> tuple[Vec, ...]:
    """Vectors each read with ``as_tuple``; unless all have one length,
    ValueError says that ``what`` have inconsistent lengths."""
    vs = tuple(map(as_tuple, vectors))
    if vs and any(len(v) != len(vs[0]) for v in vs):
        raise ValueError("%s have inconsistent lengths" % what)
    return vs


class IntMatrix(tuple):
    """An immutable integer matrix: a tuple of equal-length row tuples.

    ``m[i]`` is a row and ``m[i][j]`` an entry, as in any tuple of
    tuples; ``a @ b`` multiplies matrices, ``a @ v`` applies a matrix to
    a vector and ``v @ a`` combines its rows, both giving a tuple.  The
    width is kept, so a matrix without rows still has a shape; it is
    required when ``rows`` is empty, and read then as a count with
    ``_as_count``, and checked otherwise.

    Input is validated at the boundary: the constructor reads its rows
    with ``_as_vectors``, and both vector products read the vector with
    ``_as_vector``.  ``IntMatrix._of`` takes rows that the kernels
    built themselves as they are, and ``_rmul`` such a vector.
    ``v @ a`` reads the columns of ``a``, the rows of ``a.T``, which is
    transposed once and kept on the immutable matrix.
    """

    def __new__(cls, rows, width: int | None = None):
        self = super().__new__(cls, _as_vectors(rows, "rows"))
        if width is None and not self:
            raise ValueError("width is required for an empty matrix")
        self._width = len(self[0]) if self else _as_count(width, 0, "width must be nonnegative")
        if width is not None and self._width != width:
            raise ValueError("rows have inconsistent lengths")
        return self

    @classmethod
    def _of(cls, rows, width: int) -> IntMatrix:
        """The matrix of int-tuple rows of length ``width`` that a kernel
        built, taken as built: nothing is checked."""
        self = tuple.__new__(cls, rows)
        self._width = width
        return self

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self._width

    @cached_property
    def T(self) -> IntMatrix:
        return IntMatrix._of(zip(*self) if self else ((),) * self._width, len(self))

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if len(other) != self._width:
                raise ValueError("matrix shapes do not match")
            cols = other.T
            return IntMatrix._of((tuple(_dot(row, c) for c in cols) for row in self), other._width)
        other = _as_vector(other, self._width, "matrix shapes do not match")
        return tuple(_dot(row, other) for row in self)

    def __rmatmul__(self, v):
        return self._rmul(_as_vector(v, len(self), "matrix shapes do not match"))

    def _rmul(self, v) -> Vec:
        """v @ self for an int tuple v of length ``len(self)`` that a
        kernel built, taken as built: nothing is checked."""
        return tuple(sum(map(mul, v, col)) for col in self.T)


def _as_matrix(a, width: int | None = None) -> IntMatrix:
    return a if isinstance(a, IntMatrix) else IntMatrix(a, width)


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _eliminate(vectors, d: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of the
    matrix whose columns are ``vectors``, each of length d, carrying
    only its d x d row transform T.

    Column j is formed only when the loop reaches it, as T @ v_j, with
    T still the identity before the first pivot; its first nonzero entry
    at or below the pivot row is the pivot, and the Bareiss update is
    applied to the rows of T alone.  The loop stops at the d-th pivot,
    so no vector past it is read.  Returns ``(T, base, e)``: ``base``
    lists the vectors that took a pivot, a maximal independent set of
    those read; T @ v_j is e times the k-th unit vector for
    ``j = base[k]``; and ``e`` is the last pivot, 1 when there is none.
    Every entry of T stays a minor of the input, so each division is
    exact; for d independent vectors, ``e`` is their determinant up to
    sign.
    """
    t = _identity(d)
    base: list[int] = []
    e = 1
    for j, v in enumerate(vectors):
        r = len(base)
        col = list(v) if not r else [sum(map(mul, row, v)) for row in t]
        for p in range(r, d):
            if col[p]:
                break
        else:
            continue
        if p != r:
            t[r], t[p] = t[p], t[r]
            col[r], col[p] = col[p], col[r]
        top, pv = t[r], col[r]
        for i, f in enumerate(col):
            # a row with f = 0 only scales by pv / e, and pv = e leaves it as it is
            if i == r:
                continue
            if f:
                t[i] = [(pv * x - f * y) // e for x, y in zip(t[i], top)]
            elif pv != e:
                t[i] = [pv * x // e for x in t[i]]
        e = pv
        base.append(j)
        if r + 1 == d:
            break
    return t, base, e


def _sub_row(m: list[list[int]], i: int, q: int, r: int) -> None:
    # row_i' = row_i - q*row_r
    m[i] = [x - q * y for x, y in zip(m[i], m[r])]


def _swap_cols(m: list[list[int]], c: int, j: int) -> None:
    for row in m:
        row[c], row[j] = row[j], row[c]


def _clear_column(h: list[list[int]], r: int, j: int) -> bool:
    """Clear column j of the rows ``h`` below row r by Euclid's step:
    move the row with the least nonzero entry of the column, at or below
    row r, to row r and subtract its multiples from the rows below, until
    row r alone is nonzero in the column.  Returns False, and changes
    nothing, when the column is zero from row r on."""
    m = len(h)
    while True:
        p, least = r, 0
        for i in range(r, m):
            x = abs(h[i][j])
            if x and (not least or x < least):
                p, least = i, x
        if not least:
            return False
        if p != r:
            h[r], h[p] = h[p], h[r]
        piv, done = h[r][j], True
        for i in range(r + 1, m):
            if h[i][j]:
                _sub_row(h, i, h[i][j] // piv, r)
                done = done and not h[i][j]
        if done:
            return True


def hnf(a) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with H = U @ A, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows at the bottom.
    The nonzero rows of H are the canonical basis of the row lattice of A;
    U is one of the unimodular matrices that give it, not a canonical one.
    The rows ``a_i + e_i`` are reduced with pivots in the first n columns,
    so U rides along in the last m columns: ``_clear_column`` clears each
    column below the pivot row, and multiples of the pivot row, made
    positive, are subtracted from the rows above.
    """
    a = _as_matrix(a)
    m, n = a.shape
    h = [list(row) + e for row, e in zip(a, _identity(m))]
    r = 0
    for j in range(n):
        if r == m:
            break
        if not _clear_column(h, r, j):
            continue
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
        piv = h[r][j]
        for i in range(r):
            q = h[i][j] // piv
            if q:
                _sub_row(h, i, q, r)
        r += 1
    return (IntMatrix._of((tuple(row[:n]) for row in h), n),
            IntMatrix._of((tuple(row[n:]) for row in h), m))


def row_lattice_basis(a) -> IntMatrix:
    """Canonical basis (nonzero Hermite rows) of the lattice spanned by the rows."""
    h, _ = hnf(a)
    return IntMatrix._of((row for row in h if any(row)), h.shape[1])


def rank(a) -> int:
    """Rank over Q of a matrix given as an IntMatrix or a sequence of
    rows.  The short side is eliminated: the rows, in Z^width, or the
    columns when there are fewer rows than columns."""
    rows = _as_vectors(a, "rows")
    width = len(rows[0]) if rows else 0
    if len(rows) < width:
        rows, width = list(zip(*rows)), len(rows)
    return len(_eliminate(rows, width)[1])


def _smith(s: list[list[int]]) -> list[list[int]]:
    """Reduce the rows ``s``, all of one length, in place to a diagonal,
    left in the signs and order the pivots gave it, and return them.

    Each pivot is the least entry left, and its column is cleared by
    ``_clear_column``.  The pivot column is then zero off the pivot row,
    so subtracting a multiple of it from another column changes only the
    pivot row: the entry becomes its remainder modulo the pivot, and a
    nonzero remainder, smaller than the pivot, is swapped in as the next
    pivot of the same column.
    """
    m = len(s)
    n = len(s[0]) if s else 0
    for t in range(min(m, n)):
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
        while True:
            _clear_column(s, t, t)
            row = s[t]
            p = row[t]
            for j in range(t + 1, n):
                if row[j]:
                    row[j] %= p
                    if row[j]:
                        _swap_cols(s, t, j)
                        break
            else:
                break
    return s


def elementary_divisors(a) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, in divisibility order.  Only
    the bare matrix is reduced to a diagonal (``_smith``), no transform
    rides along, and a matrix with more rows than columns is reduced as
    its transpose, which has the same factors, so column swaps run over
    the short side.  Replacing two entries by their gcd and lcm
    keeps each prime's exponents and sorts them, so a pass over the
    pairs turns the diagonal's absolute values into the chain."""
    a = _as_matrix(a)
    m, n = a.shape
    if m > n:
        a, m = a.T, n
    s = _smith([list(row) for row in a])
    d = [abs(s[i][i]) for i in range(m) if s[i][i]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return tuple(d)


def primitive(v) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries."""
    w = as_tuple(v)
    g = math.gcd(*w)
    if g == 1:
        return w
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(x // g for x in w)


def _quotient(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(H, W, K) off the row Hermite form H' = U @ A.T of an s x d
    IntMatrix A: the k nonzero rows of H', W = U[:k] and K = U[k:].  K is
    a kernel basis, and z -> z @ W a section of Z^d -> Z^d / K with
    A @ (z @ W) = z @ H: the columns of H are the rows of A on the
    quotient, in coordinates z."""
    h, u = hnf(a.T)
    k = len(h)
    while k and not any(h[k - 1]):  # zero rows come last
        k -= 1
    n = len(u)
    return IntMatrix._of(h[:k], len(a)), IntMatrix._of(u[:k], n), IntMatrix._of(u[k:], n)


def kernel_basis(a, width: int | None = None) -> IntMatrix:
    """Canonical row basis of the integer kernel {x : A @ x = 0}, the
    Hermite basis of K from ``_quotient``.

    The kernel of an integer matrix is saturated, so this basis spans
    every rational kernel vector that happens to be integral.
    """
    _, _, k = _quotient(_as_matrix(a, width))
    return row_lattice_basis(k) if k else k


def _divmod(basis, v) -> tuple[Vec, Vec]:
    """(x, rest) with v = x @ basis + rest, by back-substitution in a
    row echelon ``basis`` without zero rows: each coordinate is the floor
    quotient at its row's pivot, where later rows vanish.  On a Hermite
    basis, rest is the one point of v + lattice in [0, pivot) at the pivots."""
    rest = v
    x = []
    for row in basis:
        j = next(j for j, c in enumerate(row) if c)
        q = rest[j] // row[j]
        x.append(q)
        if q:
            rest = tuple([a - q * b for a, b in zip(rest, row)])
    return tuple(x), rest


def unimodular_inverse(m) -> IntMatrix:
    """Inverse of a unimodular integer matrix, exactly.

    Elimination of the columns of M gives T with T @ M = d*I, and M is
    unimodular exactly when it has full rank and d is +1 or -1; then
    M^-1 = d*T.
    """
    m = _as_matrix(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("matrix is not square")
    t, pivots, d = _eliminate(m.T, n)
    if len(pivots) < n or abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return IntMatrix._of((tuple(d * x for x in row) for row in t), n)

