"""Independent brute-force oracles that the benchmark's result checks call.

Everything here recomputes results by a different route than the
library: Fourier-Motzkin elimination instead of double description,
determinantal divisors instead of Smith elimination, exhaustive box
scans instead of bounded clever ones, and rational row reduction for
dimension counts.  ``perfbench/check.py`` and ``perfbench/workloads.py``
import this module, and every benchmark run compiles all of it, so it
holds exactly the functions they call and the helpers those call; the
oracles and slow paths that only tests call live in ``references.py``,
the seeded inputs in ``corpora.py``.  It imports nothing from the
package, so no check shares code with the answer it checks.
``tests/test_kernel_boundary.py`` keeps both rules.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from math import gcd


# -- small exact helpers ----------------------------------------------


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def make_primitive(v):
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(int(x) // g for x in v)


def dot(a, b):
    return sum(int(x) * int(y) for x, y in zip(a, b))


def frac_rref(rows):
    """Row reduce a list of Fraction lists; returns (rank, pivots, rows)."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return 0, [], []
    ncols = len(rows[0])
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rank, pivots, rows


def frac_solve_unique(matrix, rhs):
    """Solve an n x n rational system with a unique solution, else None."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    rank, pivots, rows = frac_rref(aug)
    if any(p == n for p in pivots):
        return None  # inconsistent
    if rank < n:
        return None  # not unique
    sol = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        sol[p] = rows[i][n]
    return tuple(sol)


def det_int(mat):
    """Integer determinant by Laplace expansion (tiny matrices only)."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    rest = mat[1:]
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rest]
        sign = 1 if j % 2 == 0 else -1
        total += sign * mat[0][j] * det_int(minor)
    return total


# -- Fourier-Motzkin --------------------------------------------------


def _fm_eliminate(rows, j):
    keep, pos, neg = [], [], []
    for r in rows:
        if r[j] == 0:
            keep.append(r)
        elif r[j] > 0:
            pos.append(r)
        else:
            neg.append(r)
    for p in pos:
        for q in neg:
            comb = tuple(-q[j] * a + p[j] * b for a, b in zip(p, q))
            if any(comb):
                keep.append(make_primitive(comb))
    out = []
    seen = set()
    for r in keep:
        if any(r):
            r = make_primitive(r)
        else:
            r = tuple(r)
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def fm_facets(rays):
    """H-description of cone(rays) by eliminating the multipliers.

    Returns a redundant but complete set of primitive inequality forms:
    x lies in the cone iff every form is nonnegative at x.
    """
    rays = [tuple(map(int, r)) for r in rays]
    d = len(rays[0])
    m = len(rays)
    rows = []
    for j in range(m):
        rows.append(tuple(0 for _ in range(d)) + tuple(1 if k == j else 0 for k in range(m)))
    for i in range(d):
        col = tuple(-rays[j][i] for j in range(m))
        e = tuple(1 if k == i else 0 for k in range(d))
        rows.append(e + col)
        rows.append(tuple(-x for x in e) + tuple(-x for x in col))
    for j in range(d + m - 1, d - 1, -1):
        rows = _fm_eliminate(rows, j)
    forms = []
    seen = set()
    for r in rows:
        a = r[:d]
        if any(a) and a not in seen:
            seen.add(a)
            forms.append(a)
    return forms


def true_facets(rays):
    """Irredundant facet forms of a full-dimensional cone.

    Fourier-Motzkin output is filtered by the geometric facet test: a
    valid form supports a facet iff the rays tight on it span a
    hyperplane.  Scaling-canonical because the forms stay primitive.
    """
    rays = [tuple(map(int, r)) for r in rays]
    d = len(rays[0])
    out = []
    for f in fm_facets(rays):
        tight = [r for r in rays if dot(f, r) == 0]
        r, _, _ = frac_rref([[Fraction(x) for x in t] for t in tight]) if tight else (0, None, None)
        if r == d - 1:
            out.append(f)
    return sorted(out)


# -- cone and monoid brute force --------------------------------------


def zonotope_box(rays):
    d = len(rays[0]) if rays else 0
    lo = [sum(min(0, r[i]) for r in rays) for i in range(d)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(d)]
    return lo, hi


def brute_irreducibles(rays, floor_bound=5):
    """Irreducible nonzero lattice points of cone(rays), exhaustively.

    The scan box covers both the requested bound and the generator
    zonotope, so every irreducible point is inside and reducibility can
    always be verified against an in-box summand.  Membership comes from
    Fourier-Motzkin facets, not from the library.  Each member's facet
    values F(x) are computed once: a member z != x leaves x - z in the
    cone iff F(z) <= F(x) componentwise, since F(x - z) = F(x) - F(z).
    """
    rays = [tuple(map(int, r)) for r in rays]
    d = len(rays[0])
    forms = true_facets(rays)
    zlo, zhi = zonotope_box(rays)
    lo = [min(-floor_bound, zlo[i]) for i in range(d)]
    hi = [max(floor_bound, zhi[i]) for i in range(d)]
    nonzero = []
    for pt in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        values = tuple(dot(f, pt) for f in forms)
        if any(pt) and all(v >= 0 for v in values):
            nonzero.append((pt, values))
    irred = []
    for x, fx in nonzero:
        if not any(z != x and all(map(operator.le, fz, fx)) for z, fz in nonzero):
            irred.append(x)
    return sorted(irred)


def region_tight_points(forms, heights):
    """Feasible points of {y : forms(y) >= heights} where d of the forms
    are tight with a unique solution, by rational solves, in subset order."""
    d = len(forms[0])
    out = []
    for subset in itertools.combinations(range(len(forms)), d):
        sol = frac_solve_unique([forms[i] for i in subset], [heights[i] for i in subset])
        if sol is None:
            continue
        if all(sum(Fraction(f[k]) * sol[k] for k in range(d)) >= h for f, h in zip(forms, heights)):
            out.append(sol)
    return out


def brute_minimal_interior(rays):
    """Minimal interior lattice points of cone(rays) over the monoid
    of all lattice points, by exhaustive scan.

    Interior means every Fourier-Motzkin form is at least 1.  The box
    combines the rational vertices of the interior region with the ray
    zonotope; minimality subtracts the exhaustive irreducibles.
    """
    rays = [tuple(map(int, r)) for r in rays]
    d = len(rays[0])
    forms = true_facets(rays)
    verts = region_tight_points(forms, [1] * len(forms))
    assert verts, "interior region of a full-dimensional cone has a vertex"
    zlo, zhi = zonotope_box(rays)
    lo, hi = [], []
    for i in range(d):
        vmin = min(v[i] for v in verts) + zlo[i]
        vmax = max(v[i] for v in verts) + zhi[i]
        lo.append(math.floor(vmin))
        hi.append(math.ceil(vmax))
    irred = brute_irreducibles(rays, 0)
    minimal = []
    for pt in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if not all(dot(f, pt) >= 1 for f in forms):
            continue
        reducible = False
        for b in irred:
            y = tuple(p - q for p, q in zip(pt, b))
            if all(dot(f, y) >= 1 for f in forms):
                reducible = True
                break
        if not reducible:
            minimal.append(pt)
    return sorted(minimal)


# -- abelian group oracles --------------------------------------------


def minor_gcd_factors(matrix):
    """Invariant factors by determinantal divisors: the k-th factor is
    the gcd of k x k minors divided by the gcd of (k-1) x (k-1) minors."""
    mat = [list(map(int, row)) for row in matrix]
    m = len(mat)
    n = len(mat[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(det_int(sub)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)
