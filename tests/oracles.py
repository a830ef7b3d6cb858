"""Independent brute-force oracles for the test suite.

Everything here recomputes results by a different route than the
library: Fourier-Motzkin elimination instead of double description,
determinantal divisors instead of Smith elimination, coset enumeration
instead of projections, exhaustive box scans instead of bounded clever
ones, and rational row reduction for dimension counts.  Nothing in this
module imports the package beyond plain data types, except the slow
paths at the end: a fast path keeps the route it replaced here as its
reference, built on the package's own primitives.  One corpus,
``large_cone_corpus``, also asks ``cone`` for facet forms, only to use
them as input rows.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from math import gcd

from monograde import cone, groebner
from monograde.exact_linalg import (
    IntMatrix,
    _as_matrix,
    _combine_cols,
    _combine_rows,
    _dot,
    _eliminate,
    _smith_left,
    _sub_col,
    _sub_row,
    _swap_cols,
    kernel_basis,
    lattice_coordinates,
    primitive,
    rank,
    row_lattice_basis,
    xgcd,
)
from monograde.monoid import _guard_box


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


def subset_facets(rays):
    """Facet forms of a full-dimensional cone from subsets of its rays.

    Every (d-1)-subset of the rays that spans a hyperplane gives a
    primitive normal; it is a facet form, oriented inward, when every
    ray lies on one side of that hyperplane.  Exact and exhaustive, and
    cheap enough for rank 5-6 cones with a dozen rays, where
    Fourier-Motzkin blows up.
    """
    rays = [tuple(map(int, r)) for r in rays]
    d = len(rays[0])
    out = set()
    for subset in itertools.combinations(rays, d - 1):
        rank, pivots, rows = frac_rref(subset)
        if rank != d - 1:
            continue
        free = next(j for j in range(d) if j not in pivots)
        normal = [Fraction(0)] * d
        normal[free] = Fraction(1)
        for i, p in enumerate(pivots):
            normal[p] = -rows[i][free]
        denom = math.lcm(*(x.denominator for x in normal))
        normal = make_primitive([int(x * denom) for x in normal])
        vals = [dot(normal, r) for r in rays]
        if all(v >= 0 for v in vals):
            out.add(normal)
        elif all(v <= 0 for v in vals):
            out.add(tuple(-x for x in normal))
    return sorted(out)


def extreme_by_facets(rays, forms):
    """The primitive rays whose tight facet forms span a hyperplane."""
    d = len(forms[0])
    out = set()
    for r in rays:
        tight = [f for f in forms if dot(f, r) == 0]
        if tight and frac_rref(tight)[0] == d - 1:
            out.add(make_primitive(r))
    return sorted(out)


def fm_member(rays, x):
    """Exact membership of x in cone(rays) by affine feasibility."""
    rays = [tuple(map(int, r)) for r in rays]
    x = tuple(map(int, x))
    d = len(rays[0])
    m = len(rays)
    rows = []
    for j in range(m):
        rows.append(tuple(1 if k == j else 0 for k in range(m)) + (0,))
    for i in range(d):
        col = tuple(rays[j][i] for j in range(m))
        rows.append(col + (-x[i],))
        rows.append(tuple(-c for c in col) + (x[i],))
    for j in range(m - 1, -1, -1):
        rows = _fm_eliminate(rows, j)
    return all(r[-1] >= 0 for r in rows if not any(r[:-1]))


# -- cone and monoid brute force ---------------------------------------


def zonotope_box(rays):
    d = len(rays[0])
    lo = [sum(min(0, r[i]) for r in rays) for i in range(d)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(d)]
    return lo, hi


def brute_irreducibles(rays, floor_bound=5):
    """Irreducible nonzero lattice points of cone(rays), exhaustively.

    The scan box covers both the requested bound and the generator
    zonotope, so every irreducible point is inside and reducibility can
    always be verified against an in-box summand.  Membership comes from
    Fourier-Motzkin facets, not from the library.
    """
    rays = [tuple(map(int, r)) for r in rays]
    d = len(rays[0])
    forms = true_facets(rays)
    zlo, zhi = zonotope_box(rays)
    lo = [min(-floor_bound, zlo[i]) for i in range(d)]
    hi = [max(floor_bound, zhi[i]) for i in range(d)]
    members = []
    for pt in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if all(dot(f, pt) >= 0 for f in forms):
            members.append(pt)
    nonzero = [p for p in members if any(p)]
    irred = []
    for x in nonzero:
        reducible = False
        for z in nonzero:
            if z == x:
                continue
            y = tuple(a - b for a, b in zip(x, z))
            if any(y) and all(dot(f, y) >= 0 for f in forms):
                reducible = True
                break
        if not reducible:
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


def cone_faces(incidence):
    """The nonzero proper faces of a cone, each as the sorted tuple of the
    indices of the rays it holds, from the facet incidence: one set of
    tight ray indices per facet.  A proper face is the intersection of
    the facets that contain it, so closing the facets under intersection
    finds every one; the empty intersection, the zero face, is left out."""
    facets = set(map(frozenset, incidence))
    faces, frontier = set(facets), set(facets)
    while frontier:
        frontier = {a & b for a in frontier for b in facets} - faces - {frozenset()}
        faces |= frontier
    faces.discard(frozenset())
    return sorted(tuple(sorted(f)) for f in faces)


def componentwise_minimal(vectors):
    """The vectors that no other one of the set is at most in every
    coordinate, each once, sorted."""
    vs = set(map(tuple, vectors))
    return sorted(v for v in vs if not any(w != v and all(map(operator.le, w, v)) for w in vs))


# -- abelian group oracles ---------------------------------------------


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


def coset_count(columns_matrix, box):
    """Number of cosets of the column span inside a box of Z^s.

    Only meaningful when the quotient is finite and small; the box must
    be large enough to hit every class, which holds as soon as it spans
    a fundamental domain.
    """
    mat = [list(map(int, row)) for row in columns_matrix]
    s = len(mat)
    n = len(mat[0]) if s else 0

    def in_span(delta):
        sol = frac_solve_unique([row[:] for row in mat], delta) if s == n else None
        if sol is None:
            # fall back to a bounded integer search
            for coeffs in itertools.product(range(-3 * box, 3 * box + 1), repeat=n):
                if all(
                    sum(mat[i][j] * coeffs[j] for j in range(n)) == delta[i]
                    for i in range(s)
                ):
                    return True
            return False
        return all(f.denominator == 1 for f in sol)

    reps = []
    for pt in itertools.product(range(-box, box + 1), repeat=s):
        if not any(in_span([a - b for a, b in zip(pt, rep)]) for rep in reps):
            reps.append(pt)
    return len(reps)


# -- random corpora ----------------------------------------------------


def positive_functional(rays, search_bound=4):
    """A small integer functional strictly positive on every ray, or None.

    Finding one certifies that cone(rays) is pointed.
    """
    d = len(rays[0])
    for w in itertools.product(range(-search_bound, search_bound + 1), repeat=d):
        if any(w) and all(dot(w, r) > 0 for r in rays):
            return w
    return None


def random_pointed_cones(count, max_rank, entry_bound, seed):
    """Deterministic stream of (rank, rays) with cone(rays) pointed and
    full-dimensional.

    Full dimension is certified by rational rank, pointedness by a
    strictly positive functional found by exhaustive search; candidates
    without such a small certificate are skipped.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, max_rank)
        m = rng.randint(d, d + 2)
        rays = []
        for _ in range(m):
            v = tuple(rng.randint(-entry_bound, entry_bound) for _ in range(d))
            if any(v):
                rays.append(make_primitive(v))
        rays = sorted(set(rays))
        if len(rays) < d:
            continue
        rank, _, _ = frac_rref([[Fraction(x) for x in r] for r in rays])
        if rank < d:
            continue  # not full-dimensional
        if positive_functional(rays, 3) is None:
            continue  # no cheap pointedness certificate
        out.append((d, rays))
    return out


def cone_corpus(seed):
    """Ray lists of rank 2-5 for the whole-box oracles: pointed
    full-dimensional cones, the same cones with a line of units (the
    first ray's opposite) added, and the same cones embedded in a
    sublattice of Z^(rank+1) by a random extra coordinate."""
    rng = random.Random(seed)
    out = []
    for rank, count, bound in ((2, 5, 4), (3, 5, 3), (4, 3, 2), (5, 2, 1)):
        cones = [rays for d, rays in random_pointed_cones(4 * count, rank, bound, seed + rank)
                 if d == rank]
        assert len(cones) >= count
        for rays in cones[:count]:
            out.append(rays)
            if rank <= 4:
                out.append(rays + [tuple(-x for x in rays[0])])
                w = [rng.randint(-2, 2) for _ in range(rank)]
                out.append([r + (dot(w, r),) for r in rays])
    return out


def caratheodory_corpus(seed):
    """Ray lists of rank 2-4: pointed full-dimensional cones, each also
    with the line of one of its rays' opposite added."""
    rng = random.Random(seed)
    out = []
    for _, rays in random_pointed_cones(50, 4, 3, seed):
        out.append(rays)
        out.append(rays + [tuple(-x for x in rng.choice(rays))])
    return out


def degenerate_cone_corpus(seed, count):
    """(vectors, ambient rank) pairs meant to hit every special case of
    the cone conversions, read either as generators or as forms: the
    zero cone and the whole space, dim-1 cones (where the face {0} is a
    facet), duplicate, opposite and zero vectors, non-pointed cones and
    cones lower-dimensional in Z^(r+1), and ``count`` seeded random
    lists of small vectors of rank 1-6 with those defects mixed in."""
    out = [
        ([], 1),
        ([], 3),
        ([(0, 0, 0)], 3),
        ([(3,)], 1),
        ([(1,), (-2,)], 1),
        ([(2, 4, 6)], 3),
        ([(2, 4, 6), (-1, -2, -3)], 3),
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], 2),
        ([(1, 0), (-1, 0), (0, 1)], 2),
        ([(2, 0), (0, 3), (0, 1), (4, 0), (0, 0)], 2),
        ([(1, 2, 0), (-1, -2, 0), (0, 1, 1), (1, 0, 1)], 3),
        ([(1, 1, 1, 0), (-1, -1, -1, 0), (0, 1, 2, 0)], 4),
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)], 3),
        ([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3),
    ]
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(1, 6)
        b = rng.choice((1, 1, 2, 3))
        vs = [tuple(rng.randint(-b, b) for _ in range(r)) for _ in range(rng.randint(1, r + 4))]
        kind = rng.randrange(4)
        if kind == 0:
            vs.append(tuple(-x for x in vs[0]))
        elif kind == 1:
            w = [rng.randint(-2, 2) for _ in range(r)]
            vs = [v + (dot(w, v),) for v in vs]
            r += 1
        elif kind == 2:
            vs += vs[:2] + [(0,) * r]
        out.append((vs, r))
    return out


def large_cone_corpus(seed):
    """Row matrices for double description, as lists of distinct
    primitive rows.  First the rays of three rank-7 cones, 26-28 draws
    of (1, r_2, ..., r_7) with r_i in 0..3, whose dual cones have about
    500 extreme rays; then the about 150 facet forms of a 16-draw such
    cone, so that hundreds of rows are inserted.  Then, for each rank
    2-6, cones with lineality: rows of rank d-2 <= k < d, draws of
    (1, r_2, ..., r_k) with r_i in -1..1 padded with zeros and mixed by
    a random unimodular matrix; and full-rank draws with the opposite of
    one row added, which cut out a lower-dimensional cone."""
    rng = random.Random(seed)

    def draws(count, k, lo, hi):
        return [(1,) + tuple(rng.randint(lo, hi) for _ in range(k - 1)) for _ in range(count)]

    def clean(vs):
        return sorted({make_primitive(v) for v in vs if any(v)})

    out = [clean(draws(count, 7, 0, 3)) for count in (26, 27, 28)]
    out.append(list(cone.facets_of_rays(draws(16, 7, 0, 3)).facet_forms))
    for d in range(2, 7):
        for _ in range(3):
            k = rng.randint(max(1, d - 2), d - 1)
            mix = [[int(i == j) for j in range(d)] for i in range(d)]
            for _ in range(2 * d):
                i, j = rng.sample(range(d), 2)
                c = rng.choice((-1, 1))
                mix[i] = [x + c * y for x, y in zip(mix[i], mix[j])]
            cols = list(zip(*mix))
            out.append(clean(tuple(dot(v + (0,) * (d - k), col) for col in cols)
                             for v in draws(k + 3, k, -1, 1)))
            rows = clean(draws(d + 3, d, -1, 1))
            out.append(clean(rows + [tuple(-x for x in rows[0])]))
    return out


def presentation_corpus(seed, count):
    """Generator lists for ``normalize_presentation``: numerical
    monoids, presentations whose unit generators miss part of the unit
    lattice, and ``count`` seeded random lists of rank 1-3, half of them
    with the opposite of a multiple of one generator added, so that
    units, non-normal ones among them, are common."""
    out = [
        [(2,), (3,)],
        [(3,), (5,)],
        [(2,), (-2,), (3,)],
        [(2, 0), (-2, 0), (1, 2), (0, 3)],
        [(2, 0), (-2, 0), (1, 1)],
        [(1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, 1, 2), (0, 0, 1)],
    ]
    rng = random.Random(seed)
    while len(out) < count + 6:
        r = rng.randint(1, 3)
        b = rng.choice((2, 3, 4))
        gens = [tuple(rng.randint(-1 if rng.random() < 0.3 else 0, b) for _ in range(r))
                for _ in range(rng.randint(1, r + 2))]
        if rng.random() < 0.5:
            k = rng.randint(1, 3)
            gens.append(tuple(-k * x for x in rng.choice(gens)))
        if any(any(g) for g in gens):
            out.append(gens)
    return out


HULL_COEFFICIENTS = ("-2", "1", "1/2", "2", "3", "5")


def _hull_job_polynomial(rng, n):
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(HULL_COEFFICIENTS)]
        for i in range(n):
            x = rng.randint(0, 2)
            if x:
                factors.append("x%d" % (i + 1) if x == 1 else "x%d^%d" % (i + 1, x))
        if factors[0] == "1" and len(factors) > 1:
            factors.pop(0)
        terms.append("*".join(factors))
    return "".join(terms[:1] + [" - " + t[1:] if t[0] == "-" else " + " + t for t in terms[1:]])


def hull_job_corpus(seed, count):
    """Seeded ``graded-hull`` and ``analyze-prime`` CLI jobs as JSON text:
    2-4 variables, a grading of rank 1-3 with entries in -2..2, and 1-3
    polynomials of 1-3 terms with exponents 0..2.  The polynomials are
    random, so many ``analyze-prime`` inputs are not prime and exit 4;
    the corpus exercises the elimination order bases of the hull
    passes, not the prime bookkeeping."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        r = rng.randint(1, 3)
        command, field = rng.choice((("graded-hull", "ideal"), ("analyze-prime", "prime")))
        out.append(json.dumps({
            "command": command,
            "vars": n,
            "grading": [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)],
            field: [_hull_job_polynomial(rng, n) for _ in range(rng.randint(1, 3))],
        }, separators=(",", ":")))
    return out


# -- slow paths kept as references for groebner ------------------------


def grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def reference_key(order, e):
    """``order.key(e)`` by dispatch on the order's kind on every call."""
    if order.kind == "elim":
        keep = tuple(i for i in range(order.nvars) if i not in set(order.drop))
        return (
            grevlex_key(tuple(e[i] for i in order.drop)),
            grevlex_key(tuple(e[i] for i in keep)),
        )
    if order.kind == "grevlex":
        return grevlex_key(e)
    return e


def _exp_lcm(e, d):
    return tuple(map(max, e, d))


def poly_sum(*fs):
    """The sum of polynomials in one number of variables."""
    terms = {}
    for f in fs:
        for e, c in f.terms.items():
            terms[e] = terms.get(e, 0) + c
    return groebner.Polynomial(fs[0].nvars, terms)


def poly_product(f, g):
    """The product of a polynomial with a polynomial or a rational."""
    if not isinstance(g, groebner.Polynomial):
        return groebner.Polynomial(f.nvars, {e: c * g for e, c in f.terms.items()})
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = groebner._exp_add(e1, e2)
            terms[e] = terms.get(e, 0) + c1 * c2
    return groebner.Polynomial(f.nvars, terms)


def monic(f, order):
    return poly_product(f, 1 / f.leading(order)[1])


def _shifted_terms(f, shift, lc):
    """The terms of x^shift * f / lc; a monic basis element has lc 1 and
    is shifted without any division."""
    if lc == 1:
        return {groebner._exp_add(e, shift): c for e, c in f.terms.items()}
    scale = 1 / lc
    return {groebner._exp_add(e, shift): scale * c for e, c in f.terms.items()}


def s_polynomial(f, g, order):
    """The S-polynomial of f and g over Q, each divided by its leading
    coefficient: the rational step that ``groebner._s_pair`` replaced."""
    fe, fc = f.leading(order)
    ge, gc = g.leading(order)
    if f.nvars != g.nvars:
        raise ValueError("mixed variable counts")
    l = _exp_lcm(fe, ge)
    out = _shifted_terms(f, groebner._exp_sub(l, fe), fc)
    for e, c in _shifted_terms(g, groebner._exp_sub(l, ge), gc).items():
        if e not in out:
            out[e] = -c
        elif acc := out[e] - c:
            out[e] = acc
        else:
            del out[e]
    return groebner.Polynomial(f.nvars, out)


def poly_sort_key(f, order):
    """The order in which Buchberger's algorithm takes its generators:
    by their terms, largest first, compared by order key and then by
    coefficient."""
    return sorted(((order.key(e), c) for e, c in f.terms.items()), reverse=True)


def rational_interreduce(basis, order, budget):
    """The reduced basis from a list of monic rational polynomials that
    generate the ideal as a Groebner basis, by :func:`groebner.normal_form`:
    ``groebner._interreduce`` as it was before the integer kernel."""
    pairs = [(g.leading(order)[0], g) for g in basis]
    pairs.sort(key=lambda t: order.key(t[0]))
    kept = []
    for e, g in pairs:
        if not any(groebner._divides(ke, e) for ke, _ in kept):
            kept.append((e, g))
    final = []
    polys = [g for _, g in kept]
    for i, g in enumerate(polys):
        others = polys[:i] + polys[i + 1:]
        r = groebner.normal_form(g, others, order, budget)
        final.append(monic(r, order))
    final.sort(key=lambda g: order.key(g.leading(order)[0]))
    return final


def rational_buchberger(generators, order, budget=None):
    """``groebner.buchberger`` as it was before the integer kernel: the
    same sugar heap over monic rational polynomials, each pair reduced by
    :func:`groebner.normal_form` of :func:`s_polynomial`, and the basis
    interreduced by :func:`rational_interreduce`.  Every integer
    polynomial of the kernel is a positive multiple of the rational one
    here, so both routes must reduce the same pairs in the same order,
    spend the same steps and return the same basis.  ``s_polynomial`` is
    looked up in this module and ``normal_form`` in ``groebner``, so a
    test can count the calls.
    """
    budget = groebner._as_budget(budget)
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return ()
    nv = gens[0].nvars
    if any(g.nvars != nv for g in gens):
        raise ValueError("mixed variable counts")
    key = order.key
    gens = sorted(gens, key=lambda g: poly_sort_key(g, order))
    basis = []
    lts = []
    sugars = []
    pending = []  # heap of (sugar, key(lcm), (i, j), lcm)
    done = set()

    def append(g, sugar):
        basis.append(monic(g, order))
        lt = g.leading(order)[0]
        new = len(lts)
        excess = sugar - sum(lt)
        for k, lk in enumerate(lts):
            l = _exp_lcm(lk, lt)
            s = sum(l) + max(sugars[k] - sum(lk), excess)
            heapq.heappush(pending, (s, key(l), (k, new), l))
        lts.append(lt)
        sugars.append(sugar)

    for g in gens:
        append(g, g.total_degree())
    while pending:
        s, _, (i, j), l = heapq.heappop(pending)
        done.add((i, j))
        if l == groebner._exp_add(lts[i], lts[j]):
            continue  # coprime leading terms reduce to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not groebner._divides(lts[k], l):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in done and pjk in done:
                skip = True
                break
        if skip:
            continue
        h = groebner.normal_form(s_polynomial(basis[i], basis[j], order),
                                 basis, order, budget)
        if not h.is_zero:
            append(h, max(s, h.total_degree()))
    return tuple(rational_interreduce(basis, order, budget))


def reference_buchberger(generators, order, budget):
    """``groebner.buchberger`` selecting each pair by ``min`` over the
    whole pending set, with keys from :func:`reference_key` and each
    pair's sugar recomputed from the sugars of its two elements.

    S-polynomials go through this module's ``s_polynomial``, and
    reductions and the final interreduction through the ``groebner``
    module's globals, so a test that counts them there counts both
    routes alike.
    """
    def key(e):
        return reference_key(order, e)

    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return ()
    gens = sorted(gens, key=lambda g: sorted(((key(e), c) for e, c in g.terms.items()),
                                             reverse=True))
    basis, lts, sugars = [], [], []
    for g in gens:
        basis.append(monic(g, order))
        lts.append(g.leading(order)[0])
        sugars.append(max(sum(e) for e in g.terms))
    pending, done = set(), set()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            pending.add((i, j))

    def lcm(p):
        return tuple(max(a, b) for a, b in zip(lts[p[0]], lts[p[1]]))

    def sugar(p):
        l = sum(lcm(p))
        return max(sugars[k] + l - sum(lts[k]) for k in p)

    def divides(d, e):
        return all(a <= b for a, b in zip(d, e))

    while pending:
        i, j = min(pending, key=lambda p: (sugar(p), key(lcm(p)), p))
        pending.discard((i, j))
        done.add((i, j))
        l = lcm((i, j))
        if l == tuple(a + b for a, b in zip(lts[i], lts[j])):
            continue
        if any(k not in (i, j) and divides(lts[k], l)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k in range(len(basis))):
            continue
        h = groebner.normal_form(s_polynomial(basis[i], basis[j], order),
                                 basis, order, budget)
        if h.is_zero:
            continue
        basis.append(monic(h, order))
        lts.append(h.leading(order)[0])
        sugars.append(max(sugar((i, j)), max(sum(e) for e in h.terms)))
        new = len(basis) - 1
        for k in range(new):
            pending.add((k, new))
    return tuple(rational_interreduce(basis, order, budget))


def normal_strategy_buchberger(generators, order, budget=None):
    """``groebner.buchberger`` as it was before sugar: the pending heap is
    keyed by the order key of the lcm alone (the normal strategy).  The
    reduced basis is unique, so both routes must agree; the S-pair
    counts show what the selection saves.  S-polynomials go through this
    module's ``s_polynomial`` and reductions through ``groebner``'s
    ``normal_form``.
    """
    budget = groebner._as_budget(budget)
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return ()
    nv = gens[0].nvars
    if any(g.nvars != nv for g in gens):
        raise ValueError("mixed variable counts")
    key = order.key
    gens = sorted(gens, key=lambda g: poly_sort_key(g, order))
    basis = []
    lts = []
    pending = []  # heap of (key(lcm), (i, j), lcm)
    done = set()

    def append(g):
        basis.append(monic(g, order))
        lt = g.leading(order)[0]
        new = len(lts)
        for k, lk in enumerate(lts):
            l = _exp_lcm(lk, lt)
            heapq.heappush(pending, (key(l), (k, new), l))
        lts.append(lt)

    for g in gens:
        append(g)
    while pending:
        _, (i, j), l = heapq.heappop(pending)
        done.add((i, j))
        if l == groebner._exp_add(lts[i], lts[j]):
            continue  # coprime leading terms reduce to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not groebner._divides(lts[k], l):
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in done and pjk in done:
                skip = True
                break
        if skip:
            continue
        h = groebner.normal_form(s_polynomial(basis[i], basis[j], order),
                                 basis, order, budget)
        if not h.is_zero:
            append(h)
    return tuple(rational_interreduce(basis, order, budget))


def reference_ideal_dimension(ideal):
    """The quotient dimension that ``groebner._grevlex_basis_dimension``
    reads off the reduced grevlex rows, by the route it replaced: every
    set of variables is tried, largest first, until none of the leading
    terms of the grevlex basis lives on it."""
    n = ideal.nvars
    deg_order = groebner.grevlex(n)
    gb = groebner.buchberger(ideal.generators, deg_order)
    if not gb:
        return n
    exps = []
    for g in gb:
        e = g.leading(deg_order)[0]
        if not any(e):
            raise ValueError("the ideal is the unit ideal")
        exps.append(e)
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            keep = set(subset)
            if not any(all((x == 0 or i in keep) for i, x in enumerate(e)) for e in exps):
                return size
    return 0


def rows_route(route):
    """``groebner._reduced_rows`` by an oracle ``route`` such as
    :func:`rational_buchberger` or :func:`normal_strategy_buchberger`.
    Each row becomes a rational polynomial (a Fraction row as given, an
    int row as its monic form, as the kernel orders them), and each
    monic polynomial of the answer a primitive integer row, leading term
    first."""
    def reduced_rows(rows, order, budget):
        polys = [row_polynomial(row, order.nvars) for row in rows]
        return [primitive_row(g, order) for g in route(polys, order, budget)]

    return reduced_rows


def row_polynomial(row, nvars):
    """The rational polynomial a kernel row stands for: a Fraction row as
    given, an int row made monic by its first coefficient."""
    lc = next(iter(row.values()))
    if type(lc) is int:
        row = {e: Fraction(c, lc) for e, c in row.items()}
    return groebner.Polynomial(nvars, row)


def primitive_row(f, order):
    """The primitive integer row of a nonzero polynomial: its leading
    term first, with a positive coefficient."""
    lt, lc = f.leading(order)
    m = math.lcm(*(c.denominator for c in f.terms.values()))
    ints = {e: int(c * m) for e, c in f.terms.items()}
    d = gcd(*ints.values()) * (1 if lc > 0 else -1)
    row = {lt: ints[lt] // d}
    row.update((e, c // d) for e, c in ints.items() if e != lt)
    return row


# -- slow paths kept as references for multigraded ----------------------


def polynomial_graded_hull_z(ideal, weights, budget):
    """One weight row's hull pass, ``multigraded._hull_pass``, as it was
    before the hull passes ran on integer rows: the substituted
    generators, the elimination basis, the t,u-free elements and the
    re-basis are all rational polynomials, each basis from the public
    ``groebner.buchberger``."""
    n = ideal.nvars
    wt = tuple(weights)
    ti, ui = n, n + 1
    subst = []
    for g in ideal.generators:
        terms = {}
        for e, c in g.terms.items():
            d = sum(x * w for x, w in zip(e, wt))
            terms[e + ((d, 0) if d >= 0 else (0, -d))] = c
        subst.append(groebner.Polynomial(n + 2, terms))
    rel_terms = {(0,) * n + (1, 1): 1, (0,) * (n + 2): -1}
    subst.append(groebner.Polynomial(n + 2, rel_terms))
    order = groebner.elimination_order((ti, ui), n + 2)
    gb = groebner.buchberger(subst, order, budget)
    kept = []
    for g in gb:
        if all(e[ti] == 0 and e[ui] == 0 for e in g.terms):
            kept.append(groebner.Polynomial(n, {e[:n]: c for e, c in g.terms.items()}))
    return groebner.IdealPresentation(groebner.buchberger(kept, ideal.order, budget),
                                      ideal.order)


def polynomial_graded_hull(ideal, spec, budget):
    """``multigraded.graded_hull`` by :func:`polynomial_graded_hull_z`."""
    for axis in range(spec.rank):
        ideal = polynomial_graded_hull_z(ideal, spec.weights(axis), budget)
    return ideal


def polynomial_basis_dimension(gb, order, budget):
    """``groebner._grevlex_basis_dimension`` read off the leading terms of
    rational polynomials, one budget unit per branch of the cover search."""
    n = order.nvars
    supports = []
    for g in gb:
        e = g.leading(order)[0]
        if not any(e):
            raise ValueError("the ideal is the unit ideal")
        supports.append(sum(1 << i for i, x in enumerate(e) if x))

    def least_cover(met):
        budget.spend("dimension search")
        rest = next((s for s in supports if not s & met), 0)
        if not rest:
            return 0
        best = n
        while rest:
            v = rest & -rest
            rest ^= v
            best = min(best, 1 + least_cover(met | v))
        return best

    return n - least_cover(0)


def polynomial_random_nonmember(rng, n, gb, order, budget):
    """``multigraded._random_nonmember`` as it was before the samples were
    packed: a rational polynomial drawn with ``randint``, its membership
    tested by the rational ``groebner.normal_form``."""
    for _ in range(64):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            terms[e] = terms.get(e, 0) + rng.randint(-2, 2)
        f = groebner.Polynomial(n, terms)
        if not f.is_zero and not groebner.normal_form(f, gb, order, budget).is_zero:
            return f
    return poly_sum(f, groebner.Polynomial(n, {(0,) * n: 1}))


def polynomial_analyze_prime(p, spec, budget, draws, samples=8, seed=1):
    """``multigraded.analyze_prime`` on rational polynomials throughout,
    by the slow paths above; each sample drawn is appended to ``draws``."""
    from monograde.multigraded import NotPrimeError, PrimeAnalysis

    budget = groebner._as_budget(budget)
    n = p.nvars
    gb_p = groebner.buchberger(p.generators, p.order, budget)
    if any(not any(g.leading(p.order)[0]) for g in gb_p):
        raise NotPrimeError("the unit ideal is not prime")
    star = polynomial_graded_hull(groebner.IdealPresentation(gb_p, p.order), spec, budget)
    gb_star = star.generators
    graded = list(gb_star) == list(gb_p)
    deg_order = groebner.grevlex(n)
    if p.order == deg_order:
        gb_p_deg, gb_star_deg = gb_p, gb_star
    else:
        gb_p_deg = groebner.buchberger(gb_p, deg_order, budget)
        gb_star_deg = groebner.buchberger(gb_star, deg_order, budget)
    dim_p = n - polynomial_basis_dimension(gb_p_deg, deg_order, budget)
    dim_star = n - polynomial_basis_dimension(gb_star_deg, deg_order, budget)
    tau = dim_p - dim_star
    sigma = spec.sigma()
    rng = random.Random(seed)
    if gb_star:
        for _ in range(samples):
            a = polynomial_random_nonmember(rng, n, gb_star_deg, deg_order, budget)
            draws.append(a)
            b = polynomial_random_nonmember(rng, n, gb_star_deg, deg_order, budget)
            draws.append(b)
            if groebner.normal_form(poly_product(a, b), gb_star_deg, deg_order, budget).is_zero:
                raise NotPrimeError("graded core contains a product of two nonmembers; "
                                    "the input cannot be prime")
    if graded:
        if tau != 0:
            raise RuntimeError("graded input with a dimension drop; this is a bug")
    elif not 1 <= tau <= sigma:
        raise NotPrimeError("dimension drop %d escapes the bound 1..%d expected for a "
                            "nongraded prime; the input cannot be prime" % (tau, sigma))
    return PrimeAnalysis(star, graded, dim_p, dim_star, tau, sigma)


# -- slow paths kept as references for monoid and divisorial -----------


def box_hilbert_basis(rays, forms, dim):
    """Hilbert basis of a pointed full-dimensional cone in Z^dim by a
    scan of the whole zonotope bounding box, one dot product per form
    and point: the route ``monoid._pointed_hilbert_basis`` replaced."""
    if dim == 0 or not rays:
        return ()
    lo = [sum(min(0, r[i]) for r in rays) for i in range(dim)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(dim)]
    volume = 1
    for a, b in zip(lo, hi):
        volume *= b - a + 1
    _guard_box(volume)
    candidates = []
    for pt in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        if not any(pt):
            continue
        vals = tuple(_dot(f, pt) for f in forms)
        if all(v >= 0 for v in vals):
            candidates.append((sum(vals), pt, vals))
    candidates.sort(key=lambda t: (t[0], t[1]))
    basis = []
    basis_vals = []
    for _, pt, vals in candidates:
        reducible = False
        for bvals in basis_vals:
            if all(v >= w for v, w in zip(vals, bvals)):
                reducible = True
                break
        if not reducible:
            basis.append(pt)
            basis_vals.append(vals)
    return tuple(sorted(basis))


def box_minimal_generators(ideal):
    """``divisorial.minimal_generators`` by a scan of the whole vertex
    box plus zonotope box, one dot product per form and point, with the
    Hilbert basis from :func:`box_hilbert_basis`: the route the region
    sweep replaced.  The vertices come from the rational solves of
    :func:`region_tight_points`, not from the package."""
    m = ideal.monoid
    m.require_normal()
    view = m._pointed_view
    k = view.dim
    if k == 0:
        return (m.to_ambient((0,) * m.rank),)
    forms = view.forms
    h = ideal.heights
    zlo = [sum(min(0, r[i]) for r in view.rays) for i in range(k)]
    zhi = [sum(max(0, r[i]) for r in view.rays) for i in range(k)]
    _guard_box(math.prod(b - a + 1 for a, b in zip(zlo, zhi)))
    verts = region_tight_points(forms, h)
    if not verts:
        raise RuntimeError("height region unexpectedly has no vertices")
    lo = [math.floor(min(v[i] for v in verts)) + zlo[i] for i in range(k)]
    hi = [math.ceil(max(v[i] for v in verts)) + zhi[i] for i in range(k)]
    _guard_box(math.prod(b - a + 1 for a, b in zip(lo, hi)))
    hb = box_hilbert_basis(view.rays, forms, k)
    hb_vals = [tuple(_dot(f, b) for f in forms) for b in hb]
    minimal = []
    for pt in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        vals = tuple(_dot(f, pt) for f in forms)
        if any(v < hh for v, hh in zip(vals, h)):
            continue
        reducible = False
        for bvals in hb_vals:
            if all(v - w >= hh for v, w, hh in zip(vals, bvals, h)):
                reducible = True
                break
        if not reducible:
            minimal.append(pt)
    return tuple(sorted(m.to_ambient(m._lift_local(pt)) for pt in minimal))


def box_members(ideal, box):
    """``divisorial.members`` by a scan of all (2 box + 1)^r ambient
    points with one lattice solve each: the route the region sweep
    replaced."""
    r = ideal.monoid.ambient_rank
    _guard_box((2 * box + 1) ** r)
    return tuple(pt for pt in itertools.product(range(-box, box + 1), repeat=r)
                 if ideal.contains(pt))


def hermite_cone_lattice(rays):
    """``(lattice_basis, local_generators)`` of ``monoid_from_cone_rays``
    by the route it takes for a lower-rank span, which it took for every
    span before reading full rank off one elimination: L is the kernel
    of the kernel of the rays, and each ray is written in its Hermite
    basis."""
    rs = [tuple(v) for v in rays if any(v)]
    orth = kernel_basis(rs, width=len(rs[0]))
    basis = kernel_basis(orth)
    return basis, tuple(lattice_coordinates(basis, v) for v in rs)


def cokernel_class_group(m):
    """The divisor class group as the package once built it, as the
    cokernel of the facet matrix F: a Smith form S = U F V that carries
    its s x s row transform U.  Returns the invariant factors (1s
    dropped, a 0 per free factor) and the class of a height vector h,
    the coordinates of U h with 1s dropped, each reduced modulo its
    factor; h is principal iff its class is zero."""
    diag, u = _smith_left(_as_matrix(m.facet_matrix, m.rank))
    # one cyclic factor per row of U: the diagonal entry, 0 past its end
    kept = [(diag[i] if i < len(diag) else 0, row) for i, row in enumerate(u)]
    kept = [(f, row) for f, row in kept if f != 1]

    def class_of(heights):
        if len(heights) != len(u):
            raise ValueError("need one height per facet form")
        return tuple(dot(row, heights) % f if f else dot(row, heights) for f, row in kept)

    return tuple(f for f, _ in kept), class_of


def kernel_unit_rows(m):
    """Local basis of the unit group of C cap L as the integer kernel of
    the facet forms: the route ``AffineMonoid`` replaced with the
    lineality its cone conversion already holds."""
    return kernel_basis(m.facet_matrix, width=m.rank)


def presentation_member(m, ambient):
    """Exact membership in the monoid generated by the presentation of
    ``m``, by the recursive search ``AffineMonoid`` once carried as a
    method.

    Decided facet by facet: generators with some positive facet value
    admit only finitely many multiplicities, and the residual must lie
    in the group generated by the unit generators (which is all the
    unit generators can reach).  A monoid declared normal at
    construction is the full saturation, so membership coincides with
    ``contains``.  The search has no limit: keep its inputs small.
    """
    if m._assume_normal:
        return m.contains(ambient)
    local = m.to_local(ambient)
    if local is None:
        return False
    target = m._facet_values_local(local)
    if any(v < 0 for v in target):
        return False
    unit_gens = []
    pointed = []
    for g in m.local_generators:
        vals = m._facet_values_local(g)
        if any(vals):
            pointed.append((g, vals))
        else:
            unit_gens.append(g)
    unit_lattice = row_lattice_basis(unit_gens) if unit_gens else IntMatrix((), m.rank)

    def search(idx, remaining, residual):
        if all(v == 0 for v in remaining):
            return lattice_coordinates(unit_lattice, residual) is not None
        if idx == len(pointed):
            return False
        g, vals = pointed[idx]
        cap = min(remaining[i] // vals[i] for i in range(len(vals)) if vals[i] > 0)
        for n in range(cap + 1):
            nxt = tuple(r - n * v for r, v in zip(remaining, vals))
            if any(v < 0 for v in nxt):
                break
            if search(idx + 1, nxt, tuple(x - n * y for x, y in zip(residual, g))):
                return True
        return False

    return search(0, target, local)


def search_normality(m):
    """``(is_normal, witness)`` by the route ``AffineMonoid._normality``
    replaced: the unit generators' lattice compared with the kernel
    units by Hermite bases, a Smith solve per missing row, and then the
    :func:`presentation_member` search on every Hilbert basis element."""
    if m._assume_normal:
        return True, None
    unit_gens = [g for g in m.local_generators
                 if not any(m._facet_values_local(g))]
    n_rows = kernel_unit_rows(m)
    if n_rows:
        gen_rows = IntMatrix(unit_gens, m.rank)
        if row_lattice_basis(gen_rows) != row_lattice_basis(n_rows):
            for row in n_rows:
                if smith_solve(gen_rows.T, row) is None:
                    return False, m.to_ambient(row)
    for h in m._hilbert_local():
        amb = m.to_ambient(h)
        if not presentation_member(m, amb):
            return False, amb
    return True, None


# -- slow paths kept as references for cone ----------------------------


def rank_extreme_rays(gens, forms, span_cuts, lin_dim):
    """The generators extreme modulo a lineality space of dimension
    ``lin_dim``, by one rank per generator: v is extreme iff the forms
    tight on v, with the cuts of the span, leave a face of dimension
    lin_dim + 1.  The route ``cone.facets_of_rays`` replaced with mask
    containment."""
    extreme = []
    for v in gens:
        d = len(v)
        tight = [f for f in forms if _dot(f, v) == 0]
        if d - rank(tight + list(span_cuts)) == lin_dim + 1:
            extreme.append(v)
    return sorted(set(extreme))


def rank_facet_forms(fs, rays, lin):
    """The forms of ``fs`` supporting a facet of the cone with the given
    rays and lineality basis, by one rank per form: f is kept iff the
    rays it vanishes on, with the lineality, span a space one dimension
    short of the cone.  The route ``cone.rays_of_facets`` replaced with
    mask containment."""
    dim = rank(list(rays) + list(lin))
    kept = []
    for f in fs:
        tight = [r for r in rays if _dot(f, r) == 0]
        if rank(tight + list(lin)) == dim - 1:
            kept.append(f)
    return sorted(set(kept))


def containment_extreme_rays(a, d, base, start):
    """``cone._pointed_extreme_rays`` with the adjacency test it had
    before the column bitsets: a positive and a negative ray are
    adjacent iff no third ray's mask contains the AND of theirs, found
    by a scan over every ray.  ``start`` is ignored: the start cone
    comes from its own elimination of ``[B | I]``, where B holds the
    rows of ``base``, as it did before one elimination of ``[A^T | I]``
    gave both the rows and the start cone, so the comparison covers
    the start cone too."""
    if d == 0:
        return {}
    aug = [list(a[i]) + [int(j == k) for k in range(d)] for j, i in enumerate(base)]
    rows, _, e = _eliminate(aug, d)
    sgn = 1 if e > 0 else -1
    inserted = sum(1 << i for i in base)
    masks = {primitive([sgn * row[d + j] for row in rows]): inserted ^ (1 << i)
             for j, i in enumerate(base)}
    for i, row in enumerate(a):
        bit = 1 << i
        if inserted & bit:
            continue
        vals = {r: _dot(row, r) for r in masks}
        fresh = {r: masks[r] | (0 if v else bit) for r, v in vals.items() if v >= 0}
        neg = [r for r, v in vals.items() if v < 0]
        for rp, vp in vals.items():
            if vp <= 0:
                continue
            for rn in neg:
                common = masks[rp] & masks[rn]
                if common.bit_count() < d - 2 or any(
                        m & common == common and r != rp and r != rn for r, m in masks.items()):
                    continue
                vn = vals[rn]
                fresh[primitive([vp * y - vn * x for x, y in zip(rp, rn)])] = common | bit
        masks = fresh
        inserted |= bit
    return masks


# -- slow paths kept as references for exact_linalg --------------------


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def reference_hnf(a):
    """``exact_linalg.hnf`` as it was before the transform rode along
    with the matrix: every row operation written once on H and once
    on U."""
    a = _as_matrix(a)
    m, n = a.shape
    h = [list(row) for row in a]
    u = _identity_rows(m)
    r = 0
    for j in range(n):
        if r == m:
            break
        for i in range(r + 1, m):
            if h[i][j] == 0:
                continue
            g, s, t = xgcd(h[r][j], h[i][j])
            p, q = h[r][j] // g, h[i][j] // g
            _combine_rows(h, r, i, s, t, p, q)
            _combine_rows(u, r, i, s, t, p, q)
        if h[r][j] == 0:
            continue
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        piv = h[r][j]
        for i in range(r):
            q = h[i][j] // piv
            if q:
                _sub_row(h, i, q, r)
                _sub_row(u, i, q, r)
        r += 1
    return IntMatrix(h, n), IntMatrix(u, m)


def reference_snf(a):
    """The two-sided Smith form (S, U, V), S = U @ A @ V, as
    ``exact_linalg`` computed it before the transforms rode along with
    the matrix: every row operation written on S and U, every column
    operation on S and V.  The diagonal and U are those of
    ``exact_linalg._smith_left``."""
    a = _as_matrix(a)
    m, n = a.shape
    s = [list(row) for row in a]
    u = _identity_rows(m)
    v = _identity_rows(n)
    k = min(m, n)
    for t in range(k):
        # choose the remaining entry of least absolute value as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            s[t], s[bi] = s[bi], s[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            _swap_cols(s, t, bj)
            _swap_cols(v, t, bj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] == 0:
                    continue
                if s[i][t] % s[t][t] == 0:
                    # plain subtraction never disturbs the pivot row
                    q = s[i][t] // s[t][t]
                    _sub_row(s, i, q, t)
                    _sub_row(u, i, q, t)
                    continue
                g, cs, ct = xgcd(s[t][t], s[i][t])
                dirty = True
                p, q = s[t][t] // g, s[i][t] // g
                _combine_rows(s, t, i, cs, ct, p, q)
                _combine_rows(u, t, i, cs, ct, p, q)
            for j in range(t + 1, n):
                if s[t][j] == 0:
                    continue
                if s[t][j] % s[t][t] == 0:
                    q = s[t][j] // s[t][t]
                    _sub_col(s, j, q, t)
                    _sub_col(v, j, q, t)
                    continue
                g, cs, ct = xgcd(s[t][t], s[t][j])
                dirty = True
                p, q = s[t][t] // g, s[t][j] // g
                _combine_cols(s, t, j, cs, ct, p, q)
                _combine_cols(v, t, j, cs, ct, p, q)
    for i in range(k):
        if s[i][i] < 0:
            s[i] = [-x for x in s[i]]
            u[i] = [-x for x in u[i]]
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a0, b0 = s[i][i], s[i + 1][i + 1]
            if a0 == 0 and b0 != 0:
                s[i], s[i + 1] = s[i + 1], s[i]
                u[i], u[i + 1] = u[i + 1], u[i]
                _swap_cols(s, i, i + 1)
                _swap_cols(v, i, i + 1)
                changed = True
            elif a0 and b0 and b0 % a0:
                g, cs, ct = xgcd(a0, b0)
                _combine_rows(s, i, i + 1, cs, ct, a0 // g, b0 // g)
                _combine_rows(u, i, i + 1, cs, ct, a0 // g, b0 // g)
                # paired column transform keeps the product diagonal: diag(g, a*b/g)
                _combine_cols(s, i, i + 1, 1, 1, cs * (a0 // g), ct * (b0 // g))
                _combine_cols(v, i, i + 1, 1, 1, cs * (a0 // g), ct * (b0 // g))
                changed = True
    return IntMatrix(s, n), IntMatrix(u, m), IntMatrix(v, n)


def smith_solve(a, b):
    """One integer solution x of A @ x = b, or None when none exists,
    through the two-sided Smith form of :func:`reference_snf`: the route
    the package took for shift witnesses and the Gorenstein test before
    every integer preimage read a Hermite form."""
    a = _as_matrix(a)
    m, n = a.shape
    b = [int(x) for x in b]
    if len(b) != m:
        raise ValueError("right hand side length does not match")
    s, u, v = reference_snf(a)
    c = u @ b
    w = [0] * n
    k = min(m, n)
    for i in range(k):
        d = s[i, i]
        if d:
            if c[i] % d:
                return None
            w[i] = c[i] // d
        elif c[i]:
            return None
    if any(c[k:]):
        return None
    return v @ w
