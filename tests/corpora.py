"""Seeded input corpora for the test suite.

Each generator draws from its own ``random.Random(seed)``, so a corpus
is the same on every run: pointed cones of small rank for the box
oracles, degenerate cones and cones with lineality for the conversions,
rank 5-7 cones for double description, cones with units of rank 1-5,
presentations of non-normal monoids, graded CLI jobs for the hull passes and polynomial text for
the parser.  Only two ask the package for anything:
``large_cone_corpus``, the facet forms of one cone, and only to use them
as input rows, and ``localized_faces``, the monoids of the pointed cones
of a corpus and of their faces' localizations.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from monograde import cone
from monograde.monoid import monoid_from_cone_rays
from oracles import dot, frac_rref, make_primitive
from references import cone_faces


# -- random corpora ---------------------------------------------------


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


def benchmark_rank_cones(seed):
    """Rank 5-6 cones with 8-12 rays, entries in [-1, 1] and first entry 1
    (so they are pointed), full-dimensional, as the benchmark draws them."""
    rng = random.Random(seed)
    out = []
    for d, count in ((5, 8), (5, 10), (5, 12), (6, 8), (6, 9), (6, 10), (5, 9), (5, 11), (6, 12)):
        while True:
            rays = sorted({(1,) + tuple(rng.randint(-1, 1) for _ in range(d - 1))
                           for _ in range(count)})
            if len(rays) == count and frac_rref(rays)[0] == d:
                break
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


def localized_faces(seed):
    """Each pointed cone of ``cone_corpus(seed)`` with its localizations,
    as (m, rays, incidence, faces).  ``incidence[i]`` lists the indices
    of the rays on m's i-th facet, and ``faces`` pairs every nonzero
    proper face (its sorted ray indices) with M_F = M + Z(M cap F), the
    monoid of cone(rays, -rays of F)."""
    for rays in cone_corpus(seed):
        m = monoid_from_cone_rays(rays)
        if not m.is_pointed:
            continue
        values = [m.facet_values(r) for r in rays]
        incidence = [[k for k, vals in enumerate(values) if vals[i] == 0]
                     for i in range(len(m.facet_forms))]
        faces = [(face, monoid_from_cone_rays(rays + [tuple(-x for x in rays[k]) for k in face]))
                 for face in cone_faces(incidence)]
        yield m, rays, incidence, faces


def unit_cone_corpus(seed, count):
    """Ray lists of monoids with units, of unit rank 1-5: ``count``
    pointed cones of ``random_pointed_cones`` of rank 2-5 with the
    opposites of 1-3 of their rays added, then the cones of
    ``cone_corpus`` 401 and 431 that hold the opposite of their first
    ray."""
    rng = random.Random(seed)
    out = []
    for _, rays in random_pointed_cones(count, 5, 2, seed):
        negated = rng.sample(rays, rng.randint(1, min(3, len(rays))))
        out.append(rays + [tuple(-x for x in r) for r in negated])
    for s in (401, 431):
        out += [rays for rays in cone_corpus(s) if tuple(-x for x in rays[0]) in rays]
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


# pieces of polynomial text: names known under some variable lists and
# not others, Unicode digits and spaces the reader takes, characters it
# refuses, and every operator
POLYNOMIAL_FUZZ_PIECES = (
    "x1", "x2", "x3", "x1", "x2", "x", "y_2", "_", "x1x2",
    "0", "1", "2", "07", "12", "\u0663", "\u00b2",
    "+", "-", "+", "-", "*", "*", "^", "/", "^2", "/3", "/0",
    " ", " ", "\t", "\x1c", "\u3000", "@",
)


def polynomial_fuzz_texts(seed, count):
    """Seeded strings of 0-9 pieces of ``POLYNOMIAL_FUZZ_PIECES``, so
    well formed terms, every parse error and their mixtures all occur."""
    rng = random.Random(seed)
    return ["".join(rng.choices(POLYNOMIAL_FUZZ_PIECES, k=rng.randint(0, 9)))
            for _ in range(count)]
