"""Rational polyhedral cones with exact ray and facet duality.

Both conversion directions run the double description method over exact
integers.  One fraction-free elimination gives the rank, the start rows
and the start cone, and the adjacency test is combinatorial: each ray
carries a bitmask of the constraints tight on it, and two rays are
adjacent iff no third ray's mask contains the AND of theirs.  The
kernel keeps the incidence columns as it goes, for each constraint the
set of rays tight on it, and decides adjacency on them: ANDed over the
constraints common to the pair, exactly the pair's own two bits must
survive.  Double description returns the masks and the final columns,
and both conversions read the face questions off the columns by
containment, with no further rank: a face is known by the set of facet
forms vanishing on it, and a larger set means a smaller face.  So a
generator is extreme iff its set is maximal among those short of all
forms, and an input form supports a facet iff the set of rays it
vanishes on is maximal among those short of all rays.  Cones may be
non-pointed (the lineality space is reported separately) and
lower-dimensional.  For a full-dimensional cone the facet forms are the
unique primitive supports of the facets; otherwise they describe the
cone modulo the orthogonal complement of its span.  A ray or form that
double description finds modulo a lattice is reduced by its Hermite
basis (``exact_linalg._divmod``), whatever quotient basis it ran in.

``facets_of_rays`` keeps its last few conversions in a small memo keyed
by the cleaned generators (see its docstring), because a job that builds
a monoid from the rays it has just converted asks the same question
twice.  ``rays_of_facets`` has no memo: nothing asks it twice, and
answering it from the cones ``facets_of_rays`` built would hide the cost
of the other direction of the duality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul

from .exact_linalg import (
    IntMatrix,
    Vec,
    _as_count,
    _as_vector,
    _as_vectors,
    _divmod,
    _dot,
    _eliminate,
    _quotient,
    kernel_basis,
    rank,
    row_lattice_basis,
)


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone in Z^ambient_rank.

    ``rays`` are extreme rays modulo lineality, sorted: from
    ``rays_of_facets`` each primitive class once, and from
    ``facets_of_rays`` the extreme input generators, so with lineality
    a class may appear more than once and need not be primitive;
    ``facet_forms`` are primitive supporting functionals, one per facet,
    sorted; ``lineality`` is a canonical basis of the largest linear
    subspace contained in the cone.
    """

    rays: tuple[Vec, ...]
    facet_forms: tuple[Vec, ...]
    lineality: tuple[Vec, ...]
    ambient_rank: int
    dim: int

    @property
    def is_pointed(self) -> bool:
        return not self.lineality

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient_rank

    def contains(self, x, interior: bool = False) -> bool:
        return membership(self, x, "interior" if interior else "closure")


def _start_cone(a) -> tuple[list[int], list[Vec]]:
    """Independent rows of A and the start cone they cut out, from one
    fraction-free elimination of the rows of A as vectors in Z^d.

    The pivots pick ``base``, a maximal independent set of the rows of
    A, and the transform T has T @ B^T = e*I for the rows B of A in
    ``base``: row k of T is tight on every row of ``base`` but
    ``base[k]``, where it takes the value e.  So sgn(e) times it is the
    start ray opposite ``base[k]``.  The rows are int lists the
    elimination just built, so each is divided by its gcd, signed as e,
    without the input checks of ``primitive``.
    """
    t, base, e = _eliminate(a, a.shape[1])
    start = []
    for row in t[:len(base)]:
        g = gcd(*row) if e > 0 else -gcd(*row)
        start.append(tuple([x // g for x in row]))
    return base, start


def _pointed_extreme_rays(a, d: int, base: list[int],
                          start: list[Vec]) -> tuple[dict[Vec, int], list[int], int]:
    """Extreme rays of {x : A x >= 0} for A of full column rank d (pointed
    cone), each mapped to the bitmask of the rows of A tight on it; for
    each row of A, its column, the set of rays tight on it; and
    ``full``, the set of all the rays.

    ``base`` lists d independent rows of A, and ``start[k]`` is tight
    on all of them but ``base[k]`` (see ``_start_cone``).  Incremental
    double description: start from the simplicial cone they span, then
    insert the other rows one by one.  Each ray keeps one index for the
    whole run and a bitmask of the inserted rows tight on it, and each
    inserted row keeps its column.  A ray that joins sets its bit in the
    columns of its mask; a ray that leaves is only cleared from
    ``alive``.  A positive and a negative ray are adjacent iff no third
    ray is tight on every row both are tight on (Fukuda & Prodon 1996);
    only adjacent pairs combine into new rays.  The test ANDs ``alive``
    with the columns of the rows common to the pair: exactly the pair's
    own two bits survive iff the pair is adjacent, and it stops as soon
    as only those two are left.  Kept rays stay in order and new ones
    follow, so the j-th ray returned is the j-th lowest bit of ``full``.
    """
    inserted = sum(1 << i for i in base)
    vecs, masks = list(start), [inserted ^ (1 << i) for i in base]
    alive = (1 << d) - 1
    cols = {1 << i: alive ^ (1 << k) for k, i in enumerate(base)}
    live = list(range(d))
    for i, row in enumerate(a):
        bit = 1 << i
        if inserted & bit:
            continue
        # one pass: the signs on the new row, and the rays that survive it
        kept, pos, neg, zero, dead = [], [], [], 0, 0
        for k in live:
            r, b = vecs[k], 1 << k
            v = sum(map(mul, row, r))
            if v < 0:
                neg.append((masks[k], b, r, v))
                dead |= b
                continue
            kept.append(k)
            if v:
                pos.append((masks[k], b, r, v))
            else:
                zero |= b
                masks[k] |= bit
        made = 0
        for mp, bp, rp, vp in pos:
            for mn, bn, rn, vn in neg:
                common = mp & mn
                # a 2-face is cut out by at least d - 2 constraints: a cheap first filter
                if common.bit_count() < d - 2:
                    continue
                # AND the columns of the common rows; the pair itself always survives
                pair = bp | bn
                left, rest = alive, common
                while rest and left != pair:
                    low = rest & -rest
                    left &= cols[low]
                    rest ^= low
                if left != pair:
                    continue
                w = [vp * y - vn * x for x, y in zip(rp, rn)]
                g = gcd(*w)
                k = len(vecs)
                b = 1 << k
                vecs.append(tuple(w) if g == 1 else tuple([x // g for x in w]))
                masks.append(common | bit)
                kept.append(k)
                made |= b
                # the new ray is not in ``alive`` yet, so later tests of this row skip it
                while common:
                    low = common & -common
                    cols[low] |= b
                    common ^= low
        cols[bit] = zero | made
        alive = alive & ~dead | made
        live = kept
        inserted |= bit
    return ({vecs[k]: masks[k] for k in live},
            [cols[1 << i] & alive for i in range(len(a))], alive)


def _dd(a: IntMatrix) -> tuple[dict[Vec, int], list[int], int, IntMatrix]:
    """Extreme rays (modulo lineality) of {x : A x >= 0}, each mapped to
    the bitmask of the rows of A tight on it; the incidence columns, for
    each row of A the set of those rays tight on it, over the bits of
    ``full``, the set of all the rays (see ``_pointed_extreme_rays``);
    and a lineality basis.

    One elimination, ``_start_cone``, gives the rank and the start cone
    of double description.  Only when the rank falls short of d is the
    quotient (H, W, K) = ``_quotient(A)`` taken: ``lin`` is the Hermite
    basis of K, and the cone is solved in the pointed quotient, from the
    start cone of H.T, and lifted back by W.  z -> z @ W maps Z^k onto
    Z^d / K, so a primitive z lifts to a primitive class, and row i of
    H.T is tight on z iff row i of A is tight on z @ W: the masks and
    columns carry over.  Both hold when ``_divmod`` reduces z @ W by
    ``lin``, so no ray depends on the section.
    """
    d = a.shape[1]
    base, start = _start_cone(a)
    if len(base) == d:
        return *_pointed_extreme_rays(a, d, base, start), IntMatrix._of((), d)
    h, w, k = _quotient(a)
    lin = row_lattice_basis(k)
    if not base:
        return {}, [0] * len(a), 0, lin
    a = h.T
    base, start = _start_cone(a)
    rays, cols, full = _pointed_extreme_rays(a, len(base), base, start)
    return {_divmod(lin, w._rmul(z))[1]: m for z, m in rays.items()}, cols, full, lin


def _maximal_proper(sets: list[int], full: int) -> list[bool]:
    """For each bitmask t of ``sets``: t != full and no w in ``sets`` has
    t < w != full.  The distinct proper sets are taken by decreasing
    size, and one is kept iff no kept set contains it: a set strictly
    containing t is larger, so it came first, and it is kept or lies in
    a kept set."""
    kept = []
    for t in sorted(set(sets) - {full}, key=int.bit_count, reverse=True):
        for w in kept:
            if t & w == t:
                break
        else:
            kept.append(t)
    kept = set(kept)
    return [t in kept for t in sets]


def _clean_vectors(vectors, width: int | None) -> tuple[tuple[Vec, ...], int]:
    """The sorted distinct primitive forms of the nonzero vectors, and
    their width.  A width stated with no vectors is read like every
    integer input: 2.0 is taken as 2, and 2.5 or a negative width raises
    ValueError; with vectors it must equal their length."""
    vs = _as_vectors(vectors, "vectors")
    if vs:
        if width is not None and len(vs[0]) != width:
            raise ValueError("vectors do not match the stated ambient rank")
        width = len(vs[0])
    elif width is None:
        raise ValueError("ambient rank is required when no vectors are given")
    else:
        width = _as_count(width, 0, "ambient rank must be nonnegative")
    return _primitive_set(vs), width


def _primitive_set(vectors) -> tuple[Vec, ...]:
    """The sorted distinct primitive forms of the nonzero int-tuple
    vectors, taken as read: the memo key of ``_facets_of_generators``."""
    # the zero vector, whose gcd is 0, is dropped
    out = {v if g == 1 else tuple(x // g for x in v) for v in vectors if (g := gcd(*v))}
    return tuple(sorted(out))


# on the seed-811 benchmark lists, each cone-duality job hits once, within
# the job; monoid-ring never hits; cli-small hits 119 of 3,215 lookups, all
# across jobs, as small cones recur.  The size only bounds the memory held
_MEMO_SIZE = 16


def facets_of_rays(rays, ambient_rank: int | None = None) -> Cone:
    """Cone spanned by the given vectors, converted to facet description.

    The dual cone of the input is computed by double description; its
    extreme rays are the facet forms.  Input vectors that are not
    extreme (or are duplicates or zero) are filtered from ``rays``; the
    others are kept, made primitive, so with lineality a ray may repeat:
    ``facets_of_rays([(1, 1), (-1, -1), (1, -1), (2, 0), (0, -2),
    (3, -1)]).rays`` keeps four generators of the one class modulo (1, 1)
    that ``rays_of_facets`` of its forms gives as (0, -1), two of them,
    (1, -1) and (3, -1), multiples of that class.

    The conversion is memoized on the cleaned input: the sorted set of
    primitive nonzero generators and the width.  So a permuted, scaled
    or duplicated ray list, or one holding zero vectors, is the same
    question, and a monoid built from the rays a job has just converted
    reads the cone back instead of running double description again:
    ``AffineMonoid.cone`` asks ``_facets_of_generators`` under the same
    key, from the vectors it has read already (``_primitive_set``).  The
    memo keeps the last ``_MEMO_SIZE`` conversions, whose measured
    traffic the comment there gives.  The ``Cone`` returned is then
    shared between callers, which is safe because it is immutable.
    Malformed input raises on every call.
    """
    gens, d = _clean_vectors(rays, ambient_rank)
    return _facets_of_generators(gens, d)


@lru_cache(maxsize=_MEMO_SIZE)
def _facets_of_generators(gens: tuple[Vec, ...], d: int) -> Cone:
    # tight[j]: the forms vanishing on generator j; span_cuts vanish on span(C)
    masks, tight, full, span_cuts = _dd(IntMatrix._of(gens, d))
    forms = sorted(masks)
    # the lineality space is a face, so it is nonzero iff some generator lies in it
    lin = (kernel_basis(IntMatrix._of(forms + list(span_cuts), d)) if full in tight
           else IntMatrix._of((), d))
    return Cone(
        rays=tuple(v for v, ext in zip(gens, _maximal_proper(tight, full)) if ext),
        facet_forms=tuple(forms),
        lineality=lin,
        ambient_rank=d,
        dim=d - len(span_cuts),
    )


def rays_of_facets(forms, ambient_rank: int) -> Cone:
    """Cone {x : f(x) >= 0 for all given forms}, converted to rays.

    Redundant input forms (those not supporting a facet) are dropped
    from ``facet_forms``.
    """
    fs, d = _clean_vectors(forms, ambient_rank)
    masks, vanish, full, lin = _dd(IntMatrix._of(fs, d))  # vanish[i]: the rays fs[i] vanishes on
    rays = sorted(masks)
    # without a form vanishing on the whole cone, some point is positive on every form
    dim = rank(rays + list(lin)) if full in vanish else d
    return Cone(
        rays=tuple(rays),
        facet_forms=tuple(f for f, facet in zip(fs, _maximal_proper(vanish, full)) if facet),
        lineality=lin,
        ambient_rank=d,
        dim=dim,
    )


def membership(cone: Cone, x, mode: str = "closure") -> bool:
    """Decide whether x lies in the cone (or its relative interior).

    ``closure`` requires every facet form to be nonnegative, ``interior``
    requires every form to be at least 1, which on lattice points is
    equivalent to strict positivity.  The facet forms describe the cone
    only inside its linear span, so points off the span are rejected
    first.
    """
    x = _as_vector(x, cone.ambient_rank, "point does not match the ambient rank")
    if mode not in ("closure", "interior"):
        raise ValueError("mode must be 'closure' or 'interior'")
    if cone.dim < cone.ambient_rank and rank(cone.rays + cone.lineality + (x,)) > cone.dim:
        return False
    bound = 0 if mode == "closure" else 1
    return all(_dot(f, x) >= bound for f in cone.facet_forms)
