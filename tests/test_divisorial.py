"""Divisorial ideals, canonical modules, class groups, Gorenstein tests.

Minimal generating sets are cross-checked by exhaustive big-box scans,
by the whole-box scan the region sweep replaced and by the
Fourier-Motzkin interior-point oracle; class groups by
determinantal divisors and coset counting.
"""

import collections
import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

import sweepcounts
from monograde import cli, cone, divisorial, exact_linalg, monoid
from monograde.divisorial import (
    DivisorialIdeal,
    canonical_module,
    class_group,
    divisorial_ideal,
    is_gorenstein,
    members,
    minimal_generators,
    same_class,
)
from monograde.monoid import (
    EnumerationLimitError,
    NonNormalError,
    hilbert_basis,
    monoid_from_cone_rays,
    normalize_presentation,
)
from corpora import (
    caratheodory_corpus,
    cone_corpus,
    localized_faces,
    presentation_corpus,
    positive_functional,
    random_pointed_cones,
)
from oracles import (
    brute_irreducibles,
    brute_minimal_interior,
    det_int,
    dot,
    minor_gcd_factors,
    region_tight_points,
    zonotope_box,
)
from references import (
    box_hilbert_basis,
    box_members,
    box_minimal_generators,
    canonical_gorenstein,
    cokernel_class_group,
    coset_count,
    full_scan_floor_filter,
    smith_in_image,
    smith_solve,
    squarefree_divisor_canonical,
    reference_view,
    values_to_ambient,
)

QUAD = monoid_from_cone_rays([(1, 0), (0, 1)])
RNC3 = monoid_from_cone_rays([(1, 0), (1, 3)])
VER2 = normalize_presentation([(2, 0), (1, 1), (0, 2)])


# -- membership and enumeration ----------------------------------------


def test_members_quadrant():
    assert members(divisorial_ideal(QUAD, (1, 1)), 2) == ((1, 1), (1, 2), (2, 1), (2, 2))
    # negative heights push a wall outward; facet order is (y >= .., x >= ..)
    pts = members(divisorial_ideal(QUAD, (0, -1)), 2)
    assert pts == tuple(
        sorted((x, y) for x in range(-1, 3) for y in range(0, 3))
    )
    with pytest.raises(ValueError, match="^box bound must be nonnegative$"):
        members(divisorial_ideal(QUAD, (1, 1)), -1)


def test_members_match_the_box_scan_oracle():
    rng = random.Random(437)
    monoids = [monoid_from_cone_rays(rays) for rays in cone_corpus(437)]
    monoids += [m for m in map(normalize_presentation, presentation_corpus(439, 60))
                if m.is_normal]
    kinds = collections.Counter()
    for m in monoids + [QUAD, RNC3, VER2]:
        kinds["units"] += m.unit_rank > 0
        kinds["embedded"] += m.rank < m.ambient_rank
        kinds["sublattice"] += m.rank == m.ambient_rank and m.lattice_basis != tuple(
            tuple(int(i == j) for j in range(m.rank)) for i in range(m.rank))
        s = len(m.facet_forms)
        box = {1: 9, 2: 6, 3: 3, 4: 2}.get(m.ambient_rank, 1)
        for h in [(1,) * s] + [tuple(rng.randint(-2, 2) for _ in range(s)) for _ in range(2)]:
            ideal = divisorial_ideal(m, h)
            for b in (0, box):
                assert members(ideal, b) == box_members(ideal, b), (m.generators, h, b)
    assert kinds["units"] and kinds["embedded"] and kinds["sublattice"]


def test_members_guard_counts_the_frame_of_the_lattice(monkeypatch):
    """A rank-3 sublattice of Z^6: the ambient box holds 13^6 points,
    but the sweep runs over the 13^3 = 2197 values of the coordinates
    that the Hermite pivots of the basis, all 1, allow."""
    m = monoid_from_cone_rays([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)])
    ideal = divisorial_ideal(m, (1, 1, 1))
    want = [p for x1, x2, c in itertools.product(range(-6, 7), repeat=3)
            for p in [(x1, x2, c, c, c, c)] if ideal.contains(p)]
    assert members(ideal, 6) == tuple(want) and len(want) == 55
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 2196)
    with pytest.raises(EnumerationLimitError,
                       match=r"^echelon sweep has 2197 points, beyond the supported desk scale$"):
        members(ideal, 6)


def test_ideal_contains():
    ideal = divisorial_ideal(RNC3, (1, 1))
    assert ideal.contains((1, 1)) and not ideal.contains((1, 0))


def test_heights_must_match_facets():
    with pytest.raises(ValueError):
        divisorial_ideal(QUAD, (1,))


def test_requires_normal_monoid():
    with pytest.raises(NonNormalError):
        divisorial_ideal(normalize_presentation([(2,), (3,)]), (1,))


def test_every_ideal_operation_refuses_a_non_normal_presentation():
    # the heights describe C cap L, here all of N (1, 0), though the
    # presentation misses (1, 0): the ideal is refused where it is built,
    # and the operations that take no ideal refuse the monoid themselves
    m = normalize_presentation([(2, 0), (3, 0)])
    for call in (lambda: DivisorialIdeal(m, (0,)), lambda: members(DivisorialIdeal(m, (0,)), 2),
                 lambda: same_class(DivisorialIdeal(m, (0,)), DivisorialIdeal(m, (1,))),
                 lambda: is_gorenstein(m), lambda: canonical_module(m), lambda: class_group(m)):
        with pytest.raises(NonNormalError) as info:
            call()
        assert info.value.witness == (1, 0)


# -- minimal generators --------------------------------------------------


def test_minimal_generators_fixtures():
    assert minimal_generators(divisorial_ideal(QUAD, (1, 1))) == ((1, 1),)
    assert minimal_generators(divisorial_ideal(QUAD, (2, 3))) == ((3, 2),)
    assert minimal_generators(divisorial_ideal(QUAD, (0, 0))) == ((0, 0),)
    assert minimal_generators(divisorial_ideal(RNC3, (0, 0))) == ((0, 0),)
    assert minimal_generators(divisorial_ideal(RNC3, (1, 1))) == ((1, 1), (1, 2))


def test_minimal_generators_against_big_box_scan():
    rng = random.Random(67)
    for m in (QUAD, RNC3):
        nfacets = m.facet_matrix.shape[0]
        for _ in range(6):
            h = tuple(rng.randint(-2, 3) for _ in range(nfacets))
            ideal = divisorial_ideal(m, h)
            gens = minimal_generators(ideal)
            pts = set(members(ideal, 9))
            window = {p for p in pts if all(abs(c) <= 5 for c in p)}
            naive = {
                y
                for y in window
                if not any(
                    w != y and m.contains(tuple(a - b for a, b in zip(y, w)))
                    for w in pts
                )
            }
            assert naive == set(g for g in gens if all(abs(c) <= 5 for c in g)), h
            assert set(gens) <= pts


def test_minimal_generators_match_the_box_scan_oracle():
    rng = random.Random(421)
    ranks, with_units, embedded = set(), 0, 0
    for rays in cone_corpus(421):
        m = monoid_from_cone_rays(rays)
        ranks.add(m.rank)
        with_units += m.unit_rank > 0
        embedded += m.rank < m.ambient_rank
        s = len(m.facet_forms)
        # the oracle's box scan grows fast with the rank: fewer draws there
        draws = {4: 1, 5: 0}.get(m.rank, 2)
        heights = [(1,) * s] + [tuple(rng.randint(-2, 2) for _ in range(s)) for _ in range(draws)]
        for h in heights:
            ideal = divisorial_ideal(m, h)
            assert minimal_generators(ideal) == box_minimal_generators(ideal), (rays, h)
    assert ranks >= {2, 3, 4, 5} and with_units and embedded


def test_generator_shift_covariance():
    # translating heights by a lattice point shifts members pointwise
    g = (1, 2)
    lam = [tuple(map(int, row)) for row in RNC3.facet_matrix]
    shifted = tuple(1 + sum(r[i] * g[i] for i in range(2)) for r in lam)
    base = members(divisorial_ideal(RNC3, (1, 1)), 6)
    moved = members(divisorial_ideal(RNC3, shifted), 12)
    translated = {tuple(a + b for a, b in zip(p, g)) for p in base}
    assert translated <= set(moved)


# -- canonical module ----------------------------------------------------


def test_canonical_module_fixtures():
    assert canonical_module(QUAD).generators == ((1, 1),)
    assert canonical_module(RNC3).generators == ((1, 1), (1, 2))
    assert canonical_module(VER2).generators == ((1, 1),)
    cm = canonical_module(RNC3)
    assert cm.ideal.heights == (1, 1)


def test_canonical_generators_match_interior_oracle():
    for d, rays in random_pointed_cones(8, 3, 3, seed=211):
        m = monoid_from_cone_rays(rays)
        gens = canonical_module(m).generators
        assert sorted(gens) == brute_minimal_interior(rays)


def test_canonical_generators_are_the_degrees_of_the_last_betti_numbers():
    """ω by the paper's definition through Ext, not by interior points:
    the last Betti numbers of K[M] over the polynomial ring of the
    box-scan Hilbert basis A, by Hochster's formula on the squarefree
    divisor complexes, are 0 or 1, their degrees are the canonical
    generators, so the number of nonzero ones, the Cohen-Macaulay type,
    is the generator count, and K[M] is Gorenstein iff there is one, the
    certificate.  ω does not depend on the presentation: over A plus one
    redundant element, the sum of the two Hilbert elements least on a
    positive functional, c = |A| - d is one larger and the degrees are
    the same.  Δ_b has up to 2^|A| faces, so |A| stays at most 12."""
    corpus = random_pointed_cones(40, 3, 2, 31) + random_pointed_cones(12, 4, 1, 37)
    kinds = collections.Counter()
    for d, rays in corpus:
        gens = brute_irreducibles(rays, 0)
        if len(gens) > 12:
            continue
        m = monoid_from_cone_rays(rays)
        generators = canonical_module(m).generators
        functional = positive_functional(rays)
        betti = squarefree_divisor_canonical(rays, gens, functional)
        assert len(betti) == len(generators), rays  # betti holds the nonzero β alone
        assert set(betti.values()) == {1}, rays
        assert tuple(sorted(betti)) == generators, rays
        gorenstein, certificate = is_gorenstein(m)
        assert gorenstein == (len(betti) == 1), rays
        assert not gorenstein or (certificate,) == tuple(betti), rays
        kinds[d] += 1
        kinds["gorenstein"] += gorenstein
        if len(gens) + 1 <= 12:
            a, b = sorted(gens, key=lambda g: dot(functional, g))[:2]
            wider = squarefree_divisor_canonical(rays, gens + [tuple(map(operator.add, a, b))],
                                                 functional)
            assert wider == betti, rays
            kinds["redundant"] += 1
    assert kinds[2] + kinds[3] + kinds[4] == 52 and kinds[4] and kinds["gorenstein"] == 33, kinds
    assert kinds["redundant"] == 52, kinds


# rank-6 cones of random_pointed_cones(10, 6, 2, seed) at seeds 1, 3 and
# 4, with 12, 16 and 20 facets, whose zonotope boxes hold millions of points
RANK_6_CONES = (
    ([(-2, 2, 2, -1, 2, -2), (-1, 0, -2, 2, 2, 1), (0, -2, 1, -2, 1, -1), (0, 0, 0, -2, 0, -1),
      (0, 0, 0, 1, 1, -1), (1, 0, -2, -2, 0, -2), (2, 1, -1, 2, 2, -2)], 12, 112, 96),
    ([(-2, -2, 1, 1, -2, 0), (-2, 1, -1, -2, 0, 1), (-1, -2, 0, -2, -2, -2),
      (1, -2, -2, 2, 2, -2), (1, 2, 0, 2, 0, 2), (2, -2, -1, 2, 0, 0), (2, 0, -1, -2, 0, 0),
      (2, 2, -2, -1, 1, 0)], 16, 183, 171),
    ([(-2, 0, 0, -1, -1, 0), (-1, 1, 0, -1, 0, 1), (0, -2, -2, -2, 1, 0), (0, 0, -2, 2, 0, 1),
      (0, 0, -1, -2, 0, -1), (0, 1, 1, -1, -1, 0), (0, 2, -1, 1, 1, 2), (2, -1, -1, -1, 1, 0)],
     20, 53, 46),
)


def test_rank_6_cones_are_answered_within_their_echelon_frames():
    """Only the echelon frames are guarded, so these cones are answered.
    Every extreme ray is a Hilbert element, and no Hilbert element minus
    another lies in the cone.  Every canonical generator is interior,
    and none minus a Hilbert element stays interior.  The facet values
    are linear, so a difference is read off the values of its terms.
    The three Gorenstein routes agree."""
    for rays, facets, n_hilbert, n_canonical in RANK_6_CONES:
        m = monoid_from_cone_rays(rays)
        assert m.rank == 6 and len(m.facet_forms) == facets
        basis = hilbert_basis(m)
        gens = canonical_module(m).generators
        assert (len(basis), len(gens)) == (n_hilbert, n_canonical)
        assert {m.to_ambient(r) for r in m.cone.rays} <= set(basis)
        hvals = [m.facet_values(b) for b in basis]
        for a, b in itertools.permutations(hvals, 2):
            assert min(map(operator.sub, a, b)) < 0, (a, b)
        for g in map(m.facet_values, gens):
            assert min(g) >= 1
            for b in hvals:
                assert min(map(operator.sub, g, b)) < 1, (g, b)
        assert is_gorenstein(m) == (False, None)


def test_region_vertices_match_rational_solves():
    """The vertices double description finds are the oracle's tight
    points, each once, though the oracle lists a degenerate vertex once
    per tight subset: at random heights on small cones, and on the
    seed-1 rank-6 survey cone (12 facets) at the canonical heights."""
    rng = random.Random(233)
    regions = []
    for d, rays in random_pointed_cones(12, 4, 3, seed=233):
        view = monoid_from_cone_rays(rays)._pointed_view
        regions += [(view, [rng.randint(-3, 4) for _ in view.forms]) for _ in range(3)]
    view = monoid_from_cone_rays(RANK_6_CONES[0][0])._pointed_view
    regions.append((view, [1] * len(view.forms)))
    for view, heights in regions:
        got = monoid._region_vertices(view.forms, heights, view.dim)
        assert all(d > 0 for _, d in got)
        verts = [tuple(Fraction(v, d) for v in x) for x, d in got]
        assert len(set(verts)) == len(verts)
        assert set(verts) == set(region_tight_points(view.forms, heights)), (view, heights)


def vertex_caps(view, verts):
    """ceil(V_f) + S_f - 1 per facet form f, where V_f is the largest
    value of f on the rational vertices ``verts``, pairs (x, d) for x / d."""
    return tuple(max(-(-dot(f, x) // d) for x, d in verts) + s - 1
                 for f, s in zip(view.forms, view.ray_sums))


def test_simplicial_caps_need_no_vertex_search(monkeypatch):
    """On a simplicial view F is invertible over Q, so the region's one
    vertex is where F = heights, and ``_caps`` (so ``_sweep``) caps it at
    heights + S - 1 with no vertex search: the caps the search would
    give."""
    rng = random.Random(239)
    real = monoid._region_vertices
    caps = []

    def refuse(*args):
        raise AssertionError("vertex search on a simplicial view")

    monkeypatch.setattr(monoid, "_region_vertices", refuse)
    monkeypatch.setattr(monoid, "_region_points", lambda *args: caps.append(args[-1]))
    corpus = cone_corpus(401) + [rays for _, rays in random_pointed_cones(12, 4, 3, seed=233)]
    dims = collections.Counter()
    for rays in corpus:
        view = monoid_from_cone_rays(rays)._pointed_view
        if view.dim == 0 or len(view.forms) != view.dim:
            continue
        for _ in range(3):
            heights = tuple(rng.randint(-3, 4) for _ in view.forms)
            view._sweep(heights)
            verts = real(view.forms, heights, view.dim)
            assert len(verts) == 1 and caps.pop() == view._caps(heights) == \
                vertex_caps(view, verts), (rays, heights)
        dims[view.dim] += 1
    assert all(dims[d] >= 3 for d in range(1, 5)), dims


def test_zero_height_caps_need_no_vertex_search(monkeypatch):
    """The height-0 region of a pointed cone has the one vertex 0, so the
    Hilbert basis sweep of a view that is not simplicial caps at S - 1
    with no vertex search: the caps the search would give."""
    real = monoid._region_vertices

    def refuse(*args):
        raise AssertionError("vertex search at height 0")

    monkeypatch.setattr(monoid, "_region_vertices", refuse)
    dims = collections.Counter()
    for rays in cone_corpus(401) + [rays for _, rays in random_pointed_cones(12, 4, 3, seed=233)]:
        m = monoid_from_cone_rays(rays)
        view = m._pointed_view
        if len(view.forms) == view.dim:
            continue
        zeros = (0,) * len(view.forms)
        verts = real(view.forms, zeros, view.dim)
        assert verts == [((0,) * view.dim, 1)]
        assert view._caps(zeros) == vertex_caps(view, verts), rays
        m.hilbert_basis()
        dims[view.dim] += 1
    assert all(dims[d] >= 3 for d in range(3, 5)), dims


def test_frame_guard_fires_before_any_point_is_swept(monkeypatch):
    # the moment curve's 8 rays: the generators' echelon frame is beyond
    # the desk scale, and its guard refuses it before the sweep starts
    m = monoid_from_cone_rays([(1, t, t ** 2, t ** 3, t ** 4) for t in range(8)])

    def refuse(*args):
        raise AssertionError("points swept before the frame guard")

    monkeypatch.setattr(monoid, "_region_points", refuse)
    with pytest.raises(EnumerationLimitError, match="^echelon sweep has"):
        canonical_module(m)


def test_quadrilateral_region_answers_at_the_least_enumeration_limit(monkeypatch):
    """A cone over a quadrilateral: 4 facets in rank 3, the smallest
    region that is not simplicial.  Its vertices come from double
    description, which no enumeration guard counts, so they and the
    caps are found at the least limit, where only a frame of one point
    could be swept."""
    view = monoid_from_cone_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])._pointed_view
    heights = [1] * len(view.forms)
    assert (len(view.forms), view.dim) == (4, 3)
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 1)
    verts = monoid._region_vertices(view.forms, heights, view.dim)
    assert {tuple(Fraction(v, d) for v in x) for x, d in verts} == \
        set(region_tight_points(view.forms, heights))
    assert view._caps(heights) == vertex_caps(view, verts)


def test_limit_errors_name_what_they_counted(monkeypatch):
    rays = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 3)
    with pytest.raises(EnumerationLimitError,
                       match=r"^echelon sweep has 8 points, beyond the supported desk scale$"):
        hilbert_basis(monoid_from_cone_rays(rays))
    # in rank 2 the frame is the echelon frame too: 3 points for the
    # Hilbert basis and 3 for the generators
    m = monoid_from_cone_rays([(1, 0), (1, 3)])
    assert hilbert_basis(m) == ((1, 0), (1, 1), (1, 2), (1, 3))
    assert canonical_module(m).generators == ((1, 1), (1, 2))
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 2)
    with pytest.raises(EnumerationLimitError,
                       match=r"^echelon sweep has 3 points, beyond the supported desk scale$"):
        hilbert_basis(monoid_from_cone_rays([(1, 0), (1, 3)]))
    with pytest.raises(EnumerationLimitError,
                       match=r"^echelon sweep has 3 points, beyond the supported desk scale$"):
        canonical_module(monoid_from_cone_rays([(1, 0), (1, 3)]))


def test_guards_count_the_frame_each_sweep_scans(monkeypatch):
    """Each capped sweep is refused by the count of the frame it scans
    and by no other box.  In rank 2 the frame is the echelon frame too,
    5 points for both sweeps of this cone, whose zonotope box holds 36.
    The thin cone's zonotope box holds 13824 points, which no guard
    counts: its sweeps run in echelon frames of 92 points each."""
    rays = [(3, 2), (2, 3)]
    message = r"^echelon sweep has 5 points, beyond the supported desk scale$"
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 4)
    with pytest.raises(EnumerationLimitError, match=message):
        hilbert_basis(monoid_from_cone_rays(rays))
    with pytest.raises(EnumerationLimitError, match=message):
        canonical_module(monoid_from_cone_rays(rays))
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 5)
    m = monoid_from_cone_rays(rays)
    assert hilbert_basis(m) == ((1, 1), (2, 3), (3, 2))
    assert canonical_module(m).generators == ((1, 1),)
    thin = [(9, 7, 7), (7, 9, 7), (7, 7, 9)]
    lo, hi = zonotope_box(thin)
    assert math.prod(b - a + 1 for a, b in zip(lo, hi)) == 13824
    echelon = r"^echelon sweep has 92 points, beyond the supported desk scale$"
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 91)
    with pytest.raises(EnumerationLimitError, match=echelon):
        hilbert_basis(monoid_from_cone_rays(thin))
    with pytest.raises(EnumerationLimitError, match=echelon):
        canonical_module(monoid_from_cone_rays(thin))
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 92)
    m = monoid_from_cone_rays(thin)
    assert len(hilbert_basis(m)) == 10 and len(canonical_module(m).generators) == 4


def test_floor_filter_compares_only_floors_within_the_total(monkeypatch):
    """Minimal generators run the one filter of ``monoid``, which
    replaced the floor filter: a member is compared only with the kept
    ones of strictly smaller total.  On the thin cones the interior
    points of least total are the 3,999 generators, so the filter makes
    a few componentwise comparisons per generator, where a full scan
    makes about N^2."""
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return a >= b

    monkeypatch.setattr(monoid, "ge", counted)
    for rays in ([(1, 0), (1, 4000)], [(1, 0, 0), (1, 4000, 0), (0, 0, 1)]):
        m = monoid_from_cone_rays(rays)
        calls.clear()
        assert len(canonical_module(m).generators) == 3999
        assert len(calls) <= 4010, (rays, len(calls))


def test_floor_filter_matches_the_full_scan(monkeypatch):
    """The filter that scans the floors only up to a member's total keeps
    what the full scan over every floor keeps, on the very members the
    sweep found, at all-ones and random heights."""
    rng = random.Random(487)
    swept = []
    real = monoid._region_points

    def recorded(*args):
        points = list(real(*args))
        swept.extend(points)
        return iter(points)

    monkeypatch.setattr(monoid, "_region_points", recorded)
    kinds = collections.Counter()
    for rays in cone_corpus(421) + caratheodory_corpus(487):
        m = monoid_from_cone_rays(rays)
        view = m._pointed_view
        if view.dim == 0:
            continue
        s = len(m.facet_forms)
        hilbert = m._pointed_hilbert  # swept here, so that only the generators' sweep is recorded
        for h in [(1,) * s] + [tuple(rng.randint(-2, 2) for _ in range(s)) for _ in range(2)]:
            swept.clear()
            got = minimal_generators(divisorial_ideal(m, h))
            floors = [tuple(map(operator.add, b, h)) for _, b in hilbert]
            kept = full_scan_floor_filter(swept, floors)
            assert got == tuple(sorted(values_to_ambient(m, vals) for _, vals in kept)), (rays, h)
            kinds[view.dim] += 1
            kinds["reducible"] += len(swept) > len(kept)
    assert all(kinds[d] > 10 for d in range(1, 5)) and kinds["reducible"] > 100, kinds


def test_minimal_generators_meet_the_caratheodory_caps():
    """Each generator the box oracle finds, at all-ones and at random
    heights, stays within ceil(V_f) + S_f - 1 on every facet form f,
    and the bound is met."""
    rng = random.Random(463)
    ranks, with_units, tight = set(), 0, 0
    for rays in caratheodory_corpus(463):
        m = monoid_from_cone_rays(rays)
        view = m._pointed_view
        lo, hi = zonotope_box(reference_view(m)[0])
        if math.prod(b - a + 1 for a, b in zip(lo, hi)) > 4000:
            continue  # beyond the box oracles' reach
        s = len(m.facet_forms)
        for h in [(1,) * s] + [tuple(rng.randint(-2, 2) for _ in range(s)) for _ in range(2)]:
            caps = view._caps(h)
            for g in box_minimal_generators(divisorial_ideal(m, h)):
                vals = m.facet_values(g)
                assert all(map(operator.le, vals, caps)), (view, h, g)
                tight += any(map(operator.eq, vals, caps))
        ranks.add(m.rank)
        with_units += m.unit_rank > 0
    assert ranks == {2, 3, 4} and with_units > 20 and tight > 100


def test_capped_sweeps_visit_det_points_on_the_thin_cone(monkeypatch):
    # the simplicial thin cone of test_guards_count_the_frame_each_sweep_scans
    # has |det| = 92: its capped sweeps visit 92 points each, not 387 and
    # 414, and in echelon coordinates enter 278 prefixes in all, not 476
    rays = [(9, 7, 7), (7, 9, 7), (7, 7, 9)]
    counts = collections.defaultdict(lambda: [0, 0])  # kind, rank -> points, entries
    counting = sweepcounts._counting(monoid._region_points, counts)
    monkeypatch.setattr(monoid, "_region_points", counting)
    m = monoid_from_cone_rays(rays)
    assert abs(det_int(rays)) == 92
    hilbert_basis(m)
    canonical_module(m)
    assert {kind: row[0] for (kind, _), row in counts.items()} == {"hilbert": 92, "canonical": 92}
    assert sum(row[1] for row in counts.values()) == 278


def test_sweep_entries_stay_near_the_points_at_rank_4():
    """On the traced seed-811 ``monoid-ring`` list the two sweeps enter
    at most 3 prefixes per rank-4 point: exactly 2,668 for 1,161 (7,864
    in the view's own coordinates, where each form is bounded by the
    box).  Both counts are pinned, so a counter that stops counting
    fails here rather than passing below the bound."""
    counts, ranks, _ = sweepcounts.sweep_counts(811)
    points = counts["hilbert", 4][0] + counts["canonical", 4][0]
    entries = counts["hilbert", 4][1] + counts["canonical", 4][1]
    assert ranks[4] == 48
    assert (points, entries) == (1161, 2668)
    assert entries <= 3 * points


def test_echelon_sweeps_match_the_box_oracles():
    """Hilbert bases and minimal generators of views of dimension 1 to 5,
    swept in the coordinates z of the Hermite form of their facet
    forms, agree with
    the whole-box scans: pointed cones, cones with a line of units, the
    same in a sublattice of Z^(rank+1), and rank-5 cones of small rays."""
    rng = random.Random(469)
    corpus = caratheodory_corpus(467)
    corpus += [[r + (dot(w, r),) for r in rays]
               for rays in corpus[::4]
               for w in [[rng.randint(-2, 2) for _ in rays[0]]]]
    corpus += [rays for d, rays in random_pointed_cones(40, 5, 1, 471) if d == 5][:4]
    kinds = collections.Counter()
    for rays in corpus:
        m = monoid_from_cone_rays(rays)
        view = m._pointed_view
        if view.dim == 0:
            continue  # nothing to sweep
        ref_rays, ref_forms, dim, _, _ = reference_view(m)
        lo, hi = zonotope_box(ref_rays)
        if math.prod(b - a + 1 for a, b in zip(lo, hi)) > 6000:
            continue  # beyond the box oracles' reach
        hb = box_hilbert_basis(ref_rays, ref_forms, dim)
        assert sorted(vals for _, vals in m._pointed_hilbert) == sorted(
            tuple(dot(f, q) for f in ref_forms) for q in hb), rays
        s = len(m.facet_forms)
        draws = 0 if view.dim == 5 else 2
        for h in [(1,) * s] + [tuple(rng.randint(-2, 2) for _ in range(s)) for _ in range(draws)]:
            ideal = divisorial_ideal(m, h)
            assert minimal_generators(ideal) == box_minimal_generators(ideal), (rays, h)
        kinds[view.dim] += 1
        kinds["units"] += m.unit_rank > 0
        kinds["embedded"] += m.rank < m.ambient_rank
        kinds["non-simplicial"] += len(ref_rays) > view.dim
    assert kinds[1] > 10 and kinds[2] > 10, kinds
    assert kinds[3] > 10 and kinds[4] > 5 and kinds[5] >= 2, kinds
    assert kinds["units"] > 5 and kinds["embedded"] > 3 and kinds["non-simplicial"] > 10, kinds


def test_one_hermite_form_per_monoid(monkeypatch):
    calls = []  # one entry per hnf call, through any module
    real = exact_linalg.hnf

    def counted(a):
        calls.append(a)
        return real(a)

    for module in (exact_linalg, cone, monoid, divisorial):
        if hasattr(module, "hnf"):
            monkeypatch.setattr(module, "hnf", counted)
    # a non-simplicial rank-4 cone: the sweeps and is_principal share
    # the Hermite form of the transposed facet matrix
    rays = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 2), (1, 0, 0, 1)]
    m = monoid_from_cone_rays(rays)
    assert m.rank == 4 and m.is_pointed and len(m.cone.rays) == 5
    hilbert_basis(m)
    canonical_module(m)
    cg = class_group(m)
    is_gorenstein(m)
    assert cg.is_principal((1,) * len(m.facet_forms)) == is_gorenstein(m)[0]
    assert len(calls) == 1
    # the class group's invariant factors alone need no Hermite form
    calls.clear()
    assert class_group(monoid_from_cone_rays(rays)).invariant_factors == cg.invariant_factors
    assert calls == []
    # with units the view is the quotient of the facet matrix by the
    # same one Hermite form, and the class group reads it too
    m = monoid_from_cone_rays(rays + [(-1, 0, 0, 0)])
    calls.clear()
    assert m.unit_rank == 1 and m._pointed_view.dim == 3
    # two for the cone's lineality kernel and one for the quotient
    assert len(calls) == 3
    hilbert_basis(m)
    canonical_module(m)
    cg = class_group(m)
    assert cg.is_principal((1,) * len(m.facet_forms)) == is_gorenstein(m)[0]
    # and one for the Hermite basis of the ambient units, by which every
    # point leaves the view: 4 in all
    assert len(calls) == 4


def test_canonical_module_is_computed_once_per_monoid(monkeypatch):
    """Nothing is kept on the monoid, and no job asks twice: each
    ``canonical_module`` call sweeps once, the ``canonical`` command
    calls it once, and the Gorenstein test sweeps nothing."""
    sweeps = []
    real = divisorial.minimal_generators

    def counted(ideal):
        sweeps.append(ideal)
        return real(ideal)

    monkeypatch.setattr(divisorial, "minimal_generators", counted)
    m = monoid_from_cone_rays([(1, 0), (1, 3)])
    assert is_gorenstein(m) == (False, None) and is_gorenstein(QUAD) == (True, (1, 1))
    assert sweeps == []
    first = canonical_module(m)
    assert canonical_module(m) == first and len(sweeps) == 2
    for command, count in (("canonical", 1), ("gorenstein", 0), ("class-group", 0)):
        sweeps.clear()
        cli.execute(cli.parse_input('{"command": "%s", "rays": [[1, 0], [1, 3]]}' % command))
        assert len(sweeps) == count, command


def test_canonical_module_of_a_cone_runs_one_sweep_and_no_hilbert_basis(monkeypatch):
    """The canonical generators are the minimal interior points, kept by
    ``monoid._minimal`` from the one sweep of the interior region, so a
    cone-defined monoid computes no Hilbert basis for them.  The same
    cone presented by generators computes it once, for its normality
    check, and sweeps for it."""
    cones = ([(1, 0), (1, 3)], [(1, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2)],
             [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 2, 3)])
    gens = []
    for rays in cones:
        m = monoid_from_cone_rays(rays)
        units = m.unit_basis()
        gens.append(hilbert_basis(m) + units + tuple(tuple(-x for x in u) for u in units))
    calls = collections.Counter()

    def counted(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    for name in ("_region_points", "_pointed_hilbert_basis"):
        monkeypatch.setattr(monoid, name, counted(name, getattr(monoid, name)))
    for rays, hb in zip(cones, gens):
        calls.clear()
        omega = canonical_module(monoid_from_cone_rays(rays)).generators
        assert calls == {"_region_points": 1}, (rays, calls)
        calls.clear()
        assert canonical_module(normalize_presentation(hb)).generators == omega
        assert calls == {"_region_points": 2, "_pointed_hilbert_basis": 1}, (rays, calls)


# -- class group ---------------------------------------------------------


def test_class_group_is_computed_once_per_monoid(monkeypatch):
    m = monoid_from_cone_rays([(1, 0), (1, 3)])
    riding = []
    real = exact_linalg._smith

    def counted(rows):
        # columns past the facet matrix's own would be a transform riding along
        riding.append(len(rows[0]) - max(m.facet_matrix.shape) if rows else 0)
        return real(rows)

    monkeypatch.setattr(exact_linalg, "_smith", counted)
    first = class_group(m)
    # the invariant factors need one transform-free Smith form, and
    # principal classes a Hermite back-substitution
    assert not first.is_principal((1, 1)) and first.is_principal((0, 3))
    assert riding == [0]
    # the Gorenstein test reads the same Hermite form and runs no Smith form
    assert is_gorenstein(m) == (False, None)
    assert riding == [0]
    # nothing is kept on the monoid, and of the commands only
    # ``class-group`` asks for the factors, once
    assert class_group(m) == first and riding == [0, 0]
    for command, count in (("canonical", 0), ("gorenstein", 0), ("class-group", 1)):
        riding.clear()
        cli.execute(cli.parse_input('{"command": "%s", "rays": [[1, 0], [1, 3]]}' % command))
        assert riding == [0] * count, command


def test_class_group_fixtures():
    assert class_group(QUAD).invariant_factors == ()
    assert class_group(QUAD).is_principal((4, 7))
    assert class_group(RNC3).invariant_factors == (3,)
    assert class_group(RNC3).is_principal((0, 3))
    assert not class_group(RNC3).is_principal((1, 1))
    assert class_group(VER2).invariant_factors == (2,)
    sq = monoid_from_cone_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert class_group(sq).invariant_factors == (0,)


def test_class_group_against_independent_oracles():
    for m, expected in ((QUAD, 1), (RNC3, 3), (VER2, 2)):
        lam = [list(map(int, row)) for row in m.facet_matrix]
        # determinantal divisors give the same invariant factors
        minors = tuple(f for f in minor_gcd_factors(lam) if f != 1)
        assert class_group(m).invariant_factors == minors
        # and coset counting gives the same order
        assert coset_count(lam, 3) == expected


def test_class_group_matches_the_cokernel_route():
    """Invariant factors from the elementary divisors, and principal
    classes by Hermite membership and by the Smith invariants of F with
    the heights appended (the reference ``smith_in_image``), agree with
    the cokernel of the facet matrix, and the factors with determinantal
    divisors."""
    rng = random.Random(79)
    outcomes = collections.Counter()
    for rays in cone_corpus(421):
        m = monoid_from_cone_rays(rays)
        cg = class_group(m)
        factors, coordinates = cokernel_class_group(m)
        assert cg.invariant_factors == factors
        minors = minor_gcd_factors(m.facet_matrix)
        free = len(m.facet_forms) - len(minors)
        assert cg.invariant_factors == tuple(f for f in minors if f != 1) + (0,) * free
        for _ in range(6):
            x = [rng.randint(-3, 3) for _ in range(m.rank)]
            image = m.facet_matrix @ x
            noise = tuple(rng.randint(-2, 2) for _ in image)
            for heights in (image, tuple(map(operator.add, image, noise))):
                want = not any(coordinates(heights))
                assert cg.is_principal(heights) == want
                assert smith_in_image(cg, heights) == want
                outcomes[want] += 1
    assert outcomes[True] > 200 and outcomes[False] > 100


def test_heights_need_one_entry_per_facet():
    # pointed (the column lattice shared with the sweeps) and with units;
    # a shorter or longer vector is refused, not truncated
    for m in (RNC3, monoid_from_cone_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
              monoid_from_cone_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)])):
        cg = class_group(m)
        s = len(m.facet_forms)
        for heights in ((1,) * (s - 1), (1,) * (s + 1), (0,) * (s - 1) + (1, 5)):
            for test in (cg.is_principal, functools.partial(smith_in_image, cg)):
                with pytest.raises(ValueError, match="^need one height per facet form$"):
                    test(heights)
        image = m.facet_matrix @ ((1,) * m.rank)
        assert cg.is_principal(image) and smith_in_image(cg, image)


def test_same_class():
    h0 = divisorial_ideal(RNC3, (0, 0))
    assert same_class(h0, divisorial_ideal(RNC3, (1, 1))) is None
    g = same_class(h0, divisorial_ideal(RNC3, (0, 3)))
    assert g == (1, 0)
    # another monoid object with the same forms and lattice is the same
    # monoid; one with other forms is refused
    twin = monoid_from_cone_rays([(1, 0), (1, 3)])
    assert twin is not RNC3 and same_class(h0, divisorial_ideal(twin, (0, 3))) == g
    with pytest.raises(ValueError, match="^ideals live over different monoids$"):
        same_class(h0, divisorial_ideal(QUAD, (0, 0)))


# cones equal to their whole lattice: no facets, so no heights, and
# every ideal is the whole group, in Z^2 and embedded in Z^3
WHOLE_LATTICE = ([(1, 0), (-1, 0), (0, 1), (0, -1)],
                 [(1, 0, 1), (-1, 0, -1), (0, 1, 1), (0, -1, -1)])


def test_smith_form_of_a_matrix_without_rows_or_columns():
    """The Smith kernel reads no row of a matrix that has none, so
    ``elementary_divisors`` of an empty shape, and the class group of a
    cone with no facets, has no factor."""
    for m, n in ((0, 3), (0, 0), (2, 0)):
        assert exact_linalg.elementary_divisors(exact_linalg.IntMatrix([()] * m, n)) == ()
    for rays in WHOLE_LATTICE:
        m = monoid_from_cone_rays(rays)
        assert m.facet_matrix.shape == (0, m.rank)
        assert class_group(m).invariant_factors == ()


def test_same_class_matches_the_smith_solve():
    """Shift witnesses by Hermite back-substitution in the pointed
    view's form agree with the two-sided Smith solve of the facet
    matrix: None for the same pairs, the same witness on a pointed
    monoid, and a witness with the height difference as its facet
    values with units."""
    rng = random.Random(409)
    kinds = collections.Counter()
    for rays in cone_corpus(401) + list(WHOLE_LATTICE):
        m = monoid_from_cone_rays(rays)
        s = len(m.facet_forms)
        for _ in range(4):
            a = tuple(rng.randint(-2, 2) for _ in range(s))
            shift = m.facet_matrix @ [rng.randint(-2, 2) for _ in range(m.rank)]
            noise = tuple(rng.randint(-1, 1) for _ in range(s))
            for b in (tuple(map(operator.add, a, shift)),
                      tuple(map(operator.add, a, noise))):
                g = same_class(divisorial_ideal(m, a), divisorial_ideal(m, b))
                want = smith_solve(m.facet_matrix, tuple(map(operator.sub, b, a)))
                assert (g is None) == (want is None), (rays, a, b)
                kinds["witness" if g is not None else "none"] += 1
                if g is None:
                    continue
                assert m.facet_values(g) == tuple(map(operator.sub, b, a))
                if m.is_pointed:
                    assert g == m.to_ambient(want)
        kinds["units"] += m.unit_rank > 0
        kinds["embedded"] += m.rank < m.ambient_rank
        kinds["whole lattice"] += s == 0
    for rays in WHOLE_LATTICE:
        m = monoid_from_cone_rays(rays)
        assert m.facet_forms == () and m._pointed_view.dim == 0
        assert class_group(m).is_principal(())
        assert same_class(divisorial_ideal(m, ()), divisorial_ideal(m, ())) == (0,) * len(rays[0])
    assert kinds["witness"] > 100 and kinds["none"] > 30, kinds
    assert kinds["units"] > 10 and kinds["embedded"] > 10 and kinds["whole lattice"] >= 2, kinds


def test_is_principal_with_units_matches_the_smith_solve():
    """With units the class group reads the Hermite form of the pointed
    view's forms, the facet forms times the section of the unit
    quotient; membership agrees with the Smith solve of the facet
    matrix itself, and the Gorenstein routes agree with it."""
    rng = random.Random(419)
    outcomes = collections.Counter()
    unit_cones = 0
    for rays in cone_corpus(401):
        m = monoid_from_cone_rays(rays)
        if m.is_pointed:
            continue
        unit_cones += 1
        cg = class_group(m)
        s = len(m.facet_forms)
        for _ in range(8):
            image = m.facet_matrix @ [rng.randint(-3, 3) for _ in range(m.rank)]
            noise = tuple(rng.randint(-2, 2) for _ in range(s))
            for heights in (image, tuple(map(operator.add, image, noise))):
                want = smith_solve(m.facet_matrix, heights) is not None
                assert cg.is_principal(heights) == want, (rays, heights)
                outcomes[want] += 1
        ones = (1,) * s
        assert is_gorenstein(m)[0] == (smith_solve(m.facet_matrix, ones) is not None)
    assert unit_cones > 10 and outcomes[True] > 100 and outcomes[False] > 30, outcomes


# -- Gorenstein ----------------------------------------------------------


def test_gorenstein_fixtures():
    assert is_gorenstein(QUAD) == (True, (1, 1))
    assert is_gorenstein(VER2) == (True, (1, 1))
    assert is_gorenstein(RNC3) == (False, None)
    sq = monoid_from_cone_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert is_gorenstein(sq) == (True, (1, 1, 1))
    over = monoid_from_cone_rays([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert is_gorenstein(over) == (True, (1, 1, 2))
    for rays in WHOLE_LATTICE:
        assert is_gorenstein(monoid_from_cone_rays(rays)) == (True, (0,) * len(rays[0]))


def test_gorenstein_route_matches_both_oracles():
    """The Hermite back-substitution that decides ``is_gorenstein``
    agrees with the two routes it once ran as cross-checks: the flag
    with the canonical module's generator count and with the Smith
    invariants of the facet matrix with the all-ones column appended,
    and the certificate with the canonical module's one generator, with
    units the representative reduced by the units' Hermite basis, whose
    facet values are all one.
    On the fixtures, the random corpus of the acceptance gate, the cones
    of ``cone_corpus(401)`` with units, the whole lattice (no facets)
    and every localization of the acceptance gate's faces."""
    monoids = [QUAD, VER2, RNC3,
               monoid_from_cone_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
               monoid_from_cone_rays([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
               monoid_from_cone_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)]),
               monoid_from_cone_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 3)])]
    monoids += [monoid_from_cone_rays(rays) for _, rays in random_pointed_cones(20, 3, 6, seed=307)]
    monoids += [m for m in map(monoid_from_cone_rays, cone_corpus(401)) if not m.is_pointed]
    monoids += [monoid_from_cone_rays(rays) for rays in WHOLE_LATTICE]
    for seed in (401, 431, 437):
        monoids += [mf for *_, localized in localized_faces(seed) for _, mf in localized]
    kinds = collections.Counter()
    for m in monoids:
        ones = (1,) * len(m.facet_forms)
        flag, cert = is_gorenstein(m)
        assert (flag, cert) == canonical_gorenstein(m), m.cone.rays
        assert smith_in_image(class_group(m), ones) == flag, m.cone.rays
        assert cert is None or m.facet_values(cert) == ones
        kinds[flag, m.unit_rank > 0] += 1
        kinds["whole lattice"] += not ones
    assert kinds[True, False] >= 5 and kinds[False, False] > 10, kinds
    assert kinds[True, True] > 100 and kinds[False, True] > 100, kinds
    assert kinds["whole lattice"] >= 2, kinds


def test_gorenstein_certificate_is_interior_with_unit_heights():
    for d, rays in random_pointed_cones(8, 3, 3, seed=229):
        m = monoid_from_cone_rays(rays)
        flag, cert = is_gorenstein(m)
        if flag:
            lam = m.facet_matrix
            vals = [sum(int(lam[i][j]) * cert[j] for j in range(d)) for i in range(lam.shape[0])]
            assert all(v == 1 for v in vals)
            assert canonical_module(m).generators == (cert,)
        else:
            assert cert is None
            assert len(canonical_module(m).generators) > 1
