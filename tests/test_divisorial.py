"""Divisorial ideals, canonical modules, class groups, Gorenstein tests.

Minimal generating sets are cross-checked by exhaustive big-box scans,
by the whole-box scan the region sweep replaced and by the
Fourier-Motzkin interior-point oracle; class groups by
determinantal divisors and coset counting.
"""

import collections
import math
import operator
import random
from fractions import Fraction

import pytest

import sweepcounts
from monograde import divisorial, exact_linalg, monoid
from monograde.divisorial import (
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
from oracles import (
    box_hilbert_basis,
    box_members,
    box_minimal_generators,
    brute_minimal_interior,
    caratheodory_corpus,
    cokernel_class_group,
    cone_corpus,
    coset_count,
    det_int,
    dot,
    minor_gcd_factors,
    presentation_corpus,
    random_pointed_cones,
    region_tight_points,
    smith_solve,
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


def test_ideal_contains():
    ideal = divisorial_ideal(RNC3, (1, 1))
    assert ideal.contains((1, 1)) and not ideal.contains((1, 0))


def test_heights_must_match_facets():
    with pytest.raises(ValueError):
        divisorial_ideal(QUAD, (1,))


def test_requires_normal_monoid():
    with pytest.raises(NonNormalError):
        divisorial_ideal(normalize_presentation([(2,), (3,)]), (1,))


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


def test_region_vertices_match_rational_solves():
    rng = random.Random(233)
    for d, rays in random_pointed_cones(12, 4, 3, seed=233):
        view = monoid_from_cone_rays(rays)._pointed_view
        for _ in range(3):
            heights = [rng.randint(-3, 4) for _ in view.forms]
            got = divisorial._region_vertices(view.forms, heights, view.dim)
            assert all(d > 0 for _, d in got)
            assert [tuple(Fraction(v, d) for v in x) for x, d in got] == \
                region_tight_points(view.forms, heights)


def test_zonotope_box_guard_fires_before_vertex_enumeration(monkeypatch):
    m = monoid_from_cone_rays([(1, t, t ** 2, t ** 3, t ** 4) for t in range(8)])

    def refuse(*args):
        raise AssertionError("facet subsets enumerated before the box guard")

    monkeypatch.setattr(divisorial, "_region_vertices", refuse)
    with pytest.raises(EnumerationLimitError):
        canonical_module(m)


def test_facet_subset_guard_fires_before_any_elimination(monkeypatch):
    # a cone over a quadrilateral: 4 facets in rank 3, so C(4, 3) = 4 subsets
    view = monoid_from_cone_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])._pointed_view
    heights = [1] * len(view.forms)
    subsets = math.comb(len(view.forms), view.dim)
    calls = []
    real = divisorial._eliminate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(divisorial, "_eliminate", counted)
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", subsets)
    assert divisorial._region_vertices(view.forms, heights, view.dim)
    assert len(calls) == subsets == 4
    calls.clear()
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", subsets - 1)
    with pytest.raises(EnumerationLimitError):
        divisorial._region_vertices(view.forms, heights, view.dim)
    assert calls == []


def test_limit_errors_name_what_they_counted(monkeypatch):
    rays = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 3)
    with pytest.raises(EnumerationLimitError,
                       match=r"^enumeration box has 27 points, beyond the supported desk scale$"):
        hilbert_basis(monoid_from_cone_rays(rays))
    view = monoid_from_cone_rays(rays)._pointed_view
    with pytest.raises(EnumerationLimitError,
                       match=r"^vertex search has 4 facet subsets, beyond the supported desk scale$"):
        divisorial._region_vertices(view.forms, [1] * len(view.forms), view.dim)


def test_guards_bound_the_box_not_the_points_visited(monkeypatch):
    # a thin cone: its boxes hold 13824 and 15625 points, of which the
    # sweep visits 387 and 414, yet the guards keep counting the boxes
    rays = [(9, 7, 7), (7, 9, 7), (7, 7, 9)]
    view = monoid_from_cone_rays(rays)._pointed_view
    lo, hi = view.box
    assert sum(1 for _ in monoid._region_points(view.forms, (0, 0, 0), lo, hi)) == 387
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 13823)
    message = r"^enumeration box has %d points, beyond the supported desk scale$"
    with pytest.raises(EnumerationLimitError, match=message % 13824):
        hilbert_basis(monoid_from_cone_rays(rays))
    with pytest.raises(EnumerationLimitError, match=message % 13824):
        canonical_module(monoid_from_cone_rays(rays))
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 15624)
    m = monoid_from_cone_rays(rays)
    assert len(hilbert_basis(m)) > 0
    with pytest.raises(EnumerationLimitError, match=message % 15625):
        canonical_module(m)
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", 15625)
    assert len(canonical_module(m).generators) > 0


def test_minimal_generators_meet_the_caratheodory_caps():
    """Each generator the box oracle finds, at all-ones and at random
    heights, stays within ceil(V_f) + S_f - 1 (floor(V_f) when S_f = 0)
    on every facet form f, and the bound is met."""
    rng = random.Random(463)
    ranks, with_units, tight = set(), 0, 0
    for rays in caratheodory_corpus(463):
        m = monoid_from_cone_rays(rays)
        view = m._pointed_view
        lo, hi = view.box
        if math.prod(b - a + 1 for a, b in zip(lo, hi)) > 4000:
            continue  # beyond the box oracles' reach
        s = len(m.facet_forms)
        for h in [(1,) * s] + [tuple(rng.randint(-2, 2) for _ in range(s)) for _ in range(2)]:
            verts = divisorial._region_vertices(view.forms, h, view.dim)
            caps = divisorial._generator_caps(view, verts)
            for g in box_minimal_generators(divisorial_ideal(m, h)):
                vals = m.facet_values(g)
                assert all(map(operator.le, vals, caps)), (view, h, g)
                tight += any(map(operator.eq, vals, caps))
        ranks.add(m.rank)
        with_units += m.unit_rank > 0
    assert ranks == {2, 3, 4} and with_units > 20 and tight > 100


def test_capped_sweeps_visit_det_points_on_the_thin_cone(monkeypatch):
    # the simplicial thin cone of test_guards_bound_the_box_not_the_points_visited
    # has |det| = 92: its capped sweeps visit 92 points each, not 387 and
    # 414, and in echelon coordinates enter 278 prefixes in all, not 476
    rays = [(9, 7, 7), (7, 9, 7), (7, 7, 9)]
    counts = collections.defaultdict(lambda: [0, 0])  # kind, rank -> points, entries
    real = monoid._region_points
    for kind, module in sweepcounts.KINDS.items():
        monkeypatch.setattr(module, "_region_points", sweepcounts._counting(kind, real, counts))
    m = monoid_from_cone_rays(rays)
    assert abs(det_int(rays)) == 92
    hilbert_basis(m)
    canonical_module(m)
    assert {kind: row[0] for (kind, _), row in counts.items()} == {"hilbert": 92, "canonical": 92}
    assert sum(row[1] for row in counts.values()) == 278


def test_sweep_entries_stay_near_the_points_at_rank_4():
    """On the traced seed-811 ``monoid-ring`` list the two sweeps enter
    at most 3 prefixes per rank-4 point (2,668 for 1,161; 7,864 in the
    view's own coordinates, where each form is bounded by the box)."""
    counts, ranks = sweepcounts.sweep_counts(811)
    points = counts["hilbert", 4][0] + counts["canonical", 4][0]
    entries = counts["hilbert", 4][1] + counts["canonical", 4][1]
    assert ranks[4] and points
    assert entries <= 3 * points, (entries, points)


def test_echelon_sweeps_match_the_box_oracles():
    """Hilbert bases and minimal generators of views of dimension 3 to 5,
    swept in the echelon coordinates of their facet forms, agree with
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
        if view.dim < 3:
            continue  # swept in the view's own coordinates
        lo, hi = view.box
        if math.prod(b - a + 1 for a, b in zip(lo, hi)) > 6000:
            continue  # beyond the box oracles' reach
        hb = box_hilbert_basis(view.rays, view.forms, view.dim)
        assert tuple(p for p, _ in m._pointed_hilbert) == hb, rays
        s = len(m.facet_forms)
        draws = 0 if view.dim == 5 else 2
        for h in [(1,) * s] + [tuple(rng.randint(-2, 2) for _ in range(s)) for _ in range(draws)]:
            ideal = divisorial_ideal(m, h)
            assert minimal_generators(ideal) == box_minimal_generators(ideal), (rays, h)
        kinds[view.dim] += 1
        kinds["units"] += m.unit_rank > 0
        kinds["embedded"] += m.rank < m.ambient_rank
        kinds["non-simplicial"] += len(view.rays) > view.dim
    assert kinds[3] > 10 and kinds[4] > 5 and kinds[5] >= 2, kinds
    assert kinds["units"] > 5 and kinds["embedded"] > 3 and kinds["non-simplicial"] > 10, kinds


def test_one_hermite_form_per_monoid(monkeypatch):
    calls = []  # one entry per hnf call, through any module
    real = exact_linalg.hnf

    def counted(a):
        calls.append(a)
        return real(a)

    for module in (exact_linalg, monoid, divisorial):
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
    # with units the view's forms are the facet forms times the section
    # of the quotient, whose Hermite form spans the same image of L: the
    # class group reads the view's one too
    m = monoid_from_cone_rays(rays + [(-1, 0, 0, 0)])
    calls.clear()
    assert m.unit_rank == 1 and m._pointed_view.dim == 3
    assert len(calls) == 2  # the cone's lineality kernel
    calls.clear()
    hilbert_basis(m)
    canonical_module(m)
    is_gorenstein(m)
    assert len(calls) == 1


def test_canonical_module_is_computed_once_per_monoid(monkeypatch):
    m = monoid_from_cone_rays([(1, 0), (1, 3)])
    calls = []
    real = divisorial.minimal_generators

    def counted(ideal):
        calls.append(ideal)
        return real(ideal)

    monkeypatch.setattr(divisorial, "minimal_generators", counted)
    first = canonical_module(m)
    assert is_gorenstein(m) == (False, None)
    assert canonical_module(m) is first
    assert len(calls) == 1


# -- class group ---------------------------------------------------------


def test_class_group_is_computed_once_per_monoid(monkeypatch):
    m = monoid_from_cone_rays([(1, 0), (1, 3)])
    riding = []
    real = exact_linalg._smith

    def counted(rows, n):
        # the columns past the n reduced ones are a transform riding along
        riding.append(len(rows[0]) - n if rows else 0)
        return real(rows, n)

    monkeypatch.setattr(exact_linalg, "_smith", counted)
    first = class_group(m)
    # the invariant factors need one transform-free Smith form, and
    # principal classes a Hermite back-substitution
    assert not first.is_principal((1, 1)) and first.is_principal((0, 3))
    assert riding == [0]
    assert is_gorenstein(m) == (False, None)
    assert class_group(m) is first
    # the Gorenstein test's Smith route reduces one more bare matrix,
    # the facet matrix with the all-ones column appended
    assert riding == [0, 0]


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
    the heights appended, agree with the cokernel of the facet matrix,
    and the factors with determinantal divisors."""
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
                assert cg._in_image(heights) == want
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
            for test in (cg.is_principal, cg._in_image):
                with pytest.raises(ValueError, match="^need one height per facet form$"):
                    test(heights)
        image = m.facet_matrix @ ((1,) * m.rank)
        assert cg.is_principal(image) and cg._in_image(image)


def test_same_class():
    h0 = divisorial_ideal(RNC3, (0, 0))
    assert same_class(h0, divisorial_ideal(RNC3, (1, 1))) is None
    g = same_class(h0, divisorial_ideal(RNC3, (0, 3)))
    assert g == (1, 0)


# cones equal to their whole lattice: no facets, so no heights, and
# every ideal is the whole group, in Z^2 and embedded in Z^3
WHOLE_LATTICE = ([(1, 0), (-1, 0), (0, 1), (0, -1)],
                 [(1, 0, 1), (-1, 0, -1), (0, 1, 1), (0, -1, -1)])


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


def test_every_gorenstein_route_is_live(monkeypatch):
    """Flipping any one of the three routes makes ``is_gorenstein``
    raise, on Gorenstein and other monoids, pointed and with units: an
    extra or a missing canonical generator, a preimage lost or invented,
    and elementary divisors of the facet matrix with the all-ones column
    appended that change or keep F's.  So every route is read."""
    real_canonical = divisorial.canonical_module
    real_preimage = monoid._PointedView._preimage
    real_divisors = divisorial.elementary_divisors

    def canonical(m):
        can = real_canonical(m)
        gens = can.generators
        return divisorial.CanonicalModule(can.ideal, gens[:1] if len(gens) > 1 else gens * 2)

    def preimage(view, values):
        return None if real_preimage(view, values) is not None else (0,) * view.dim

    def divisors(a):
        got, bare = real_divisors(a), real_divisors([row[:-1] for row in a])
        return got + (2,) if got == bare else bare

    breaks = ((divisorial, "canonical_module", canonical),
              (monoid._PointedView, "_preimage", preimage),
              (divisorial, "elementary_divisors", divisors))
    answers = []
    for m in (QUAD, VER2, RNC3, monoid_from_cone_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)]),
              monoid_from_cone_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 3)])):
        # computed unbroken first: the canonical module and class group are kept
        answers.append((is_gorenstein(m)[0], m.is_pointed))
        for owner, name, broken in breaks:
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, broken)
                with pytest.raises(RuntimeError, match="^Gorenstein criteria disagree"):
                    is_gorenstein(m)
    assert answers == [(True, True), (True, True), (False, True), (True, False), (False, False)]


def test_gorenstein_certificate_is_interior_with_unit_heights():
    for d, rays in random_pointed_cones(8, 3, 3, seed=229):
        m = monoid_from_cone_rays(rays)
        flag, cert = is_gorenstein(m)
        if flag:
            lam = m.facet_matrix
            vals = [sum(int(lam[i, j]) * cert[j] for j in range(d)) for i in range(lam.shape[0])]
            assert all(v == 1 for v in vals)
            assert canonical_module(m).generators == (cert,)
        else:
            assert cert is None
            assert len(canonical_module(m).generators) > 1
