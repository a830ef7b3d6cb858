"""Polyhedral duality: frozen fixtures plus Fourier-Motzkin cross-checks."""

import collections
import itertools
import random

import pytest

import monograde.cone as cone_module
from monograde.cone import facets_of_rays, membership, rays_of_facets
from monograde.divisorial import class_group
from monograde.exact_linalg import IntMatrix, _eliminate, kernel_basis, rank
from monograde.monoid import monoid_from_cone_rays
from corpora import (
    benchmark_rank_cones,
    cone_corpus,
    degenerate_cone_corpus,
    large_cone_corpus,
    random_pointed_cones,
)
from oracles import dot, fm_facets, make_primitive
from references import (
    containment_dd_kernel,
    containment_extreme_rays,
    extreme_by_facets,
    fm_member,
    rank_extreme_rays,
    rank_facet_forms,
    scan_maximal_proper,
    subset_facets,
    transpose_masks,
)


# -- fixtures ----------------------------------------------------------


def test_plane_curve_cone():
    c = facets_of_rays([(1, 0), (1, 3)])
    assert c.rays == ((1, 0), (1, 3))
    assert c.facet_forms == ((0, 1), (3, -1))
    assert c.is_pointed and c.is_full_dimensional
    back = rays_of_facets(c.facet_forms, 2)
    assert back.rays == c.rays and back.facet_forms == c.facet_forms


def test_square_base_cone():
    c = facets_of_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert c.rays == ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))
    assert c.facet_forms == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1))
    back = rays_of_facets(c.facet_forms, 3)
    assert back.rays == c.rays


def test_redundant_forms_are_dropped():
    c = rays_of_facets([(1, 0), (0, 1), (1, 1)], 2)
    assert c.rays == ((0, 1), (1, 0))
    assert c.facet_forms == ((0, 1), (1, 0))


def test_non_primitive_and_duplicate_rays():
    c = facets_of_rays([(2, 0), (0, 3), (0, 1), (4, 0)])
    assert c.rays == ((0, 1), (1, 0))


def test_halfplane_has_lineality():
    c = facets_of_rays([(1, 0), (-1, 0), (0, 1)])
    assert c.lineality == ((1, 0),)
    assert c.rays == ((0, 1),)
    assert c.facet_forms == ((0, 1),)
    assert not c.is_pointed
    assert c.contains((5, 0)) and c.contains((-5, 2)) and not c.contains((0, -1))


def test_full_plane_and_zero_cone():
    plane = facets_of_rays([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert plane.rays == () and plane.facet_forms == ()
    assert len(plane.lineality) == 2 and plane.dim == 2
    zero = rays_of_facets([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert zero.dim == 0
    assert zero.contains((0, 0)) and not zero.contains((1, 0))


def test_single_ray_membership_respects_span():
    c = facets_of_rays([(2, 4, 6)])
    assert c.rays == ((1, 2, 3),)
    assert c.dim == 1
    assert c.contains((2, 4, 6))
    assert not c.contains((-1, -2, -3))
    assert not c.contains((1, 1, 1))
    assert c.contains((0, 0, 0)) and not c.contains((0, 0, 0), interior=True)


def test_membership_modes():
    c = facets_of_rays([(1, 0), (1, 3)])
    assert membership(c, (1, 1), "interior")
    assert not membership(c, (1, 0), "interior")
    assert membership(c, (1, 0), "closure")
    assert not membership(c, (2, -1), "closure")
    with pytest.raises(ValueError):
        membership(c, (1, 1, 1))
    with pytest.raises(ValueError):
        membership(c, (1, 1), "boundary")


def test_input_order_does_not_matter():
    rng = random.Random(17)
    rays = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (2, 0, 1)]
    base = facets_of_rays(rays)
    for _ in range(5):
        shuffled = rays[:]
        rng.shuffle(shuffled)
        c = facets_of_rays(shuffled)
        assert c == base


# -- randomized duality against Fourier-Motzkin ------------------------


def test_facets_match_fourier_motzkin():
    for d, rays in random_pointed_cones(20, 3, 5, seed=3):
        c = facets_of_rays(rays)
        assert c.dim == d and c.is_pointed
        fm = set(fm_facets(rays))
        # a facet form is irredundant, so any complete description contains it
        assert set(c.facet_forms) <= fm
        # and both descriptions cut out the same lattice points
        for pt in itertools.product(range(-3, 4), repeat=d):
            lib = all(dot(f, pt) >= 0 for f in c.facet_forms)
            ora = all(dot(f, pt) >= 0 for f in fm)
            assert lib == ora


def test_extreme_rays_are_exactly_the_undecomposable_ones():
    for d, rays in random_pointed_cones(12, 3, 4, seed=29):
        c = facets_of_rays(rays)
        for r in c.rays:
            others = [s for s in c.rays if s != r]
            if others:
                assert not fm_member(others, r)
        # every input ray must lie back in the computed cone
        for r in rays:
            assert c.contains(r)


def test_duality_round_trip_random():
    for d, rays in random_pointed_cones(20, 4, 6, seed=41):
        c = facets_of_rays(rays)
        back = rays_of_facets(c.facet_forms, d)
        assert back.rays == c.rays
        assert back.facet_forms == c.facet_forms


def test_lineality_round_trip():
    rng = random.Random(59)
    for _ in range(10):
        d = rng.randint(2, 3)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(3)]
        vecs = [v for v in vecs if any(v)]
        if not vecs:
            continue
        rays = vecs + [tuple(-x for x in vecs[0])]
        c = facets_of_rays(rays)
        # the flipped generator spans lineality, memberships agree both ways
        for v in vecs:
            assert c.contains(v)
        assert c.contains(tuple(-x for x in vecs[0]))
        for lin in c.lineality:
            assert all(dot(f, lin) == 0 for f in c.facet_forms)
            assert c.contains(lin) and c.contains(tuple(-x for x in lin))


def test_double_description_matches_subset_facets_at_rank_5_and_6():
    for d, rays in benchmark_rank_cones(seed=811):
        forms = subset_facets(rays)
        extreme = extreme_by_facets(rays, forms)
        c = facets_of_rays(rays)
        assert c.facet_forms == tuple(forms)
        assert c.rays == tuple(extreme)
        assert c.dim == d and c.is_pointed
        # rays from facets, with redundant forms mixed in that must be dropped
        redundant = [tuple(x + y for x, y in zip(forms[0], f)) for f in forms[1:3]]
        back = rays_of_facets(forms + redundant, d)
        assert back.rays == tuple(extreme)
        assert back.facet_forms == tuple(forms)


def compact_columns(cols, full):
    """The columns of ``_dd`` over the positions of the rays in the order
    they are returned: the j-th ray returned is the j-th lowest bit of
    ``full``."""
    ids = [k for k in range(full.bit_length()) if full >> k & 1]
    return [sum(1 << j for j, k in enumerate(ids) if col >> k & 1) for col in cols]


def check_dd_against_containment(a, monkeypatch):
    """``_dd(a)`` against ``_dd`` on the containment scan: the same rays
    and masks in the same order and the same lineality.  For each row of
    A, its column holds exactly the returned rays tight on it, as
    transposed from the scan's masks, and ``full`` holds one bit per
    returned ray."""
    masks, cols, full, lin = cone_module._dd(a)
    with monkeypatch.context() as patched:
        patched.setattr(cone_module, "_pointed_extreme_rays", containment_dd_kernel)
        want_masks, want_cols, want_full, want_lin = cone_module._dd(a)
    assert list(masks.items()) == list(want_masks.items())
    assert lin == want_lin
    assert full.bit_count() == want_full.bit_count() == len(masks)
    assert all(col & ~full == 0 for col in cols)
    assert compact_columns(cols, full) == want_cols
    return masks, lin


def test_bitset_adjacency_matches_the_containment_test(monkeypatch):
    """The column-bitset adjacency test keeps every ray and mask, in the
    same order, of the containment scan it replaced, and the columns it
    keeps are the transposed masks."""
    largest, with_lineality = 0, 0
    for rows in large_cone_corpus(7):
        masks, lin = check_dd_against_containment(IntMatrix(rows), monkeypatch)
        largest = max(largest, len(masks))
        with_lineality += bool(lin) and len(masks) > 1
    assert largest > 500 and with_lineality >= 5


def test_double_description_columns_on_zero_rows_and_equations(monkeypatch):
    # all rows zero: no start rows, every column empty
    masks, lin = check_dd_against_containment(IntMatrix([(0, 0, 0), (0, 0, 0)]), monkeypatch)
    assert masks == {} and len(lin) == 3
    # a zero row among others is tight on every ray
    masks, lin = check_dd_against_containment(
        IntMatrix([(1, 0), (0, 0), (1, 2), (0, 1)]), monkeypatch)
    assert masks == {(0, 1): 0b0011, (1, 0): 0b1010} and lin == ()
    # the rows rays_of_facets reads: equations of the span as pairs f, -f,
    # pointed and with lineality, in the ambient and the quotient route
    ray = facets_of_rays([(2, 4, 6)])
    for forms in ([*ray.facet_forms, (0, 3, -2), (0, -3, 2), (3, 0, -1), (-3, 0, 1)],
                  [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1), (0, -1, -1)],
                  [(1, 1, 0, 0), (-1, -1, 0, 0), (0, 1, 0, 0), (0, 1, 2, 0)]):
        fs, d = cone_module._clean_vectors(forms, None)
        check_dd_against_containment(IntMatrix._of(fs, d), monkeypatch)
    for d, rays in benchmark_rank_cones(seed=811)[:3]:
        c = facets_of_rays([r + (r[0] + r[1],) for r in rays])
        eqs = [s for e in kernel_basis(IntMatrix(c.rays)) for s in (e, tuple(-x for x in e))]
        fs, d = cone_module._clean_vectors(list(c.facet_forms) + eqs, None)
        masks, lin = check_dd_against_containment(IntMatrix._of(fs, d), monkeypatch)
        assert lin == () and sorted(masks) == list(c.rays)


def test_maximal_proper_matches_the_pair_scan():
    full = 0b1111
    hand = [
        [0b0011, 0b0011, 0b0111, 0b0001],  # duplicates, one inside another
        [0, 0, 0],  # the empty set alone is maximal
        [0, 0b0100],
        [full, full],  # full itself is never proper
        [full, 0b1010, 0b0010, 0b1000, 0],
        [0b0101],  # a single row
        [],
    ]
    for sets in hand:
        assert cone_module._maximal_proper(sets, full) == scan_maximal_proper(sets, full)
    seen = 0
    small = [(sorted({make_primitive(v) for v in vs if any(v)}), len(vs[0]))
             for vs in cone_corpus(431)]
    small += [(sorted({make_primitive(v) for v in vs if any(v)}), d)
              for vs, d in degenerate_cone_corpus(433, 300)]
    matrices = [a for gens, d in small
                for a in (IntMatrix(gens, d), IntMatrix(facets_of_rays(gens, d).facet_forms, d))]
    for a in matrices + [IntMatrix(rows) for rows in large_cone_corpus(7)]:
        masks, cols, full, _ = cone_module._dd(a)
        # the masks as sets of rows, and the columns as sets of rays
        for sets, top in ((list(masks.values()), (1 << len(a)) - 1), (cols, full)):
            assert cone_module._maximal_proper(sets, top) == scan_maximal_proper(sets, top)
            seen += 1
    assert seen > 1000


# -- face decisions by mask containment against the rank oracles --------


def check_rays_of_facets(forms, d):
    fs = sorted({make_primitive(f) for f in forms if any(f)})
    c = rays_of_facets(forms, d)
    assert c.lineality == kernel_basis(fs, width=d)
    assert c.dim == rank(list(c.rays) + list(c.lineality))
    assert list(c.facet_forms) == rank_facet_forms(fs, c.rays, c.lineality)
    return c


def check_conversions_against_rank_oracles(vectors, d):
    gens = sorted({make_primitive(v) for v in vectors if any(v)})
    c = facets_of_rays(vectors, d)
    span_cuts = kernel_basis(gens, width=d)
    lin = kernel_basis(list(c.facet_forms) + list(span_cuts), width=d)
    assert c.lineality == lin
    assert c.dim == rank(gens)
    assert list(c.rays) == rank_extreme_rays(gens, list(c.facet_forms), span_cuts, len(lin))
    # the same cone from its facets, with the equations of its span as
    # pairs f, -f and redundant sums of forms mixed in
    eqs = [s for e in span_cuts for s in (e, tuple(-x for x in e))]
    sums = [tuple(x + y for x, y in zip(f, g))
            for f, g in zip(c.facet_forms, c.facet_forms[1:] + c.facet_forms[:1])]
    back = check_rays_of_facets(list(c.facet_forms) + eqs + sums, d)
    assert back.dim == c.dim and back.lineality == c.lineality
    if c.is_pointed:
        assert back.rays == c.rays
    # and the input read as forms
    check_rays_of_facets(vectors, d)


def test_conversions_match_rank_oracles_on_cone_corpus():
    for rays in cone_corpus(431):
        check_conversions_against_rank_oracles(rays, len(rays[0]))


def test_conversions_match_rank_oracles_on_degenerate_corpus():
    for vectors, d in degenerate_cone_corpus(433, 300):
        check_conversions_against_rank_oracles(vectors, d)


def test_degenerate_cone_fixtures():
    ray = facets_of_rays([(2, 4, 6)])
    back = rays_of_facets(list(ray.facet_forms) + [(0, 3, -2), (0, -3, 2), (3, 0, -1), (-3, 0, 1)], 3)
    assert back.rays == ((1, 2, 3),) and back.dim == 1
    assert back.facet_forms == ray.facet_forms  # {0} is the one facet
    slab = rays_of_facets([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)], 3)
    assert slab.rays == ((0, 0, 1), (0, 1, 0)) and slab.dim == 2
    assert slab.facet_forms == ((0, 0, 1), (0, 1, 0))
    line = facets_of_rays([(1, 2, 0), (-1, -2, 0), (0, 1, 1), (1, 0, 1)])
    assert line.lineality == ((1, 2, 0),) and line.dim == 3
    assert facets_of_rays([], 3).dim == 0 and rays_of_facets([], 3).dim == 3


def count_calls(monkeypatch, names):
    calls = collections.Counter()
    for name in names:
        def counted(*args, _fn=getattr(cone_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cone_module, name, counted)
    return calls


def test_full_dimensional_pointed_conversions_make_no_rank_or_kernel_call(monkeypatch):
    calls = count_calls(monkeypatch, ("rank", "kernel_basis"))
    for d, rays in benchmark_rank_cones(seed=811):
        c = facets_of_rays(rays)
        back = rays_of_facets(c.facet_forms, d)
        assert c.is_pointed and c.dim == d and back.rays == c.rays
    assert calls == {}
    # the counters see the calls a cone with lineality does need
    facets_of_rays([(1, 0), (-1, 0), (0, 1)])
    assert calls == {"kernel_basis": 1}


def test_a_double_description_makes_one_elimination(monkeypatch):
    calls = count_calls(monkeypatch, ("_eliminate",))
    # full rank and pointed: one elimination gives the rank, the start
    # rows and the start cone
    for d, rays in benchmark_rank_cones(seed=811):
        for a in (IntMatrix(rays), IntMatrix(facets_of_rays(rays).facet_forms)):
            calls.clear()
            masks, cols, full, lin = cone_module._dd(a)
            assert calls == {"_eliminate": 1} and lin == ()
            want = containment_extreme_rays(a, d, *cone_module._start_cone(a))
            assert masks == want
            assert compact_columns(cols, full) == transpose_masks(list(want.values()), len(a))
            assert full.bit_count() == len(masks)
    # a negative last pivot e: the start rays are the rows of E times sgn(e)
    a = IntMatrix([(0, -1), (1, 0), (1, -2)])
    assert _eliminate(a, a.shape[1])[2] < 0
    calls.clear()
    assert cone_module._dd(a) == ({(0, -1): 0b010, (1, 0): 0b001}, [0b10, 0b01, 0], 0b11, ())
    assert calls == {"_eliminate": 1}
    # the lower-rank route: one more elimination, of A @ lift in the quotient
    for vectors, d in [([(1, 0, 1), (0, 1, 1), (1, 1, 2)], 3), ([(0, -1, 0), (1, 0, 0)], 3)]:
        calls.clear()
        masks, _, _, lin = cone_module._dd(IntMatrix(vectors, d))
        assert calls == {"_eliminate": 2} and len(masks) == 2
    assert lin == ((0, 0, 1),)


def test_a_ray_set_is_converted_once(monkeypatch):
    calls = count_calls(monkeypatch, ("_dd",))
    # a cone-duality job: the monoid's cone is the cone just converted
    d, rays = benchmark_rank_cones(seed=811)[0]
    c = facets_of_rays([list(r) for r in rays])
    class_group(monoid_from_cone_rays([list(r) for r in rays]))
    assert calls["_dd"] == 1
    memo = cone_module._facets_of_generators
    # the same generators however they are written: the same Cone object
    same = [list(reversed(rays)), [[3 * x for x in r] for r in rays],
            rays + rays[:2], [(0,) * d] + rays]
    for vectors in same:
        assert facets_of_rays(vectors) is c
    assert facets_of_rays(rays, d) is c and calls["_dd"] == 1
    # a lower-rank span converts once in ambient and once in local
    # coordinates, whose generators differ; the local ones are ``rays``
    # again, so this starts from an empty memo
    calls.clear()
    memo.cache_clear()
    embedded = [r + (r[0] + r[1],) for r in rays]
    facets_of_rays(embedded)
    class_group(monoid_from_cone_rays(embedded))
    facets_of_rays(embedded)
    assert calls["_dd"] == 2
    # one more distinct conversion than the memo holds evicts the oldest
    memo.cache_clear()
    cones = [[(1, 0), (k, 1)] for k in range(cone_module._MEMO_SIZE + 1)]
    for vectors in cones:
        facets_of_rays(vectors)
    assert memo.cache_info().currsize == cone_module._MEMO_SIZE
    facets_of_rays(cones[-1])
    assert memo.cache_info().hits == 1
    facets_of_rays(cones[0])
    assert memo.cache_info().hits == 1 and memo.cache_info().misses == len(cones) + 1


def test_malformed_rays_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            facets_of_rays([(1, 0), (1, 2, 3)])
        with pytest.raises(ValueError):
            facets_of_rays([])
        with pytest.raises(ValueError):
            facets_of_rays([(1, 0)], 3)


def test_facets_of_rays_keeps_every_extreme_generator_of_a_class():
    """With lineality ``facets_of_rays`` keeps the extreme input
    generators, made primitive, not one ray per class: four generators
    of the one class modulo (1, 1) that ``rays_of_facets`` gives once,
    two of them multiples of it."""
    c = facets_of_rays([(1, 1), (-1, -1), (1, -1), (2, 0), (0, -2), (3, -1)])
    assert c.lineality == ((1, 1),) and c.facet_forms == ((1, -1),)
    assert c.rays == ((0, -1), (1, -1), (1, 0), (3, -1))
    assert rays_of_facets(c.facet_forms, 2).rays == ((0, -1),)
    assert [dot(f, r) for r in c.rays for f in c.facet_forms] == [1, 2, 1, 4]
