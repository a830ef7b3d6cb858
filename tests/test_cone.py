"""Polyhedral duality: frozen fixtures plus Fourier-Motzkin cross-checks."""

import itertools
import random

import pytest

from monograde.cone import Cone, facets_of_rays, membership, rays_of_facets
from oracles import (
    dot,
    extreme_by_facets,
    fm_facets,
    fm_member,
    frac_rref,
    random_pointed_cones,
    subset_facets,
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
