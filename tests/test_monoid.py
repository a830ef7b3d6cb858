"""Affine monoids: normalization, Hilbert bases, units.

Hilbert bases are checked against exhaustive box irreducibility with
Fourier-Motzkin membership and against the whole-box scan they
replaced; the region sweep against a filtered box product; everything
else against frozen values.
"""

import ast
import collections
import itertools
import operator
import os
import random
from math import ceil, comb, floor, prod

import pytest

import sweepcounts
from monograde import exact_linalg, monoid
from monograde.exact_linalg import IntMatrix
from monograde.monoid import (
    AffineMonoid,
    EnumerationLimitError,
    NonNormalError,
    hilbert_basis,
    monoid_from_cone_rays,
    normalize_presentation,
)
from corpora import (
    caratheodory_corpus,
    cone_corpus,
    degenerate_cone_corpus,
    presentation_corpus,
    random_pointed_cones,
)
from oracles import brute_irreducibles, dot, region_tight_points, zonotope_box
from references import (
    box_hilbert_basis,
    full_scan_hilbert_filter,
    hermite_cone_lattice,
    kernel_unit_rows,
    presentation_member,
    recursive_region_points,
    search_normality,
    reference_view,
    view_to_ambient,
)


# -- normalization and membership --------------------------------------


def test_numerical_monoid_2_3_is_not_normal():
    m = normalize_presentation([(2,), (3,)])
    assert m.rank == 1
    assert not m.is_normal
    assert m.normality_witness == (1,)
    with pytest.raises(NonNormalError) as info:
        m.require_normal()
    assert info.value.witness == (1,)
    with pytest.raises(NonNormalError):
        hilbert_basis(m)


def test_a_monoid_is_built_only_by_the_two_factories():
    """One way in: ``AffineMonoid(...)`` raises TypeError naming both
    factories, and under ``src/monograde`` only they call the private
    constructor, so no monoid skips the normality check or holds L in
    a basis of its own."""
    with pytest.raises(TypeError) as info:
        AffineMonoid(2, [(1, 0), (1, 1), (1, 3)], IntMatrix([(1, 0), (0, 1)]),
                     [(1, 0), (1, 1), (1, 3)], True)
    assert "normalize_presentation" in str(info.value)
    assert "monoid_from_cone_rays" in str(info.value)
    package = os.path.dirname(os.path.abspath(monoid.__file__))
    callers = set()
    for filename in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                callers.update((filename, func.name) for node in ast.walk(func)
                               if isinstance(node, ast.Attribute) and node.attr == "_of"
                               and isinstance(node.value, ast.Name)
                               and node.value.id == "AffineMonoid")
    assert callers == {("monoid.py", "normalize_presentation"),
                       ("monoid.py", "monoid_from_cone_rays")}


def test_generators_that_miss_a_hilbert_element_are_not_normal():
    # the cone of (1, 0) and (1, 3) holds (1, 2), which no sum of the
    # generators reaches: it is the witness, and only the cone's own
    # monoid lists it
    m = normalize_presentation([(1, 0), (1, 1), (1, 3)])
    assert not m.is_normal and m.normality_witness == (1, 2)
    with pytest.raises(NonNormalError) as info:
        hilbert_basis(m)
    assert info.value.witness == (1, 2)
    assert hilbert_basis(monoid_from_cone_rays([(1, 0), (1, 3)])) \
        == ((1, 0), (1, 1), (1, 2), (1, 3))


def test_the_factories_hold_the_lattice_in_its_hermite_basis():
    """Membership and local coordinates solve in an echelon basis
    (``exact_linalg._divmod``), so both factories hold L in its Hermite
    basis: on the span of (1, 2) and (1, 1), (0, 1) = (1, 2) - (1, 1)
    is a point of L and (2, 3), their sum, a member."""
    for m in (normalize_presentation([(1, 2), (1, 1)]), monoid_from_cone_rays([(1, 2), (1, 1)])):
        assert m.lattice_basis == ((1, 0), (0, 1))
        assert m.to_local((0, 1)) == (0, 1) and m.contains((2, 3))


def test_saturation_membership_vs_presentation_membership():
    m = normalize_presentation([(3,), (5,)])
    # the saturation contains every nonnegative integer
    assert all(m.contains((k,)) for k in range(12))
    # the monoid itself has the classical gaps
    gaps = [k for k in range(16) if not presentation_member(m, (k,))]
    assert gaps == [1, 2, 4, 7]


def test_veronese_generators_are_normal():
    m = normalize_presentation([(2, 0), (1, 1), (0, 2)])
    assert m.is_normal and m.normality_witness is None
    assert hilbert_basis(m) == ((0, 2), (1, 1), (2, 0))
    # same monoid written on another basis of its lattice
    m2 = normalize_presentation([(1, 0), (1, 1), (1, 2)])
    assert m2.is_normal
    assert hilbert_basis(m2) == ((1, 0), (1, 1), (1, 2))


def test_generated_lattice_is_respected():
    # the generated lattice only has even second coordinates, so the
    # presentation is already normal; the full ambient cone is not hit
    m = normalize_presentation([(1, 0), (1, 2)])
    assert m.is_normal
    assert hilbert_basis(m) == ((1, 0), (1, 2))
    assert not m.contains((1, 1))
    with pytest.raises(ValueError, match="^point is not in the monoid's group L$"):
        m.facet_values((1, 1))
    # over the full ambient lattice the interior point appears
    c = monoid_from_cone_rays([(1, 0), (1, 2)])
    assert hilbert_basis(c) == ((1, 0), (1, 1), (1, 2))
    with pytest.raises(ValueError, match="^generators have inconsistent lengths$"):
        normalize_presentation([(1, 0), (1,)])
    with pytest.raises(ValueError, match="^rays have inconsistent lengths$"):
        monoid_from_cone_rays([(1, 0), (1,)])


def test_plane_curve_cone_hilbert_basis():
    m = monoid_from_cone_rays([(1, 0), (1, 3)])
    assert hilbert_basis(m) == ((1, 0), (1, 1), (1, 2), (1, 3))


def test_square_base_cone_hilbert_basis():
    m = monoid_from_cone_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert hilbert_basis(m) == ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))


def test_units_split_off():
    z = normalize_presentation([(1,), (-1,)])
    assert z.is_normal
    assert hilbert_basis(z) == ()
    assert z.unit_basis() == ((1,),)
    mix = normalize_presentation([(1, 0), (-1, 0), (0, 2)])
    assert mix.is_normal
    assert hilbert_basis(mix) == ((0, 2),)
    assert mix.unit_basis() == ((1, 0),)
    assert mix.contains((3, 2)) and not mix.contains((0, 1)) and not mix.contains((0, -2))
    halfplane = monoid_from_cone_rays([(1, 0), (-1, 0), (0, 1)])
    assert hilbert_basis(halfplane) == ((0, 1),)
    assert halfplane.unit_basis() == ((1, 0),)


def test_pointed_monoid_has_no_units():
    q = normalize_presentation([(0, 1), (1, 0)])
    assert q.unit_basis() == ()
    assert hilbert_basis(q) == ((0, 1), (1, 0))


def test_generator_order_does_not_matter():
    rng = random.Random(13)
    gens = [(2, 0), (1, 1), (0, 2), (3, 1)]
    base = normalize_presentation(gens)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        m = normalize_presentation(shuffled)
        assert hilbert_basis(m) == hilbert_basis(base)
        assert m.unit_basis() == base.unit_basis()


def test_presentation_membership_is_closed_under_sums():
    rng = random.Random(37)
    m = normalize_presentation([(2,), (3,)])
    for _ in range(20):
        a = rng.randint(0, 4) * 2 + rng.randint(0, 4) * 3
        b = rng.randint(0, 4) * 2 + rng.randint(0, 4) * 3
        assert presentation_member(m, (a,))
        assert presentation_member(m, (a + b,))


# -- units and normality against the routes they replaced -------------


def test_units_and_normality_match_the_kernel_and_the_search():
    lists = cone_corpus(431) + [vs for vs, _ in degenerate_cone_corpus(433, 300)]
    checked = with_units = non_normal = 0
    for vs in lists:
        for build in (monoid_from_cone_rays, normalize_presentation):
            try:
                m = build(vs)
            except ValueError:
                continue  # no vectors, or only zero ones
            assert m.cone.lineality == kernel_unit_rows(m)
            with_units += m.unit_rank > 0
            lo, hi = zonotope_box(reference_view(m)[0])
            if prod(b - a + 1 for a, b in zip(lo, hi)) > 5000:
                continue  # the search oracle needs the Hilbert basis
            assert m._normality == search_normality(m), vs
            checked += 1
            non_normal += not m.is_normal
    assert checked > 600 and with_units > 300 and non_normal > 25


def test_normality_matches_the_search_on_presentations():
    unit_witnesses = hilbert_witnesses = with_units = 0
    for gens in presentation_corpus(443, 400):
        m = normalize_presentation(gens)
        assert m.cone.lineality == kernel_unit_rows(m)
        ok, witness = m._normality
        assert (ok, witness) == search_normality(m), gens
        with_units += m.unit_rank > 0
        if not ok:
            assert m.contains(witness) and not presentation_member(m, witness)
            if any(m.facet_values(witness)):
                hilbert_witnesses += 1
            else:
                unit_witnesses += 1
    assert with_units > 150 and hilbert_witnesses > 40 and unit_witnesses > 5


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_normality_and_hilbert_basis_work_counts(monkeypatch):
    calls = dict.fromkeys(("hnf", "smith", "quotient", "kernel_basis"), 0)
    monkeypatch.setattr(exact_linalg, "hnf", _counting(calls, "hnf", exact_linalg.hnf))
    # the Smith kernel behind every Smith form
    monkeypatch.setattr(exact_linalg, "_smith", _counting(calls, "smith", exact_linalg._smith))
    # the one Hermite form of the pointed view, counted apart from the
    # lattice's: the quotient of the facet matrix the sweeps run in
    monkeypatch.setattr(monoid, "_quotient", _counting(calls, "quotient", monoid._quotient))
    monkeypatch.setattr(monoid, "kernel_basis",
                        _counting(calls, "kernel_basis", monoid.kernel_basis))
    # a generator presentation is judged without a kernel and without a
    # Smith form: the unit quotient reads a Hermite form
    for gens in presentation_corpus(449, 60):
        normalize_presentation(gens).is_normal
    assert calls["smith"] == 0 < calls["quotient"] and calls["kernel_basis"] == 0
    # a full-rank pointed cone: L = Z^r needs no Hermite form, the units
    # come from the cone, and the view takes its one
    for d, rays in random_pointed_cones(12, 4, 3, seed=457):
        calls["hnf"] = calls["quotient"] = 0
        hilbert_basis(monoid_from_cone_rays(rays))
        assert calls["hnf"] == calls["quotient"] == 1
    # the same cones in a sublattice of Z^(r+1): the quotient by the
    # rays, one Hermite form, and the kernel basis of its kernel rows,
    # one and one for its canonical basis, saturate the span; the view
    # takes the fourth
    rng = random.Random(459)
    for d, rays in random_pointed_cones(12, 4, 3, seed=457):
        w = [rng.randint(-2, 2) for _ in rays[0]]
        calls["hnf"] = calls["quotient"] = 0
        hilbert_basis(monoid_from_cone_rays([r + (dot(w, r),) for r in rays]))
        assert calls["hnf"] == 3 + 1
        assert calls["quotient"] == 1 + 1


def test_cone_monoid_lattice_matches_the_hermite_route():
    """Full-rank rays skip the two kernels; every span, full or not,
    keeps the Hermite route's basis of L and local generators."""
    degenerate = [vs for vs, _ in degenerate_cone_corpus(409, 80) if any(map(any, vs))]
    full = lower = 0
    for rays in cone_corpus(401) + degenerate:
        m = monoid_from_cone_rays(rays)
        basis, local = hermite_cone_lattice(rays)
        assert m.lattice_basis == basis
        assert m.local_generators == local
        full += m.rank == m.ambient_rank
        lower += m.rank < m.ambient_rank
    assert full > 30 and lower > 30


# -- Hilbert basis against exhaustive irreducibility -------------------


def test_hilbert_basis_matches_brute_force_irreducibles():
    for d, rays in random_pointed_cones(10, 3, 3, seed=101):
        m = monoid_from_cone_rays(rays)
        hb = hilbert_basis(m)
        assert sorted(hb) == brute_irreducibles(rays, 0)
        # every Hilbert basis element is a member and every ray is reachable
        for h in hb:
            assert m.contains(h) and presentation_member(m, h)


def test_hilbert_basis_reconstructs_the_monoid():
    for d, rays in random_pointed_cones(5, 2, 4, seed=107):
        m = monoid_from_cone_rays(rays)
        hb = hilbert_basis(m)
        again = normalize_presentation(hb)
        assert again.is_normal
        assert hilbert_basis(again) == hb


def test_hilbert_basis_matches_the_box_scan_oracle():
    ranks, with_units, embedded = set(), 0, 0
    for rays in cone_corpus(401):
        m = monoid_from_cone_rays(rays)
        view = m._pointed_view
        ranks.add(m.rank)
        with_units += m.unit_rank > 0
        embedded += m.rank < m.ambient_rank
        ref_rays, ref_forms, dim, _, _ = reference_view(m)
        pointed = box_hilbert_basis(ref_rays, ref_forms, dim)
        assert hilbert_basis(m) == tuple(sorted(view_to_ambient(m, q) for q in pointed))
        # facet values fix a point of the view, so the package's points z
        # are the oracle's points q exactly when their values agree
        assert sorted(vals for _, vals in m._pointed_hilbert) == sorted(
            tuple(dot(f, q) for f in ref_forms) for q in pointed)
        for z, vals in m._pointed_hilbert:
            assert vals == tuple(dot(f, z) for f in view.forms)
    assert ranks >= {2, 3, 4, 5} and with_units and embedded


def region_by_filter(forms, heights, lo, hi):
    out = []
    for pt in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        vals = tuple(dot(f, pt) for f in forms)
        if all(v >= h for v, h in zip(vals, heights)):
            out.append((pt, vals))
    return out


def box_caps(forms, lo, hi, caps=None):
    """Each form's cap, and for a form without one (None, or no caps at
    all) the most it reaches on the box [lo, hi], which no point of the
    box exceeds."""
    caps = caps or (None,) * len(forms)
    return tuple(sum(max(c * a, c * b) for c, a, b in zip(f, lo, hi)) if u is None else u
                 for f, u in zip(forms, caps))


def test_region_points_match_a_filtered_box_product():
    """The sweep against a filter of the whole box product, heights only.
    Every form carries a finite cap; a cap at the most the form reaches
    on the box never binds, so these cases, capped that way, give the
    filtered box product unchanged."""
    rng = random.Random(409)
    heights_only = [
        # rank 1: no prefix, only the last coordinate's interval
        (((2,), (-3,)), (-1, -4), (-3,), (3,)),
        # empty region: x >= 1 and -x >= 1
        (((1,), (-1,)), (1, 1), (-4,), (4,)),
        # a form with last coefficient 0 that the prefix alone decides
        (((1, 0), (0, 1), (-1, 2)), (-1, 0, -2), (-2, -1), (2, 3)),
        (((2, 0, 0), (1, -1, 0), (0, 1, 3)), (-3, 0, 1), (-2, -2, -1), (1, 2, 2)),
    ]
    heights_cases = list(heights_only)
    for _ in range(300):
        k = rng.randint(1, 4)
        forms = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            for f in forms[: rng.randint(1, len(forms))]:
                f[-1] = 0
        lo = [rng.randint(-3, 1) for _ in range(k)]
        hi = [a + rng.randint(0, 4) for a in lo]
        heights = [rng.randint(-4, 3) for _ in forms]
        heights_cases.append((tuple(map(tuple, forms)), tuple(heights), tuple(lo), tuple(hi)))
    empty = nonempty = 0
    for forms, heights, lo, hi in heights_cases:
        got = list(monoid._region_points(forms, heights, lo, hi, box_caps(forms, lo, hi)))
        want = region_by_filter(forms, heights, lo, hi)
        assert got == want, (forms, heights, lo, hi)
        empty += not want
        nonempty += bool(want)
    # 2x >= -1 and -3x >= -4: x from ceil(-1/2) = 0 to floor(4/3) = 1;
    # on [-3, 3] the forms reach at most 6 and 9
    assert list(monoid._region_points(*heights_only[0], (6, 9))) == [((0,), (0, 0)), ((1,), (2, -3))]
    assert empty > 20 and nonempty > 100


def test_capped_region_points_match_a_filtered_box_product():
    """The sweep against a filter of the whole box product, with caps.
    A form drawn without a cap is capped at the most it reaches on the
    box, which leaves the filtered box product unchanged."""
    rng = random.Random(419)
    fixed = [
        # rank 1: 2x in [-1, 1] and -3x >= -4 leave x = 0; -3x reaches
        # at most 9 on [-3, 3]
        (((2,), (-3,)), (-1, -4), (-3,), (3,), (1, 9)),
        # a zero column above its cap: y <= 0 fails before x is fixed;
        # x + y reaches at most 5 on the box
        (((0, 1), (1, 1)), (0, -9), (-2, 1), (2, 3), (0, 5)),
        # emptied only by the caps: 2x + 2y = 1 and x = y have no integer
        # solution, though (1, 1) meets both heights
        (((2, 2), (1, -1)), (1, 0), (-2, -2), (2, 2), (1, 0)),
    ]
    cases = list(fixed)
    for _ in range(300):
        k = rng.randint(1, 4)
        forms = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            for f in forms[: rng.randint(1, len(forms))]:
                f[rng.randrange(k)] = 0
        lo = [rng.randint(-3, 1) for _ in range(k)]
        hi = [a + rng.randint(0, 4) for a in lo]
        heights = [rng.randint(-8, 0) for _ in forms]
        caps = [None if rng.random() < 0.3 else rng.randint(-1, 8) for _ in forms]
        cases.append((tuple(map(tuple, forms)), tuple(heights), tuple(lo), tuple(hi), tuple(caps)))
    empty = nonempty = capped = 0
    for forms, heights, lo, hi, caps in cases:
        got = list(monoid._region_points(forms, heights, lo, hi, box_caps(forms, lo, hi, caps)))
        uncapped = region_by_filter(forms, heights, lo, hi)
        want = [(pt, vals) for pt, vals in uncapped
                if all(u is None or v <= u for v, u in zip(vals, caps))]
        assert got == want, (forms, heights, lo, hi, caps)
        empty += not want
        nonempty += bool(want)
        capped += want != uncapped
    assert list(monoid._region_points(*fixed[0])) == [((0,), (0, 0))]
    assert region_by_filter(*fixed[1][:4]) and not list(monoid._region_points(*fixed[1]))
    assert region_by_filter(*fixed[2][:4]) and not list(monoid._region_points(*fixed[2]))
    assert empty > 40 and nonempty > 100 and capped > 80


def _checking_recursive(real, sweeps):
    """``real`` with each sweep's points checked against
    ``references.recursive_region_points`` on the same arguments, and
    counted in ``sweeps`` by the box's dimension."""
    def checked(*args):
        got = list(real(*args))
        assert got == list(recursive_region_points(*args)), args
        sweeps[len(args[2])] += 1
        return iter(got)
    return checked


def test_iterative_sweep_matches_the_recursive_reference(monkeypatch):
    """The one loop with a stack yields what the recursive generator
    chain it replaced yields, in the same order: on every random box of
    the two filtered box product tests, run as they are, and on every
    sweep of the seed-811 ``monoid-ring`` list, two per job."""
    sweeps = collections.Counter()
    monkeypatch.setattr(monoid, "_region_points",
                        _checking_recursive(monoid._region_points, sweeps))
    test_region_points_match_a_filtered_box_product()
    test_capped_region_points_match_a_filtered_box_product()
    assert sum(sweeps.values()) > 600 and set(sweeps) == {1, 2, 3, 4}, sweeps
    sweeps.clear()
    _, ranks, _ = sweepcounts.sweep_counts(811)
    assert sum(sweeps.values()) == 2 * sum(ranks.values()) == 320
    assert set(sweeps) == {2, 3, 4}


THIN_CONES = ([(1, 0), (1, 4000)], [(1, 0, 0), (1, 4000, 0), (0, 0, 1)])


def test_hilbert_filter_compares_only_below_half_the_total(monkeypatch):
    """The one filter for minimal elements compares a vector only with
    the kept ones of strictly smaller total, which for the Hilbert basis
    replaced the cut at half a candidate's total.  The thin cones' 4,001
    and 4,002 Hilbert elements share one total (plus the third ray), so
    the filter makes about one componentwise comparison per element,
    where a full scan makes about N^2."""
    calls = {"ge": 0}
    monkeypatch.setattr(monoid, "ge", _counting(calls, "ge", operator.ge))
    for rays in THIN_CONES:
        calls["ge"] = 0
        hb = hilbert_basis(monoid_from_cone_rays(rays))
        assert len(hb) == 4001 + (len(rays) == 3)
        assert calls["ge"] <= 4002, (rays, calls)


def test_hilbert_filter_matches_the_full_scan(monkeypatch):
    """``monoid._minimal``, which compares a candidate only with the kept
    vectors of strictly smaller total, keeps what the full scan keeps,
    on the very candidates the sweep found."""
    swept = []
    real = monoid._region_points

    def recorded(*args):
        points = list(real(*args))
        swept.extend(points)
        return iter(points)

    monkeypatch.setattr(monoid, "_region_points", recorded)
    kinds = collections.Counter()
    for rays in cone_corpus(401) + caratheodory_corpus(479):
        swept.clear()
        m = monoid_from_cone_rays(rays)
        view = m._pointed_view
        got = sorted(vals for _, vals in m._pointed_hilbert)
        candidates = {vals for _, vals in swept if any(vals)}
        ref_rays, ref_forms = reference_view(m)[:2]
        candidates |= {tuple(dot(f, r) for f in ref_forms) for r in ref_rays}
        assert got == sorted(full_scan_hilbert_filter(candidates)), rays
        kinds[view.dim] += 1
        kinds["reducible"] += len(candidates) > len(got)
    assert all(kinds[d] > 10 for d in range(1, 5)) and kinds["reducible"] > 50, kinds


def test_hilbert_basis_meets_the_caratheodory_caps():
    """Each element of the box oracle's Hilbert basis is a ray or stays
    within S_f - 1 on every facet form f, and the bound is met.  Every
    S_f is at least 1, and a view of positive dimension has rays: a
    facet form of a pointed full-dimensional cone is positive on some
    extreme ray.  The view's rays, kept as facet values, are those of
    the primitive rays of the reference's own quotient."""
    ranks, with_units, tight = set(), 0, 0
    for rays in caratheodory_corpus(461):
        m = monoid_from_cone_rays(rays)
        view = m._pointed_view
        ref_rays, ref_forms, dim, _, _ = reference_view(m)
        assert all(s >= 1 for s in view.ray_sums) and bool(view._rays) == (view.dim > 0), view
        assert sorted(view._rays) == sorted(tuple(dot(f, r) for f in ref_forms) for r in ref_rays)
        lo, hi = zonotope_box(ref_rays)
        if prod(b - a + 1 for a, b in zip(lo, hi)) > 4000:
            continue  # beyond the box oracle's reach
        caps = view._caps((0,) * len(view.forms))
        for p in box_hilbert_basis(ref_rays, ref_forms, dim):
            vals = tuple(dot(f, p) for f in ref_forms)
            assert p in ref_rays or all(map(operator.le, vals, caps)), (view, p)
            tight += p not in ref_rays and any(map(operator.eq, vals, caps))
        ranks.add(m.rank)
        with_units += m.unit_rank > 0
    assert ranks == {2, 3, 4} and with_units > 20 and tight > 30


def test_view_rays_are_primitive_classes_modulo_units():
    """On x >= y, with the units (1, 1), the cone keeps the generator
    (1, -1), twice its class: the view solves its z and divides by the
    gcd, so its one ray has facet value 1, S_f is 1, and the Hilbert
    basis is the class's reduced representative."""
    m = monoid_from_cone_rays([(1, 1), (-1, -1), (1, -1)])
    view = m._pointed_view
    assert m.cone.rays == ((1, -1),) and m.unit_basis() == ((1, 1),)
    assert view._rays == ((1,),) and view.ray_sums == (1,)
    assert hilbert_basis(m) == ((0, -1),)


def capped_region_by_vertices(forms, heights, caps):
    """Integer points of {heights <= forms(y) <= caps}, a polytope, by a
    filtered scan of the box around its rational vertices."""
    both = list(forms) + [tuple(-c for c in f) for f in forms]
    verts = region_tight_points(both, list(heights) + [-u for u in caps])
    if not verts:
        return []
    box = [range(floor(min(v[i] for v in verts)), ceil(max(v[i] for v in verts)) + 1)
           for i in range(len(forms[0]))]
    return sorted(pt for pt in itertools.product(*box)
                  if all(h <= dot(f, pt) <= u for f, h, u in zip(forms, heights, caps)))


def _pivot_counts(view, heights, caps):
    """n_i per row i of the echelon form: how many values coordinate i
    of a capped sweep can take once coordinates 0..i-1 are fixed."""
    counts = []
    for row in view.hermite:
        p = next(j for j, c in enumerate(row) if c)
        counts.append(max((caps[p] - heights[p]) // row[p] + 1, 0))
    return counts


def capped_sweep(view, heights, caps, counts):
    """``view._sweep`` at the given caps, whatever the region's vertices
    would give, with its points and entries counted in ``counts`` under
    the caller's name, as ``tests/sweepcounts.py`` counts them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monoid._PointedView, "_caps", lambda self, _: tuple(caps))
        mp.setattr(monoid, "_region_points", sweepcounts._counting(monoid._region_points, counts))
        return view._sweep(heights)


def test_echelon_frames_sweep_exactly_the_capped_region():
    """In every dimension, a sweep in the frame of ``_sweep`` visits
    every point z of the capped region once, with its facet values
    z @ H, whatever the zonotope box: the values it yields are those of
    the region's points in the reference's own quotient, at the Hilbert
    basis caps and at random heights and caps.  The z it sweeps stay in
    lexicographic order, and the pivot forms bound its work: at most
    n_0 * ... * n_i prefixes of length i + 1 (``_pivot_counts``)."""
    rng = random.Random(473)
    kinds = collections.Counter()
    for rays in caratheodory_corpus(473):
        m = monoid_from_cone_rays(rays)
        view = m._pointed_view
        s = len(view.forms)
        if view.dim == 0 or comb(2 * s, view.dim) > 300:
            continue  # nothing to sweep, or too many vertex candidates for the oracle
        ref_rays, ref_forms = reference_view(m)[:2]
        lo, hi = zonotope_box(ref_rays)
        random_heights = [rng.randint(-2, 1) for _ in range(s)]
        cases = [((0,) * s, view._caps((0,) * s)),
                 (random_heights, [h + rng.randint(0, 4) for h in random_heights])]
        for heights, caps in cases:
            counts = collections.defaultdict(lambda: [0, 0])  # points, entries
            swept = list(capped_sweep(view, heights, caps, counts))
            assert [pt for pt, _ in swept] == sorted(pt for pt, _ in swept)
            for z, vals in swept:
                assert vals == tuple(dot(f, z) for f in view.forms)
            want = capped_region_by_vertices(ref_forms, heights, caps)
            assert sorted(vals for _, vals in swept) == sorted(
                tuple(dot(f, q) for f in ref_forms) for q in want), (rays, heights, caps)
            n = _pivot_counts(view, heights, caps)
            bound = 1 + sum(prod(n[: i + 1]) for i in range(view.dim - 1))
            points, entries = counts["capped_sweep", view.dim]
            assert points == len(want) <= prod(n) and entries <= bound
            kinds["outside the zonotope box"] += any(
                not a <= c <= b for y in want for a, c, b in zip(lo, y, hi))
            kinds["empty"] += not want
        kinds[view.dim] += 1
        kinds["units"] += m.unit_rank > 0
    assert kinds[1] > 10 and kinds[2] > 10, kinds
    assert kinds[3] > 10 and kinds[4] > 3 and kinds["units"] > 5, kinds
    assert kinds["outside the zonotope box"] > 4 and kinds["empty"] > 10, kinds


def test_echelon_sweep_guard_counts_the_pivot_values(monkeypatch):
    """The frame refuses a sweep whose pivot counts multiply beyond the
    desk scale and names the product: 92 on the thin cone, whose
    zonotope box holds 13824 points.  Where the pivot forms reach
    beyond the zonotope box, a Hilbert basis whose zonotope box fits
    the limit still stops at the frame's."""
    m = monoid_from_cone_rays([(9, 7, 7), (7, 9, 7), (7, 7, 9)])
    view = m._pointed_view
    zeros = (0,) * len(view.forms)
    caps = view._caps(zeros)
    count = prod(_pivot_counts(view, zeros, caps))
    assert count == 92
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", count)
    view._sweep(zeros)
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", count - 1)
    with pytest.raises(EnumerationLimitError, match="echelon sweep has %d points" % count):
        view._sweep(zeros)
    # the last pivot form capped below its height empties the region,
    # yet the prefixes before it still count
    assert view.hermite[2][:2] == (0, 0)
    with pytest.raises(EnumerationLimitError, match="echelon sweep has %d points" % count):
        capped_sweep(view, zeros, caps[:2] + (-1,), collections.defaultdict(lambda: [0, 0]))
    for rays in caratheodory_corpus(463):
        m = monoid_from_cone_rays(rays)
        view = m._pointed_view
        caps = view._caps((0,) * len(view.forms))
        box = prod(b - a + 1 for a, b in zip(*zonotope_box(reference_view(m)[0])))
        if view.dim >= 3 and prod(_pivot_counts(view, (0,) * len(caps), caps)) > box:
            break
    else:
        raise AssertionError("no frame reaches beyond its zonotope box")
    monkeypatch.setattr(monoid, "_MAX_ENUMERATION", box)
    with pytest.raises(EnumerationLimitError, match="^echelon sweep has"):
        hilbert_basis(monoid_from_cone_rays(rays))


def test_enumeration_guard_raises():
    # a cone thin enough that its echelon frame, 4,000,000 points, is
    # beyond the desk scale must fail loudly
    m = monoid_from_cone_rays([(1, 0), (1, 4000000)])
    with pytest.raises(EnumerationLimitError, match="^echelon sweep has 4000000 points"):
        hilbert_basis(m)
